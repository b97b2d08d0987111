package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cachecloud/internal/node"
)

// Outcome of one op.
const (
	stOK       uint8 = iota
	stFailed         // transport error or a status that is neither 200 nor 429
	stShed           // 429
	stViolated       // 200, but the oracle rejected the reply
)

// Where a /doc reply came from (DocResponse.Source).
const (
	srcNone uint8 = iota
	srcLocal
	srcPeer
	srcOrigin
)

// engine is the load generator: one per run, driving a set of base URLs.
type engine struct {
	w      *workload
	sched  *schedule
	nodes  []*wirePool // cache nodes by node index
	origin *wirePool
	rec    *recorder // nil when untraced
	orc    *oracle

	docTarget []string // "/doc?url=<escaped>" per catalog index
	pubBody   [][]byte // POST /publish body per catalog index
	// urlLocks[doc] keeps a publish and a default-tenant request for the
	// same document apart (workload.exclusivePublish).
	urlLocks []sync.RWMutex

	// sent[node][tenant] counts every /doc request over the whole run, for
	// the conservation check against the nodes' own books.
	sent [numNodes][3]atomic.Int64
	// Publish fan-out totals from the replies.
	publishes, notified, shieldsNotified atomic.Int64
}

// primedConns is how many connections per host are open before the timed
// phases: above the in-flight requests per host of every workload.
const primedConns = 8

func newEngine(w *workload, sched *schedule, nodes []string, origin string, rec *recorder) (*engine, error) {
	e := &engine{
		w: w, sched: sched, origin: newWirePool(origin), rec: rec,
		orc:       newOracle(sched.catalog, w.tenants),
		docTarget: make([]string, len(sched.catalog)),
		pubBody:   make([][]byte, len(sched.catalog)),
	}
	for _, base := range nodes {
		e.nodes = append(e.nodes, newWirePool(base))
	}
	for _, p := range append([]*wirePool{e.origin}, e.nodes...) {
		if err := p.prime(primedConns); err != nil {
			e.close()
			return nil, err
		}
	}
	for i, d := range sched.catalog {
		e.docTarget[i] = "/doc?url=" + url.QueryEscape(d.URL)
		e.pubBody[i], _ = json.Marshal(node.PublishRequest{URL: d.URL})
	}
	if w.exclusivePublish {
		e.urlLocks = make([]sync.RWMutex, len(sched.catalog))
	}
	return e, nil
}

func (e *engine) close() {
	e.origin.close()
	for _, p := range e.nodes {
		p.close()
	}
}

// phase is one pass over a list of ops and what each op did. Times are
// nanoseconds since start.
type phase struct {
	ops    []op
	start  time.Time
	send   []int64
	done   []int64
	status []uint8
	source []uint8

	wall    time.Duration
	cpu     time.Duration // process user+sys over the phase
	mallocs uint64
	bytes   uint64

	// A closed phase run in blocks: blocks[k] ran between refs[k] and
	// refs[k+1].
	blocks []block
	refs   []refStat
}

// block is ops[lo:hi] of a closed phase and the wall time they took.
type block struct {
	lo, hi int
	wall   time.Duration
}

func newPhase(ops []op) *phase {
	return &phase{
		ops: ops, send: make([]int64, len(ops)), done: make([]int64, len(ops)),
		status: make([]uint8, len(ops)), source: make([]uint8, len(ops)),
	}
}

// run executes ops. Closed (open=false): workers goroutines each take the
// next op as soon as their previous reply is in. Open: one dispatcher puts
// each op on the wire at its due time however slow the replies are, and a
// pool of readers waits for the replies.
func (e *engine) run(ops []op, workers int, open bool) *phase {
	p := newPhase(ops)
	p.start = time.Now()
	e.measure(p, func() {
		if open {
			var wg sync.WaitGroup
			e.dispatch(p, &wg)
			wg.Wait()
		} else {
			e.closedLoop(p, 0, len(ops), workers)
		}
	})
	return p
}

// closedBlocks is how many blocks the timed closed phase is cut into, with
// a reference block before each and after the last.
const closedBlocks = 16

// runBlocks executes ops as run does for a closed phase, in closedBlocks
// blocks that alternate with blocks of the same callers driving the
// reference server. The phase's wall, CPU and allocation totals cover the
// program's blocks only.
func (e *engine) runBlocks(ops []op, workers int, ref *reference) *phase {
	p := newPhase(ops)
	p.start = time.Now()
	for k := 0; k < closedBlocks; k++ {
		p.refs = append(p.refs, ref.block(workers))
		b := block{lo: k * len(ops) / closedBlocks, hi: (k + 1) * len(ops) / closedBlocks}
		before := p.wall
		e.measure(p, func() { e.closedLoop(p, b.lo, b.hi, workers) })
		b.wall = p.wall - before
		p.blocks = append(p.blocks, b)
	}
	p.refs = append(p.refs, ref.block(workers))
	return p
}

// closedLoop runs ops[lo:hi] of the phase from workers callers and waits
// for the last reply.
func (e *engine) closedLoop(p *phase, lo, hi, workers int) {
	var wg sync.WaitGroup
	var next atomic.Int64
	next.Store(int64(lo))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < hi; i = int(next.Add(1) - 1) {
				e.exec(p, i)
			}
		}()
	}
	wg.Wait()
}

// measure runs fn and adds its wall time, the process's CPU time and the
// allocations made meanwhile to the phase's totals.
func (e *engine) measure(p *phase, fn func()) {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	t0 := time.Now()
	fn()
	p.wall += time.Since(t0)
	p.cpu += cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	p.mallocs += ms1.Mallocs - ms0.Mallocs
	p.bytes += ms1.TotalAlloc - ms0.TotalAlloc
}

// dispatch sends each op at its due time, from a thread of its own so that
// its sleeps are the kernel's and not the Go scheduler's. It writes the
// request itself and leaves only the wait for the reply to a goroutine. An
// op that would make it block (a rebalance cycle, a document lock that is
// held) gets a goroutine for the whole op instead.
func (e *engine) dispatch(p *phase, wg *sync.WaitGroup) {
	// One P more than the cluster's for as long as the dispatcher lives: it
	// wakes from every sleep needing a P at once, and with GOMAXPROCS =
	// nproc = 2 the collector's dedicated mark worker holds one and the
	// cluster the other for the whole of every mark phase. Measured on the
	// seed commit (full-stack, one run): 197 dispatcher stalls above 10 ms
	// without the extra P, 11 with it.
	procs := runtime.GOMAXPROCS(0)
	runtime.GOMAXPROCS(procs + 1)
	defer runtime.GOMAXPROCS(procs)
	// The dispatcher allocates nothing per op, so the collector never makes
	// it assist: it hands each request it wrote to a pool of waiting readers
	// through a channel that has room for all of them.
	sentOps := make(chan inflight, len(p.ops))
	defer close(sentOps)
	for r := 0; r < openReaders; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for fl := range sentOps {
				e.finish(p, fl)
			}
		}()
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	preciseTimers()
	for i := range p.ops {
		sleepUntil(p.start.Add(p.ops[i].due))
		if fl, started := e.begin(p, i, false); started {
			sentOps <- fl
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.exec(p, i)
		}()
	}
}

// openReaders is how many goroutines wait for open-phase replies. A reader
// stays with its request until the reply is in, so there must be more of
// them than requests in flight: at the highest rate (11,000/s) that is 70 ms
// of a completely stalled cluster. Past that, replies wait for a reader.
const openReaders = 800

// inflight is one request on the wire.
type inflight struct {
	i         int // op index
	wc        *wireConn
	pool      *wirePool
	floor     uint64 // the oracle's floor, read before the send
	span      spanRef
	spanStart int64
}

// exec runs one op to completion on the calling goroutine.
func (e *engine) exec(p *phase, i int) {
	if p.ops[i].kind == opRebalance {
		p.send[i] = int64(time.Since(p.start))
		p.status[i] = e.rebalance()
		p.done[i] = int64(time.Since(p.start))
		return
	}
	fl, _ := e.begin(p, i, true)
	e.finish(p, fl)
}

// lock takes the document's lock for the op (exclusivePublish workloads):
// shared for a default-tenant request, exclusive for a publish. With wait
// false it gives up instead of blocking.
func (e *engine) lock(o op, wait bool) bool {
	switch {
	case e.urlLocks == nil || (o.kind == opDoc && o.tenant != 0):
		return true
	case o.kind == opPublish && wait:
		e.urlLocks[o.doc].Lock()
	case o.kind == opPublish:
		return e.urlLocks[o.doc].TryLock()
	case wait:
		e.urlLocks[o.doc].RLock()
	default:
		return e.urlLocks[o.doc].TryRLock()
	}
	return true
}

func (e *engine) unlock(o op) {
	switch {
	case e.urlLocks == nil || (o.kind == opDoc && o.tenant != 0):
	case o.kind == opPublish:
		e.urlLocks[o.doc].Unlock()
	default:
		e.urlLocks[o.doc].RUnlock()
	}
}

// begin puts a /doc or /publish op on the wire and stamps its send time.
// started is false only when wait is false and the op would have blocked;
// nothing has happened then. A send that fails still counts as started:
// finish records the failure.
func (e *engine) begin(p *phase, i int, wait bool) (fl inflight, started bool) {
	o := p.ops[i]
	if o.kind == opRebalance || !e.lock(o, wait) {
		return fl, false
	}
	fl = inflight{i: i, pool: e.origin, floor: e.orc.floor(o)}
	if o.kind == opDoc {
		fl.pool = e.nodes[o.node]
		e.sent[o.node][o.tenant].Add(1)
	}
	var spanHdr header
	if e.rec != nil {
		fl.span, fl.spanStart = e.rec.open(spanRef{})
		spanHdr = header{spanHeader, fl.span.header()}
	}
	p.send[i] = int64(time.Since(p.start))
	wc, err := fl.pool.get()
	if err != nil {
		return fl, true
	}
	if o.kind == opDoc {
		err = wc.send(fl.pool.host, e.docTarget[o.doc], nil, header{node.TenantHeader, tenantIDs[o.tenant]}, spanHdr)
	} else {
		err = wc.send(fl.pool.host, "/publish", e.pubBody[o.doc], spanHdr)
	}
	if err != nil {
		_ = wc.c.Close()
		return fl, true
	}
	fl.wc = wc
	return fl, true
}

// finish waits for the reply of a started op, judges it and records the
// outcome.
func (e *engine) finish(p *phase, fl inflight) {
	o := p.ops[fl.i]
	var dr node.DocResponse
	var pr node.PublishResponse
	code := 0
	if fl.wc != nil {
		var out any = &dr
		if o.kind == opPublish {
			out = &pr
		}
		var reusable bool
		if code, reusable = fl.wc.receive(out); reusable {
			fl.pool.put(fl.wc)
		} else {
			_ = fl.wc.c.Close()
		}
	}
	status, source := stFailed, srcNone
	switch {
	case code == http.StatusTooManyRequests:
		status = stShed
	case code != http.StatusOK:
	case o.kind == opPublish:
		status = stOK
		e.orc.publishAcked(o, pr.Version)
		e.publishes.Add(1)
		e.notified.Add(int64(pr.Notified))
		e.shieldsNotified.Add(int64(pr.ShieldsNotified))
	default:
		switch dr.Source {
		case "local":
			source = srcLocal
		case "peer":
			source = srcPeer
		case "origin":
			source = srcOrigin
		}
		status = stViolated
		if e.orc.checkDoc(o, fl.floor, dr) {
			status = stOK
		}
	}
	if e.rec != nil {
		name := spClientDoc
		if o.kind == opPublish {
			name = spClientPublish
		}
		e.rec.close(name, fl.span, spanRef{}, fl.spanStart)
	}
	e.unlock(o)
	p.status[fl.i], p.source[fl.i] = status, source
	p.done[fl.i] = int64(time.Since(p.start))
}

// rebalance runs one sub-range determination cycle and the lazy
// replication pass after it, as node.Replay does.
func (e *engine) rebalance() uint8 {
	for _, target := range []string{"/rebalance", "/replicate"} {
		if code, err := e.origin.roundTrip(target, []byte("{}"), (*wireConn).receiveAny, nil); err != nil || code != http.StatusOK {
			return stFailed
		}
	}
	return stOK
}

// scrape reads one node's GET /stats.
func (e *engine) scrape(pool *wirePool, out any) error {
	code, err := pool.roundTrip("/stats", nil, (*wireConn).receiveAny, out)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("%s/stats: status %d", pool.host, code)
	}
	return err
}
