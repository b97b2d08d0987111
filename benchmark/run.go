package main

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"

	"cachecloud/internal/node"
)

// warmWorkers drives the warm-up pass; it is not timed per op, only as
// part of setup_s.
const warmWorkers = 8

// clusterStats is one scrape of every node's GET /stats.
type clusterStats struct {
	caches  []node.CacheStats
	shields []node.ShieldStats
	origin  node.OriginStats
}

// pass is one cluster lifetime: set-up, the two timed phases, the checks.
type pass struct {
	w      *workload
	eng    *engine
	ref    *reference
	setup  time.Duration
	warm   *phase
	closed *phase
	open   *phase
	// Scrapes after warm-up, after the closed phase, at the end.
	s0, s1, s2 clusterStats
	gcPause    time.Duration // over the timed phases
	liveHeap   uint64        // heap in use after a collection at the end
	spans      []span        // traced passes only
	// problems lists every failed check; empty means the pass is correct.
	// hard counts those that are more than ops left without a 200.
	problems []string
	hard     int
}

// setUp is the part of a pass timed as setup_s: generate the schedule, boot
// the cluster and the reference server, run the warm-up pass, collect. The
// caller closes the pass and the cluster.
func setUp(w *workload, seed int64, seconds float64, rec *recorder, tmpRoot string) (p *pass, cl *cluster, err error) {
	p = &pass{w: w}
	t0 := time.Now()
	sched := buildSchedule(w, seed, seconds)
	if cl, err = startCluster(w, sched.catalog, rec, tmpRoot); err != nil {
		return nil, nil, fmt.Errorf("boot cluster: %w", err)
	}
	if p.eng, err = newEngine(w, sched, cl.nodeAddrs(), cl.cfg.OriginAddr, rec); err != nil {
		cl.Close()
		return nil, nil, err
	}
	if p.ref, err = startReference(seconds); err != nil {
		p.eng.close()
		cl.Close()
		return nil, nil, err
	}
	p.warm = p.eng.run(sched.warm, warmWorkers, false)
	p.ref.block(runtime.GOMAXPROCS(0)) // the reference's warm-up: one block as the closed phase runs them
	runtime.GC()
	p.setup = time.Since(t0)
	return p, cl, nil
}

// close releases the generator's side of a pass.
func (p *pass) close() {
	p.eng.close()
	p.ref.close()
}

// rehearseSetup sets the workload up, tears it down again and returns how
// long the set-up took.
func rehearseSetup(w *workload, seed int64, seconds float64, tmpRoot string) (time.Duration, error) {
	p, cl, err := setUp(w, seed, seconds, nil, tmpRoot)
	if err != nil {
		return 0, err
	}
	p.close()
	cl.Close()
	if n := countNot(p.warm.status, stOK); n > 0 {
		return 0, fmt.Errorf("%d of %d warm-up requests failed", n, len(p.warm.ops))
	}
	return p.setup, nil
}

// runPass boots the workload's cluster, drives it and tears it down.
// Run shape: (1) set-up, timed: generate, boot, warm up, GC; (2) closed
// phase: nproc workers, fixed op count; (3) open phase: arrivals on the
// schedule; (4) quiesce, scrape, check.
func runPass(w *workload, seed int64, seconds float64, traced bool, tmpRoot string) (*pass, error) {
	var rec *recorder
	if traced {
		rec = newRecorder()
	}
	p, cl, err := setUp(w, seed, seconds, rec, tmpRoot)
	if err != nil {
		return nil, err
	}
	defer p.close()
	closeCluster := func() {
		if cl != nil {
			cl.Close()
			cl = nil
		}
	}
	defer closeCluster()
	sched := p.eng.sched

	if rec != nil {
		rec.reset()
	}
	if p.s0, err = p.scrape(cl); err != nil {
		return nil, err
	}
	var gc0, gc1 debug.GCStats
	debug.ReadGCStats(&gc0)
	p.closed = p.eng.runBlocks(sched.closed, runtime.GOMAXPROCS(0), p.ref)
	if p.s1, err = p.scrape(cl); err != nil {
		return nil, err
	}
	p.open = p.eng.run(sched.open, 0, true)
	debug.ReadGCStats(&gc1)
	p.gcPause = gc1.PauseTotal - gc0.PauseTotal
	if p.s2, err = p.scrape(cl); err != nil {
		return nil, err
	}
	var mem runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&mem)
	p.liveHeap = mem.HeapAlloc
	// Closing the servers waits for every handler, so every span is in.
	closeCluster()
	if rec != nil {
		p.spans = rec.spans
	}
	p.check()
	return p, nil
}

func (p *pass) scrape(cl *cluster) (clusterStats, error) {
	st := clusterStats{
		caches:  make([]node.CacheStats, len(cl.names)),
		shields: make([]node.ShieldStats, len(cl.cfg.Shields)),
	}
	for i, pool := range p.eng.nodes {
		if err := p.eng.scrape(pool, &st.caches[i]); err != nil {
			return st, err
		}
	}
	for i, name := range cl.cfg.Shields {
		pool := newWirePool(cl.cfg.ShieldAddrs[name])
		err := p.eng.scrape(pool, &st.shields[i])
		pool.close()
		if err != nil {
			return st, err
		}
	}
	return st, p.eng.scrape(p.eng.origin, &st.origin)
}

// attempted and failed count client ops over all three phases.
func (p *pass) attempted() int64 {
	return int64(len(p.warm.ops) + len(p.closed.ops) + len(p.open.ops))
}

func (p *pass) failed() int64 {
	var n int64
	for _, ph := range []*phase{p.warm, p.closed, p.open} {
		for _, st := range ph.status {
			if st != stOK {
				n++
			}
		}
	}
	return n
}

// check runs the correctness checks of the issue: every op succeeded and
// passed the oracle, and the nodes' own books balance and agree with the
// generator's count.
func (p *pass) check() {
	fail := func(format string, args ...any) { p.problems = append(p.problems, fmt.Sprintf(format, args...)) }
	// Ops that got no 200. A stalled box causes these too (the nodes shed
	// what queues up behind a stall), so on their own they do not keep a
	// pass the generator could not keep its schedule in from being made
	// again: p.hard counts every other failed check.
	var lost []string
	for _, ph := range []struct {
		name string
		*phase
	}{{"warm-up", p.warm}, {"closed", p.closed}, {"open", p.open}} {
		if failed, shed := countIs(ph.status, stFailed), countIs(ph.status, stShed); failed+shed > 0 {
			lost = append(lost, fmt.Sprintf("%s phase: %d failed, %d shed of %d", ph.name, failed, shed, len(ph.ops)))
		}
	}
	if len(lost) > 0 {
		fail("client ops without a 200: %s", strings.Join(lost, "; "))
	}
	soft := len(p.problems)
	for _, r := range p.closed.refs {
		if r.bad > 0 {
			fail("%d requests to the reference server failed", r.bad)
		}
	}
	if orc := p.eng.orc; orc.violations() > 0 {
		fail("oracle: %d wrong key, %d stale served, %d version regressions; first: %s",
			orc.wrongKey.Load(), orc.stale.Load(), orc.regress.Load(), orc.first)
	}
	for i, st := range p.s2.caches {
		if st.Requests != st.Served+st.Shed+st.Failed {
			fail("%s: requests %d != served %d + shed %d + failed %d", st.Node, st.Requests, st.Served, st.Shed, st.Failed)
		}
		if st.LocalHits+st.PeerHits+st.OriginMiss != st.Served {
			fail("%s: local %d + peer %d + origin %d != served %d", st.Node, st.LocalHits, st.PeerHits, st.OriginMiss, st.Served)
		}
		var sent int64
		for t := range tenantIDs {
			sent += p.eng.sent[i][t].Load()
		}
		if st.Requests != sent {
			fail("%s: counted %d requests, generator sent %d", st.Node, st.Requests, sent)
		}
		for t, id := range tenantIDs {
			if !p.w.tenants {
				break
			}
			ts := st.Tenants[id]
			if ts.Requests != ts.Served+ts.Shed+ts.Failed {
				fail("%s tenant %q: requests %d != served %d + shed %d + failed %d", st.Node, id, ts.Requests, ts.Served, ts.Shed, ts.Failed)
			}
			if want := p.eng.sent[i][t].Load(); ts.Requests != want {
				fail("%s tenant %q: counted %d requests, generator sent %d", st.Node, id, ts.Requests, want)
			}
		}
	}
	p.hard = len(p.problems) - soft
}

// refusals names every reason the pass's numbers must not be published:
// the generator, not the cluster, was the bottleneck, or the box is unfit.
func (p *pass) refusals() []string {
	var out []string
	if n := runtime.NumCPU(); n < 2 {
		out = append(out, fmt.Sprintf("nproc is %d: generator and cluster need a CPU each", n))
	}
	if lag, limit := quantileMs(p.genLag(), 0.90), ms(p.w.slo)/10; lag > limit {
		out = append(out, fmt.Sprintf("client.gen_lag_p90_ms %.3f is above a tenth of the %v latency limit: the generator ran late", lag, p.w.slo))
	}
	if n := p.backlogEnd(); n > 0 {
		out = append(out, fmt.Sprintf("client.backlog_end %d: ops were still queued when the open phase ended", n))
	}
	return out
}

// genLag is send - due for every open-phase op, sorted.
func (p *pass) genLag() []int64 {
	lag := make([]int64, len(p.open.ops))
	for i, o := range p.open.ops {
		lag[i] = p.open.send[i] - int64(o.due)
	}
	slices.Sort(lag)
	return lag
}

// backlogEnd counts ops not yet sent when the open phase's schedule ended.
func (p *pass) backlogEnd() int64 {
	var n int64
	for _, s := range p.open.send {
		if s > int64(p.eng.sched.openDur) {
			n++
		}
	}
	return n
}

var errRefused = errors.New("refusing to publish")
