package simnet

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"cachecloud/internal/document"
	"cachecloud/internal/node"
	"cachecloud/internal/node/chaos"
	"cachecloud/internal/obs"
	"cachecloud/internal/tenant"
)

// The cluster's fixed settings: the intra-ring hash generator, the node
// heartbeat interval in virtual time, and how many missed beats declare a
// node dead.
const (
	intraGen  = 64
	heartbeat = 500 * time.Millisecond
	missK     = 3
)

// Config parameterises one simulation run. The zero value of every field
// selects the default noted on it.
type Config struct {
	// Seed drives the schedule generator, the load/publish choices, and
	// the chaos network's coin flips. Same seed → byte-identical run.
	Seed int64
	// Nodes is the cluster size (default 4; must be a multiple of
	// RingSize for even rings).
	Nodes int
	// RingSize is the number of beacon points per ring (default 2).
	RingSize int
	// Docs is the catalog size (default 40).
	Docs int
	// Rounds is the number of crash/recover rounds the generator emits
	// (default 3).
	Rounds int
	// Schedule overrides the generated schedule when non-nil (replay and
	// minimization).
	Schedule []Event
	// Inject enables a deliberate bug for harness self-tests. Supported:
	// "heartbeat-undercount" (heartbeats under-report RecordsHeld by one,
	// which the accounting invariant must catch), "supdate-stale" (the
	// cross-tier fan-out invariant), "sfetch-stale" (a shield's reply to a
	// fetch carries a decremented version, which the per-/sfetch staleness
	// sandwich must catch), "supdate-held-lost" (a shield's reply
	// to an update says it holds no copy, which the per-shield delivery
	// invariant must catch) and "deregister-lost" (batched drops arrive
	// empty, which the no-phantom invariant must catch).
	Inject string
	// Warm gives every node a durable store and switches the generated
	// schedule's recovery phase to warm restarts (heal-warm + check-warm
	// with the origin-fetch bound invariant).
	Warm bool
	// Shields interposes a shield tier of that many caches between the
	// cloud and the origin: cloud misses resolve cloud → shield → origin,
	// publishes fan origin → shield → subscribed clouds, and purges carry a
	// global/cloud scope. The generated schedule gains a shield-tier fault
	// phase per round and the cross-tier invariants (one update per shield
	// that may hold the document and none to a shield skipped, scoped-purge
	// completeness, shield freshness at quiescent points, the staleness
	// sandwich on every /sfetch reply) are armed. 0 (the default) is
	// single-tier.
	Shields int
	// Tenants, when positive, registers that many tenants (t0, t1, …)
	// with deterministic weighted quotas, adds a tenant-storm phase to
	// every generated round, and arms the multi-tenant invariants: every
	// tenant's resident bytes stay within its byte quota on every node
	// after every event, per-tenant conservation is exact, and a
	// zero-weight tenant is shed entirely. 0 (the default) is
	// single-tenant and byte-identical to previous runs.
	Tenants int
	// StoreDir is the durable-tier directory root for the run. Empty with
	// Warm set (or a schedule containing heal-warm events) creates a
	// temporary directory that is removed when the run ends.
	StoreDir string
	// Tracer, when non-nil, receives EvSimFault for every injected fault
	// and EvInvariant for every invariant evaluation (Count = violations),
	// stamped with virtual-time milliseconds so traces stay deterministic.
	Tracer *obs.Tracer
}

func (c *Config) defaults() {
	if c.Nodes <= 0 {
		c.Nodes = 4
	}
	if c.RingSize <= 0 {
		c.RingSize = 2
	}
	if c.Docs <= 0 {
		c.Docs = 40
	}
	if c.Rounds <= 0 {
		c.Rounds = 3
	}
}

// Result is the outcome of one simulation run.
type Result struct {
	Seed     int64
	Schedule []Event
	// Log is the deterministic event log: one line per executed event and
	// invariant outcome. Identical across runs of the same Config.
	Log string
	// Failures lists every invariant violation, in order.
	Failures []string
}

// Failed reports whether any invariant was violated.
func (r Result) Failed() bool { return len(r.Failures) > 0 }

// sim is the mutable state of one run.
type sim struct {
	cfg    Config
	clock  *VirtualClock
	base   time.Time
	mem    *memNet
	net    *chaos.Network
	rng    *rand.Rand // load/publish choices (separate from chaos coin)
	origin *node.OriginNode
	caches map[string]*node.CacheNode
	names  []string
	docs   []document.Document
	// tenantNames are the registered tenant IDs (multi-tenant runs only);
	// tenantQuotas is the quota table nodes were configured with, retained
	// for the per-event byte-quota invariant.
	tenantNames  []string
	tenantQuotas map[string]tenant.Quota
	// Shield-tier state (two-tier runs only). shieldDown tracks crashed
	// shields; shieldsStale is armed when a publish or purge lands while
	// the tier is impaired (or a cloud fetched around it, detected via the
	// degraded-counter delta) and cleared by a reconcile with the whole
	// hierarchy healthy — the strict cross-tier checks only run between a
	// clearing reconcile and the next impairment.
	shields      map[string]*node.ShieldNode
	shieldNames  []string
	shieldDown   map[string]bool
	shieldsStale bool
	degraded0    int64
	client       interface {
		GetJSON(ctx context.Context, url string, out any) error
		PostJSON(ctx context.Context, url string, in, out any) error
	}
	stops []func()
	// clcfg is the cluster config nodes were built from, retained so a
	// warm heal can construct a replacement node over the same store
	// directory. hbStops tracks each node's heartbeat loop so the
	// replacement can take over the name cleanly.
	clcfg   node.ClusterConfig
	hbStops map[string]func()

	tracer *obs.Tracer

	partitioned  map[string]bool
	dropPermille int
	pendingCrash *crashLedger
	pendingWarm  *warmLedger
	// settled is true from a reconcile pass on a fault-free network until
	// the next event that can change a holder list: the window in which
	// holder lists must be exact, not merely supersets.
	settled bool

	lines    []string
	failures []string
}

// crashLedger is the white-box accounting snapshot taken at a crash.
type crashLedger struct {
	victim  string
	expect  int   // records the victim held when partitioned
	lost0   int64 // origin RecordsLost before the crash
	rec0    int64 // origin RecordsRecovered before the crash
	stored0 int   // documents the victim stored (log context)
}

// warmLedger is the white-box snapshot taken at a warm heal, consumed by
// the check-warm invariant.
type warmLedger struct {
	victim    string
	recovered int // entries the replacement node booted from the log
	kept      int // recovered copies the beacons confirmed fresh
	dropped   int // recovered copies ruled stale and tombstoned
	published int // publishes inside the warm window (slack for the bound)
}

// Run executes one simulation: build the cluster on a virtual clock and
// an in-memory transport, execute the (generated or supplied) fault
// schedule, and check invariants between events.
func Run(cfg Config) (Result, error) {
	cfg.defaults()

	schedule := cfg.Schedule
	if schedule == nil {
		schedule = Generate(cfg.Seed, GenConfig{
			Nodes: cfg.Nodes, Rounds: cfg.Rounds,
			Warm: cfg.Warm, Shields: cfg.Shields, Tenants: cfg.Tenants,
		})
	}
	// A warm run (or a replayed schedule with heal-warm events) needs a
	// durable store directory; create a throwaway one when none was given.
	if cfg.StoreDir == "" && (cfg.Warm || hasWarmEvents(schedule)) {
		dir, err := os.MkdirTemp("", "simnet-warm-")
		if err != nil {
			return Result{}, fmt.Errorf("simnet: temp store dir: %w", err)
		}
		defer func() { _ = os.RemoveAll(dir) }()
		cfg.StoreDir = dir
	}

	s := &sim{
		cfg:         cfg,
		clock:       NewVirtualClock(),
		mem:         newMemNet(),
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		caches:      make(map[string]*node.CacheNode),
		shields:     make(map[string]*node.ShieldNode),
		shieldDown:  make(map[string]bool),
		hbStops:     make(map[string]func()),
		partitioned: make(map[string]bool),
		tracer:      cfg.Tracer,
	}
	s.base = s.clock.Now()
	if err := s.build(); err != nil {
		return Result{}, err
	}
	defer s.stop()
	for _, ev := range schedule {
		s.clock.RunUntil(s.base.Add(ev.At))
		s.checkPartitionInvariant("pre:" + string(ev.Kind))
		s.checkTenantQuotaInvariant("pre:" + string(ev.Kind))
		s.exec(ev)
		s.checkPartitionInvariant("post:" + string(ev.Kind))
		s.checkTenantQuotaInvariant("post:" + string(ev.Kind))
	}
	return Result{
		Seed:     cfg.Seed,
		Schedule: schedule,
		Log:      strings.Join(s.lines, "\n") + "\n",
		Failures: s.failures,
	}, nil
}

// build wires the cluster: every node's production handler bound on the
// in-memory network, outbound calls through the shared chaos fault plane,
// heartbeats and the origin failure detector running on the virtual
// clock.
func (s *sim) build() error {
	cfg := s.cfg
	s.net = chaos.NewNetwork(chaos.Config{Seed: cfg.Seed})
	if cfg.Inject != "" {
		hook, err := injectHook(cfg.Inject)
		if err != nil {
			return err
		}
		s.mem.setCorrupt(hook)
	}

	clcfg := node.ClusterConfig{
		IntraGen: intraGen,
		Addrs:    make(map[string]string, cfg.Nodes),
		Clock:    s.clock,
		// Warm runs give every node a durable tier. Fsync is off: the
		// harness models crash-by-partition (the process survives), so the
		// log is always flushed by Close before a replacement reopens it.
		StoreDir: cfg.StoreDir,
		Fsync:    "never",
		Tracer:   cfg.Tracer,
	}
	for i := 0; i < cfg.Nodes; i++ {
		name := fmt.Sprintf("n%d", i)
		s.names = append(s.names, name)
		clcfg.Addrs[name] = fmt.Sprintf("http://%s.sim", name)
	}
	// The shield config is part of clcfg before any cache node is built:
	// the nodes' shield routers derive the failover ring from it.
	if cfg.Shields > 0 {
		clcfg.Shields = make([]string, cfg.Shields)
		clcfg.ShieldAddrs = make(map[string]string, cfg.Shields)
		for i := 0; i < cfg.Shields; i++ {
			name := fmt.Sprintf("s%d", i)
			clcfg.Shields[i] = name
			s.shieldNames = append(s.shieldNames, name)
			clcfg.ShieldAddrs[name] = fmt.Sprintf("http://%s.sim", name)
		}
	}
	// Tenant registration happens in clcfg before any node is built so
	// every node boots with the same quota table. Weights alternate, the
	// byte quotas step up per tenant (all smaller than the catalog so
	// tenant-fair eviction actually engages), and runs with at least three
	// tenants get one zero-weight tenant whose every request must shed.
	if cfg.Tenants > 0 {
		clcfg.Tenants = make(map[string]tenant.Quota, cfg.Tenants)
		for i := 0; i < cfg.Tenants; i++ {
			name := fmt.Sprintf("t%d", i)
			w := 1 + i%2
			if cfg.Tenants >= 3 && i == cfg.Tenants-1 {
				w = 0
			}
			clcfg.Tenants[name] = tenant.Quota{Weight: w, Bytes: int64(2500 + 1500*i)}
			s.tenantNames = append(s.tenantNames, name)
		}
		s.tenantQuotas = clcfg.Tenants
	}
	numRings := cfg.Nodes / cfg.RingSize
	if numRings < 1 {
		numRings = 1
	}
	clcfg.Rings = make([][]string, numRings)
	for i, name := range s.names {
		r := i % numRings
		clcfg.Rings[r] = append(clcfg.Rings[r], name)
	}
	clcfg.OriginAddr = "http://origin.sim"

	s.docs = make([]document.Document, cfg.Docs)
	for i := range s.docs {
		s.docs[i] = document.Document{URL: fmt.Sprintf("http://cloud/doc/%03d", i), Size: int64(1000 + i)}
	}

	for _, name := range s.shieldNames {
		sn, err := node.NewShieldNodeWithTransport(name, clcfg, s.net.Transport(name, s.mem.transport()))
		if err != nil {
			return err
		}
		s.shields[name] = sn
		s.mem.bindHandler(clcfg.ShieldAddrs[name], sn.Handler())
		s.net.Bind(name, clcfg.ShieldAddrs[name])
	}
	for _, name := range s.names {
		cn, err := node.NewCacheNodeWithTransport(name, clcfg, s.net.Transport(name, s.mem.transport()))
		if err != nil {
			return err
		}
		s.caches[name] = cn
		s.mem.bindHandler(clcfg.Addrs[name], cn.Handler())
		s.net.Bind(name, clcfg.Addrs[name])
	}
	on, err := node.NewOriginNodeWithTransport(clcfg, s.docs, s.net.Transport("origin", s.mem.transport()))
	if err != nil {
		return err
	}
	s.origin = on
	s.mem.check = s.checkSfetch
	s.mem.bindHandler(clcfg.OriginAddr, on.Handler())
	s.net.Bind("origin", clcfg.OriginAddr)
	s.client = s.net.Transport("client", s.mem.transport())

	s.clcfg = clcfg

	// Periodic machinery on the virtual clock, started in fixed order so
	// the timer queue is identical across runs. Heartbeat stops are keyed
	// by name so a warm heal can stop the old node's loop and install the
	// replacement's.
	for _, name := range s.names {
		s.hbStops[name] = s.caches[name].StartHeartbeat(heartbeat)
	}
	s.stops = append(s.stops, s.origin.StartFailureDetector(heartbeat, missK))
	return nil
}

func (s *sim) stop() {
	for _, stop := range s.hbStops {
		stop()
	}
	for _, stop := range s.stops {
		stop()
	}
	for _, name := range s.names {
		_ = s.caches[name].Close()
	}
	for _, name := range s.shieldNames {
		_ = s.shields[name].Close()
	}
}

// hasWarmEvents reports whether a schedule contains warm-restart events
// (which require a store directory).
func hasWarmEvents(evs []Event) bool {
	for _, ev := range evs {
		if ev.Kind == EvHealWarm || ev.Kind == EvCheckWarm {
			return true
		}
	}
	return false
}

// injectHook resolves a named deliberate bug to its wire-corruption hook.
func injectHook(name string) (wireHook, error) {
	switch name {
	case "heartbeat-undercount":
		return wireHook{req: rewrite("POST /heartbeat", func(hb *node.HeartbeatRequest) bool {
			if hb.RecordsHeld == 0 {
				return false
			}
			hb.RecordsHeld--
			return true
		})}, nil
	case "supdate-stale":
		// Origin→shield update pushes carry a decremented version, so the
		// shield tier silently serves stale documents — the cross-tier
		// fan-out invariant must catch it.
		return wireHook{req: rewrite("POST /supdate", func(ur *node.UpdateRequest) bool {
			if ur.Doc.Version == 0 {
				return false
			}
			ur.Doc.Version--
			return true
		})}, nil
	case "sfetch-stale":
		// A shield's answer to a cloud's fetch carries a decremented version,
		// which can fall below the version the cloud already has — the
		// per-exchange staleness sandwich must catch it.
		return wireHook{reply: rewrite("GET /sfetch", func(sr *node.ShieldFetchResponse) bool {
			if sr.Doc.Version == 0 {
				return false
			}
			sr.Doc.Version--
			return true
		})}, nil
	case "supdate-held-lost":
		// A shield's answer to an update says it holds no copy when it does,
		// so the origin skips that shield from then on although it has a
		// copy — the per-shield delivery invariant must catch it.
		return wireHook{reply: rewrite("POST /supdate", func(sur *node.ShieldUpdateResponse) bool {
			if !sur.Held {
				return false
			}
			sur.Held = false
			return true
		})}, nil
	case "deregister-lost":
		// Batched drops arrive empty, so a holder entry that only a flush
		// could clear survives the settle pass — the no-phantom invariant
		// must catch it.
		return wireHook{req: rewrite("POST /deregister", func(req *node.DeregisterRequest) bool {
			req.URLs = nil
			return true
		})}, nil
	default:
		return wireHook{}, fmt.Errorf("simnet: unknown injection %q", name)
	}
}

// rewrite is a corruption hook on the JSON bodies of route, a method and a
// path ("POST /heartbeat"): mutate changes the decoded body and reports
// whether the result is to be sent.
func rewrite[T any](route string, mutate func(*T) bool) func(method, path string, body []byte) []byte {
	return func(method, path string, body []byte) []byte {
		if method+" "+path != route {
			return nil
		}
		var v T
		if json.Unmarshal(body, &v) != nil || !mutate(&v) {
			return nil
		}
		mutated, err := json.Marshal(v)
		if err != nil {
			return nil
		}
		return mutated
	}
}

// vt renders the current virtual offset for log lines.
func (s *sim) vt() string { return s.clock.Now().Sub(s.base).String() }

func (s *sim) logf(format string, args ...any) {
	s.lines = append(s.lines, fmt.Sprintf("t=%s ", s.vt())+fmt.Sprintf(format, args...))
}

func (s *sim) failf(format string, args ...any) {
	msg := fmt.Sprintf("t=%s ", s.vt()) + fmt.Sprintf(format, args...)
	s.failures = append(s.failures, msg)
	s.lines = append(s.lines, "FAIL "+msg)
}

// traceFault emits an EvSimFault protocol event when tracing is on.
func (s *sim) traceFault(nodeName string, n int64) {
	if s.tracer == nil {
		return
	}
	s.tracer.Emit(obs.Event{
		Time: int64(s.clock.Now().Sub(s.base) / time.Millisecond),
		Kind: obs.EvSimFault, Node: nodeName, Count: n,
	})
}

// traceInvariant emits an EvInvariant event carrying the number of new
// violations this evaluation produced. Designed for defer:
// `defer s.traceInvariant("accounting", len(s.failures))`.
func (s *sim) traceInvariant(name string, before int) {
	if s.tracer == nil {
		return
	}
	s.tracer.Emit(obs.Event{
		Time: int64(s.clock.Now().Sub(s.base) / time.Millisecond),
		Kind: obs.EvInvariant, Node: name, Count: int64(len(s.failures) - before),
	})
}

// clean reports whether the network is currently fault-free (no
// partitions, no drop window) — the condition under which the strict
// per-publish fan-out check is valid.
func (s *sim) clean() bool { return len(s.partitioned) == 0 && s.dropPermille == 0 }

// livePeers returns the cache names not currently partitioned, sorted.
func (s *sim) livePeers() []string {
	out := make([]string, 0, len(s.names))
	for _, name := range s.names {
		if !s.partitioned[name] {
			out = append(out, name)
		}
	}
	return out
}

// liveShields returns the shield names not currently crashed, sorted.
func (s *sim) liveShields() []string {
	out := make([]string, 0, len(s.shieldNames))
	for _, name := range s.shieldNames {
		if !s.shieldDown[name] {
			out = append(out, name)
		}
	}
	return out
}

// degradedTotal sums the clouds' shield-bypass counters: a non-zero delta
// since the last healthy reconcile means some copy was fetched straight
// from the origin and carries no shield subscription.
func (s *sim) degradedTotal() int64 {
	var total int64
	for _, name := range s.names {
		total += s.caches[name].ShieldDegraded()
	}
	return total
}

// shieldsOK reports whether the strict cross-tier checks are valid right
// now: shields configured, clean network, full shield tier live, and no
// unrepaired staleness. A fresh degraded-fetch delta is folded in here —
// it arms shieldsStale exactly like an impaired-tier publish would.
func (s *sim) shieldsOK() bool {
	if len(s.shieldNames) == 0 {
		return false
	}
	if d := s.degradedTotal(); d != s.degraded0 {
		s.degraded0 = d
		s.shieldsStale = true
	}
	return s.clean() && len(s.shieldDown) == 0 && !s.shieldsStale
}

// exec runs one schedule event.
func (s *sim) exec(ev Event) {
	switch ev.Kind {
	case EvCheck, EvCheckAccounting, EvCheckWarm:
	default:
		s.settled = false
	}
	switch ev.Kind {
	case EvLoad:
		s.execLoad(ev.N)
	case EvPublish:
		s.execPublish(ev.N)
	case EvReplicate:
		nodes, err := s.origin.TriggerReplication()
		s.logf("replicate nodes=%d err=%v", nodes, err != nil)
	case EvRebalance:
		resp, err := s.origin.Rebalance()
		s.logf("rebalance moves=%d err=%v", resp.Moves, err != nil)
	case EvCrash:
		s.execCrash(ev.Node)
	case EvHeal:
		delete(s.partitioned, ev.Node)
		s.net.Heal(ev.Node)
		s.traceFault(ev.Node, 0)
		s.logf("heal node=%s", ev.Node)
	case EvHealWarm:
		s.execHealWarm(ev.Node)
	case EvCheckWarm:
		s.execCheckWarm(ev.Node)
	case EvDrop:
		s.dropPermille = ev.N
		s.net.SetDropProb(float64(ev.N) / 1000)
		s.traceFault("", int64(ev.N))
		s.logf("drop permille=%d", ev.N)
	case EvReconcile:
		s.execReconcile()
	case EvBurst:
		entry := s.names[s.rng.Intn(len(s.names))]
		s.execStorm("burst", entry, ev.N, func() document.Document {
			return s.docs[s.rng.Intn(len(s.docs))]
		})
	case EvHotDoc:
		hot := s.docs[s.rng.Intn(len(s.docs))]
		s.execStorm("hotdoc", "", ev.N, func() document.Document { return hot })
	case EvCheckAccounting:
		s.checkAccounting(ev.Node)
	case EvCheck:
		s.checkQuiescent()
	case EvShieldCrash:
		s.execShieldCrash(ev.Node)
	case EvShieldHeal:
		delete(s.shieldDown, ev.Node)
		s.net.Heal(ev.Node)
		s.traceFault(ev.Node, 0)
		s.logf("shield-heal node=%s", ev.Node)
	case EvPurgeScoped:
		s.execPurge(node.PurgeScopeCloud)
	case EvPurgeGlobal:
		s.execPurge(node.PurgeScopeGlobal)
	case EvTenantStorm:
		s.execTenantStorm(ev.N)
	default:
		s.failf("unknown event kind %q", ev.Kind)
	}
}

// execLoad performs n client requests against seeded entry nodes.
func (s *sim) execLoad(n int) {
	ok, failed, degraded, failedOver := 0, 0, 0, 0
	for i := 0; i < n; i++ {
		entry := s.names[s.rng.Intn(len(s.names))]
		doc := s.docs[s.rng.Intn(len(s.docs))]
		target := fmt.Sprintf("http://%s.sim/doc?url=%s", entry, url.QueryEscape(doc.URL))
		var dr node.DocResponse
		if err := s.client.GetJSON(context.Background(), target, &dr); err != nil {
			failed++
			continue
		}
		ok++
		if dr.Degraded {
			degraded++
		}
		if dr.FailedOver {
			failedOver++
		}
	}
	s.logf("load n=%d ok=%d failed=%d degraded=%d failedover=%d", n, ok, failed, degraded, failedOver)
}

// execPublish publishes n seeded updates through the origin. In a clean
// network the fan-out invariant is checked per publish: every holder the
// beacon still lists must store exactly the published version. With a
// shield tier the publish resolves origin → shields → subscribed clouds,
// and the healthy-tier checks add delivery per shield on top of the
// cross-tier fan-out: every shield is either notified or skipped, one
// notified receives exactly one /supdate (regardless of how many clouds
// subscribe), one skipped receives none and holds no copy.
func (s *sim) execPublish(n int) {
	for i := 0; i < n; i++ {
		doc := s.docs[s.rng.Intn(len(s.docs))]
		shieldMode := len(s.shieldNames) > 0
		strict := false
		var updates0 map[string]int64
		if shieldMode {
			strict = s.shieldsOK()
			if strict {
				updates0 = make(map[string]int64, len(s.shieldNames))
				for _, name := range s.shieldNames {
					updates0[name] = s.shields[name].UpdatesIn()
				}
			}
		}
		var pr node.PublishResponse
		err := s.client.PostJSON(context.Background(), "http://origin.sim/publish", node.PublishRequest{URL: doc.URL}, &pr)
		if shieldMode && !strict {
			// The update may have missed a crashed shield (or raced a fault
			// window); its subscribers stay stale until the next reconcile.
			s.shieldsStale = true
		}
		if err != nil {
			s.logf("publish url=%s err=true", doc.URL)
			if shieldMode {
				s.shieldsStale = true
			}
			continue
		}
		if shieldMode {
			s.logf("publish url=%s version=%d notified=%d shields=%d skipped=%d",
				doc.URL, pr.Version, pr.Notified, pr.ShieldsNotified, pr.ShieldsSkipped)
		} else {
			s.logf("publish url=%s version=%d notified=%d", doc.URL, pr.Version, pr.Notified)
		}
		if s.pendingWarm != nil {
			// Publishes inside the warm window are legitimate slack for the
			// origin-fetch bound (a refreshed document may miss everywhere).
			s.pendingWarm.published++
		}
		switch {
		case strict:
			if n := pr.ShieldsNotified + pr.ShieldsSkipped; n != len(s.shieldNames) {
				s.failf("publish %s: %d shields notified + %d skipped, of %d on a healthy tier",
					doc.URL, pr.ShieldsNotified, pr.ShieldsSkipped, len(s.shieldNames))
			}
			reached := 0
			for _, name := range s.shieldNames {
				switch d := s.shields[name].UpdatesIn() - updates0[name]; d {
				case 1:
					reached++
				case 0:
					if v, held := s.shields[name].HeldVersions()[doc.URL]; held {
						s.failf("publish %s: shield %s was skipped holding version %d", doc.URL, name, v)
					}
				default:
					s.failf("publish %s: shield %s received %d updates, want at most one", doc.URL, name, d)
				}
			}
			if reached != pr.ShieldsNotified {
				s.failf("publish %s: %d shields received the update, %d reported notified",
					doc.URL, reached, pr.ShieldsNotified)
			}
			s.checkShieldFanout(doc.URL, pr.Version)
		case !shieldMode && s.clean():
			s.checkFanout(doc.URL, pr.Version)
		}
	}
}

// checkShieldFanout verifies one healthy-tier publish end to end: every
// shield still holding the URL serves exactly the published version, and
// the cloud-side fan-out (beacon record + holders) matches it too. A
// missing beacon record is vacuous (the document was never fetched or was
// purged); an empty holder list skips the version comparison because the
// shield prunes a cloud's subscription when a fan-out finds no holders
// left.
func (s *sim) checkShieldFanout(docURL string, version document.Version) {
	for _, name := range s.shieldNames {
		if v, held := s.shields[name].HeldVersions()[docURL]; held && v != version {
			s.failf("shieldfanout %s: shield %s serves version %d, published %d", docURL, name, v, version)
		}
	}
	owner, err := s.origin.Assignments().Owner(docURL, intraGen)
	if err != nil {
		s.failf("shieldfanout %s: no owner: %v", docURL, err)
		return
	}
	rec, ok := findRecord(s.caches[owner].Records(), docURL)
	if !ok {
		return // never fetched, or purged: no cloud fan-out expected
	}
	if len(rec.Holders) == 0 {
		return // subscription pruned with the last holder
	}
	if rec.Version != version {
		s.failf("shieldfanout %s: beacon %s at version %d, published %d", docURL, owner, rec.Version, version)
	}
	for _, h := range rec.Holders {
		cn, ok := s.caches[h]
		if !ok {
			s.failf("shieldfanout %s: beacon %s lists unknown holder %s", docURL, owner, h)
			continue
		}
		if v, stored := cn.StoredVersions()[docURL]; !stored || v != version {
			s.failf("shieldfanout %s: holder %s stores version %d (stored=%v), published %d",
				docURL, h, v, stored, version)
		}
	}
}

// execShieldCrash partitions one shield away from everyone. Cloud fetches
// fail over along the shield ring; the strict cross-tier checks stand
// down until the shield heals and a reconcile repairs what it missed.
func (s *sim) execShieldCrash(victim string) {
	sn, ok := s.shields[victim]
	if !ok {
		s.failf("shield-crash: unknown shield %q", victim)
		return
	}
	held := len(sn.HeldVersions())
	s.shieldDown[victim] = true
	s.net.Kill(victim)
	s.traceFault(victim, int64(held))
	s.logf("shield-crash node=%s held=%d", victim, held)
}

// execPurge invalidates one seeded document through the origin. Global
// scope must empty both tiers (the origin bumps the URL's purge
// generation so a crashed shield catches up at reconcile); cloud scope
// drops the edge copies while shields keep theirs. Completeness is
// checked immediately when the whole hierarchy is reachable; copies are
// the unit of completeness — a beacon lookup record minted by a shed
// fetch may legitimately survive with no holders and no subscription.
func (s *sim) execPurge(scope string) {
	doc := s.docs[s.rng.Intn(len(s.docs))]
	shieldMode := len(s.shieldNames) > 0
	strict := false
	if shieldMode {
		strict = s.shieldsOK()
	} else {
		strict = s.clean()
	}
	req := node.PurgeRequest{URL: doc.URL, Scope: scope}
	if scope == node.PurgeScopeCloud {
		req.Cloud = "cloud0"
	}
	var pr node.PurgeResponse
	err := s.client.PostJSON(context.Background(), "http://origin.sim/purge", req, &pr)
	if err != nil {
		s.logf("purge url=%s scope=%s err=true", doc.URL, scope)
		if shieldMode {
			s.shieldsStale = true
		}
		return
	}
	s.logf("purge url=%s scope=%s shields=%d dropped=%d", doc.URL, scope, pr.ShieldsNotified, pr.Dropped)
	if !strict {
		if shieldMode {
			// A crashed shield may still hold the copy (and its subscribers'
			// edge copies survive a cloud-scoped purge); repaired at the next
			// reconcile via the purge generation.
			s.shieldsStale = true
		}
		return
	}
	defer s.traceInvariant("purge", len(s.failures))
	for _, name := range s.names {
		if _, stored := s.caches[name].StoredVersions()[doc.URL]; stored {
			s.failf("purge[%s] %s: cache %s still stores a copy", scope, doc.URL, name)
		}
	}
	if scope == node.PurgeScopeGlobal {
		for _, name := range s.shieldNames {
			if _, held := s.shields[name].HeldVersions()[doc.URL]; held {
				s.failf("purge[global] %s: shield %s still holds a copy", doc.URL, name)
			}
		}
	}
}

// execCrash partitions the victim and snapshots the accounting ledger.
func (s *sim) execCrash(victim string) {
	cn, ok := s.caches[victim]
	if !ok {
		s.failf("crash: unknown node %q", victim)
		return
	}
	expect := 0 // the records a crash loses: those that are not empty
	for _, wr := range cn.Records() {
		if !wr.Empty() {
			expect++
		}
	}
	stats := s.origin.Stats()
	s.pendingCrash = &crashLedger{
		victim:  victim,
		expect:  expect,
		lost0:   stats.RecordsLost,
		rec0:    stats.RecordsRecovered,
		stored0: len(cn.StoredVersions()),
	}
	s.partitioned[victim] = true
	s.net.Kill(victim)
	s.traceFault(victim, int64(s.pendingCrash.expect))
	s.logf("crash node=%s records=%d stored=%d", victim, s.pendingCrash.expect, s.pendingCrash.stored0)
}

// admissionTotals folds every node's overload-layer snapshot into one
// (partitioned nodes included: they are still in-process and their
// counters must stay consistent).
func (s *sim) admissionTotals() node.AdmissionStats {
	var out node.AdmissionStats
	for _, name := range s.names {
		st := s.caches[name].Admission()
		out.Requests += st.Requests
		out.Served += st.Served
		out.Shed += st.Shed
		out.Failed += st.Failed
		out.OriginFetches += st.OriginFetches
		out.Coalesced += st.Coalesced
	}
	return out
}

// execStorm drives one overload event (burst: seeded docs at a fixed
// entry; hotdoc: one doc across seeded entries) and checks the overload
// conservation invariant on the counter deltas: every request that
// reached a node is exactly one of served, shed, or failed. On a clean
// network it additionally requires all n offered requests to arrive,
// zero failures (sheds are deliberate, failures are not), and positive
// goodput — shedding may be partial but never a full outage.
func (s *sim) execStorm(kind, entry string, n int, pick func() document.Document) {
	defer s.traceInvariant(kind, len(s.failures))
	before := s.admissionTotals()
	ok, failed := 0, 0
	for i := 0; i < n; i++ {
		e := entry
		if e == "" {
			e = s.names[s.rng.Intn(len(s.names))]
		}
		doc := pick()
		target := fmt.Sprintf("http://%s.sim/doc?url=%s", e, url.QueryEscape(doc.URL))
		var dr node.DocResponse
		if err := s.client.GetJSON(context.Background(), target, &dr); err != nil {
			failed++
			continue
		}
		ok++
	}
	after := s.admissionTotals()
	dReq := after.Requests - before.Requests
	dServed := after.Served - before.Served
	dShed := after.Shed - before.Shed
	dFailed := after.Failed - before.Failed
	s.logf("%s entry=%s n=%d ok=%d failed=%d req=%d served=%d shed=%d nodefailed=%d coalesced=%d",
		kind, entry, n, ok, failed, dReq, dServed, dShed, dFailed,
		after.Coalesced-before.Coalesced)
	if dServed+dShed+dFailed != dReq {
		s.failf("%s conservation: served %d + shed %d + failed %d != requests %d",
			kind, dServed, dShed, dFailed, dReq)
	}
	if s.clean() {
		if dReq != int64(n) {
			s.failf("%s: %d of %d offered requests reached a node on a clean network", kind, dReq, n)
		}
		if dFailed != 0 {
			s.failf("%s: %d node-side failures on a clean network (must shed, not error)", kind, dFailed)
		}
		if n > 0 && dServed == 0 {
			s.failf("%s: goodput collapsed to zero (shed=%d of %d)", kind, dShed, n)
		}
	}
}

// tenantTotals folds every node's per-tenant snapshot into one table
// (partitioned nodes included: they are still in-process and their
// counters must stay consistent).
func (s *sim) tenantTotals() map[string]node.TenantStats {
	out := make(map[string]node.TenantStats, len(s.tenantNames))
	for _, name := range s.names {
		for tid, ts := range s.caches[name].TenantAdmission() {
			agg := out[tid]
			agg.Requests += ts.Requests
			agg.Served += ts.Served
			agg.Shed += ts.Shed
			agg.Failed += ts.Failed
			out[tid] = agg
		}
	}
	return out
}

// execTenantStorm drives n client requests spread over seeded tenants,
// entry nodes, and documents, and checks the multi-tenant conservation
// laws on the counter deltas: per tenant, every request that reached a
// node is exactly one of served, shed, or failed; on a clean network all
// n offered requests arrive and a zero-weight tenant is shed entirely
// (its weighted fair share is zero, so its requests never displace
// anyone else's).
func (s *sim) execTenantStorm(n int) {
	if len(s.tenantNames) == 0 {
		s.failf("tenant-storm: no tenants configured (run without Tenants?)")
		return
	}
	defer s.traceInvariant("tenant-storm", len(s.failures))
	before := s.tenantTotals()
	ok, failed := 0, 0
	for i := 0; i < n; i++ {
		tid := s.tenantNames[s.rng.Intn(len(s.tenantNames))]
		entry := s.names[s.rng.Intn(len(s.names))]
		doc := s.docs[s.rng.Intn(len(s.docs))]
		target := fmt.Sprintf("http://%s.sim/doc?url=%s", entry, url.QueryEscape(doc.URL))
		var dr node.DocResponse
		if err := s.client.GetJSON(node.WithTenant(context.Background(), tid), target, &dr); err != nil {
			failed++
			continue
		}
		ok++
	}
	after := s.tenantTotals()
	var dReq, dServed, dShed, dFailed int64
	var perTenant []string
	for _, tid := range s.tenantNames {
		b, a := before[tid], after[tid]
		req := a.Requests - b.Requests
		served := a.Served - b.Served
		shed := a.Shed - b.Shed
		nodeFailed := a.Failed - b.Failed
		dReq += req
		dServed += served
		dShed += shed
		dFailed += nodeFailed
		perTenant = append(perTenant, fmt.Sprintf("%s:%d/%d/%d/%d", tid, req, served, shed, nodeFailed))
		if served+shed+nodeFailed != req {
			s.failf("tenant-storm: tenant %s served %d + shed %d + failed %d != requests %d",
				tid, served, shed, nodeFailed, req)
		}
		if s.tenantQuotas[tid].Weight == 0 && served != 0 {
			s.failf("tenant-storm: zero-weight tenant %s was served %d requests", tid, served)
		}
	}
	s.logf("tenant-storm n=%d ok=%d failed=%d req=%d served=%d shed=%d nodefailed=%d tenants=[%s]",
		n, ok, failed, dReq, dServed, dShed, dFailed, strings.Join(perTenant, " "))
	if s.clean() {
		if dReq != int64(n) {
			s.failf("tenant-storm: %d of %d offered requests reached a node on a clean network", dReq, n)
		}
		if dFailed != 0 {
			s.failf("tenant-storm: %d node-side failures on a clean network (must shed, not error)", dFailed)
		}
	}
}

// checkTenantQuotaInvariant verifies the always-true multi-tenant law
// before and after every event: on every node (partitioned ones
// included), every registered tenant's resident cache bytes stay within
// its byte quota — an aggressor's flash crowd, a publish fan-out grow,
// or a durable replay must never push a tenant past its envelope.
func (s *sim) checkTenantQuotaInvariant(where string) {
	if len(s.tenantNames) == 0 {
		return
	}
	defer s.traceInvariant("tenant-quota", len(s.failures))
	for _, name := range s.names {
		stats := s.caches[name].TenantAdmission()
		for _, tid := range s.tenantNames {
			q := s.tenantQuotas[tid]
			if q.Bytes <= 0 {
				continue
			}
			if rb := stats[tid].ResidentBytes; rb > q.Bytes {
				s.failf("tenant-quota[%s]: %s holds %d resident bytes for %s, quota %d",
					where, name, rb, tid, q.Bytes)
			}
		}
	}
}

// execHealWarm restarts a crashed victim the way a real process restart
// would: the old node object (all memory state) is discarded, a fresh one
// is built over the same durable store directory, boots warm from the
// log, rejoins via its first heartbeat, and revalidates every recovered
// copy against the beacons. Two invariants are checked inline: warm boot
// must recover exactly what the victim had stored at the crash, and
// revalidation must issue zero origin fetches.
func (s *sim) execHealWarm(victim string) {
	defer s.traceInvariant("warm-heal", len(s.failures))
	old, ok := s.caches[victim]
	if !ok {
		s.failf("heal-warm: unknown node %q", victim)
		return
	}
	if s.clcfg.StoreDir == "" {
		s.failf("heal-warm: no store directory (run without Warm?)")
		return
	}
	if !s.partitioned[victim] {
		s.failf("heal-warm: %s is not crashed", victim)
		return
	}
	storedAtCrash := old.StoredVersions()

	// Tear the old process down: stop its heartbeat loop and seal its log
	// so the replacement can reopen the directory.
	s.hbStops[victim]()
	if err := old.Close(); err != nil {
		s.failf("heal-warm: close %s: %v", victim, err)
		return
	}
	cn, err := node.NewCacheNodeWithTransport(victim, s.clcfg, s.net.Transport(victim, s.mem.transport()))
	if err != nil {
		s.failf("heal-warm: rebuild %s: %v", victim, err)
		return
	}
	s.caches[victim] = cn
	s.mem.bindHandler(s.clcfg.Addrs[victim], cn.Handler())

	warm, recovered := cn.WarmBootInfo()
	if len(storedAtCrash) > 0 && (!warm || recovered != len(storedAtCrash)) {
		s.failf("heal-warm: %s recovered %d entries (warm=%v), stored %d at crash",
			victim, recovered, warm, len(storedAtCrash))
	}

	// Rejoin and revalidate. The first heartbeat is immediate and, on the
	// in-memory transport, synchronous — the origin sees the node back
	// before revalidation reports to the beacons.
	delete(s.partitioned, victim)
	s.net.Heal(victim)
	s.hbStops[victim] = cn.StartHeartbeat(heartbeat)
	kept, dropped := cn.WarmRevalidate(context.Background())
	if f := cn.Admission().OriginFetches; f != 0 {
		s.failf("heal-warm: revalidation of %s issued %d origin fetches, want 0", victim, f)
	}
	s.pendingWarm = &warmLedger{victim: victim, recovered: recovered, kept: kept, dropped: dropped}
	s.traceFault(victim, int64(recovered))
	s.logf("heal-warm node=%s recovered=%d kept=%d dropped=%d", victim, recovered, kept, dropped)
}

// execCheckWarm verifies the warm-restart payoff against the ledger taken
// at the heal: the restarted node's origin fetches since the restart must
// not exceed the documents that could legitimately miss there — the
// catalog minus the copies revalidation confirmed fresh, plus any
// publishes inside the window (a refresh invalidates the copy
// everywhere). A violation means the warm restart degenerated toward a
// cold-miss storm.
func (s *sim) execCheckWarm(victim string) {
	defer s.traceInvariant("warm", len(s.failures))
	led := s.pendingWarm
	if led == nil || led.victim != victim {
		s.logf("check-warm node=%s skipped (no pending warm heal)", victim)
		return
	}
	s.pendingWarm = nil
	fetches := s.caches[victim].Admission().OriginFetches
	// kept counts tenant-scoped copies too, so the bound runs over the
	// node's whole key space: the catalog once per tenant plus the default.
	keys := len(s.docs) * (1 + len(s.tenantNames))
	bound := int64(keys - led.kept + led.published)
	s.logf("check-warm node=%s fetches=%d bound=%d kept=%d published=%d",
		victim, fetches, bound, led.kept, led.published)
	if fetches > bound {
		s.failf("warm: %s fetched %d from origin since restart, bound %d (keys %d - revalidated %d + published %d)",
			victim, fetches, bound, keys, led.kept, led.published)
	}
}

// execReconcile runs one anti-entropy pass on every live node, in name
// order. With a shield tier the shields reconcile first (each resyncs
// held versions and purge generations against the origin and re-fans
// repairs into the cloud), then the caches (beacon pass plus degraded
// re-subscription) — so one pass repairs cross-tier staleness top-down.
// A pass with the whole hierarchy healthy stands the strict checks back
// up.
func (s *sim) execReconcile() {
	sRefreshed, sPurged := 0, 0
	for _, name := range s.liveShields() {
		r, p := s.shields[name].Reconcile(context.Background())
		sRefreshed += r
		sPurged += p
	}
	reported, dropped := 0, 0
	for _, name := range s.livePeers() {
		r, d := s.caches[name].Reconcile(context.Background())
		reported += r
		dropped += d
	}
	s.settled = s.clean()
	if len(s.shieldNames) > 0 {
		if s.clean() && len(s.shieldDown) == 0 {
			s.shieldsStale = false
			s.degraded0 = s.degradedTotal()
		}
		s.logf("reconcile reported=%d dropped=%d srefreshed=%d spurged=%d", reported, dropped, sRefreshed, sPurged)
		return
	}
	s.logf("reconcile reported=%d dropped=%d", reported, dropped)
}

// --- invariants ---

// checkPartitionInvariant verifies the always-true structural invariant:
// every ring of the origin's assignment is an exact partition of
// [0, IntraGen) — contiguous, non-overlapping, fully covering — and no
// assigned beacon point is a node the origin has declared dead.
func (s *sim) checkPartitionInvariant(where string) {
	defer s.traceInvariant("partition", len(s.failures))
	a := s.origin.Assignments()
	down := make(map[string]bool)
	for _, d := range s.origin.DownNodes() {
		down[d] = true
	}
	for r, subs := range a.Rings {
		if len(subs) == 0 {
			s.failf("partition[%s]: ring %d has no beacon points", where, r)
			continue
		}
		sorted := append([]node.Subrange(nil), subs...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].Lo < sorted[j].Lo })
		if sorted[0].Lo != 0 {
			s.failf("partition[%s]: ring %d starts at %d, want 0", where, r, sorted[0].Lo)
		}
		for i := 1; i < len(sorted); i++ {
			if sorted[i].Lo != sorted[i-1].Hi+1 {
				s.failf("partition[%s]: ring %d gap/overlap between [%d,%d] and [%d,%d]",
					where, r, sorted[i-1].Lo, sorted[i-1].Hi, sorted[i].Lo, sorted[i].Hi)
			}
		}
		if last := sorted[len(sorted)-1]; last.Hi != intraGen-1 {
			s.failf("partition[%s]: ring %d ends at %d, want %d", where, r, last.Hi, intraGen-1)
		}
		for _, sub := range subs {
			if down[sub.Node] {
				s.failf("partition[%s]: ring %d assigns [%d,%d] to dead node %s",
					where, r, sub.Lo, sub.Hi, sub.Node)
			}
		}
	}
}

// checkFanout verifies one clean-network publish: every holder the beacon
// still lists for the URL must store exactly the published version (a
// holder that failed the push must have been pruned, one that dropped the
// copy must be deregistered).
func (s *sim) checkFanout(docURL string, version document.Version) {
	owner, err := s.origin.Assignments().Owner(docURL, intraGen)
	if err != nil {
		s.failf("fanout %s: no owner: %v", docURL, err)
		return
	}
	rec, ok := findRecord(s.caches[owner].Records(), docURL)
	if !ok {
		s.failf("fanout %s: beacon %s has no record after publish", docURL, owner)
		return
	}
	if rec.Version != version {
		s.failf("fanout %s: beacon %s at version %d, published %d", docURL, owner, rec.Version, version)
	}
	for _, h := range rec.Holders {
		cn, ok := s.caches[h]
		if !ok {
			s.failf("fanout %s: beacon %s lists unknown holder %s", docURL, owner, h)
			continue
		}
		if v, stored := cn.StoredVersions()[docURL]; !stored || v != version {
			s.failf("fanout %s: holder %s stores version %d (stored=%v), published %d",
				docURL, h, v, stored, version)
		}
	}
}

// checkAccounting verifies the crash bookkeeping: the victim must have
// been declared dead, the origin's RecordsLost delta must equal the
// records the victim actually held at its last heartbeat, and the
// survivors' replica promotions (RecordsRecovered delta) must match —
// i.e. every lost lookup record was recovered from the lazy replica.
func (s *sim) checkAccounting(victim string) {
	defer s.traceInvariant("accounting", len(s.failures))
	led := s.pendingCrash
	if led == nil || led.victim != victim {
		s.logf("check-accounting node=%s skipped (no pending crash)", victim)
		return
	}
	s.pendingCrash = nil
	downNow := make(map[string]bool)
	for _, d := range s.origin.DownNodes() {
		downNow[d] = true
	}
	if !downNow[victim] {
		s.failf("accounting: victim %s not declared dead within the detection window", victim)
		return
	}
	stats := s.origin.Stats()
	lost := stats.RecordsLost - led.lost0
	rec := stats.RecordsRecovered - led.rec0
	s.logf("check-accounting node=%s expect=%d lost=%d recovered=%d", victim, led.expect, lost, rec)
	if lost != int64(led.expect) {
		s.failf("accounting: RecordsLost delta %d != %d records held by %s at crash", lost, led.expect, victim)
	}
	if rec != lost {
		s.failf("accounting: RecordsRecovered delta %d != RecordsLost delta %d", rec, lost)
	}
}

// checkQuiescent runs the settle-time invariants over the live nodes:
// view agreement, reachability of every cached document through its
// beacon record, and freshness of every stored copy against the origin's
// ground-truth versions.
func (s *sim) checkQuiescent() {
	defer s.traceInvariant("quiescent", len(s.failures))
	live := s.livePeers()
	originAssign := s.origin.Assignments()
	originEnc, _ := json.Marshal(originAssign)

	// View agreement: every live node's installed assignment matches the
	// origin's.
	for _, name := range live {
		enc, _ := json.Marshal(s.caches[name].AssignmentsView())
		if string(enc) != string(originEnc) {
			s.failf("views: %s disagrees with origin: %s != %s", name, enc, originEnc)
		}
	}

	// Reachability: every stored copy on a live node is listed as a
	// holder in its beacon's lookup record.
	recordsOf := make(map[string]map[string]node.WireRecord, len(live))
	for _, name := range live {
		m := make(map[string]node.WireRecord)
		for _, wr := range s.caches[name].Records() {
			m[wr.URL] = wr
		}
		recordsOf[name] = m
	}
	versions := s.origin.DocVersions()
	// In shield mode the freshness comparison is only exact while the tier
	// is healthy and fully reconciled — a copy subscribed on a crashed
	// shield is legitimately stale until that shield resyncs.
	freshOK := len(s.shieldNames) == 0 || s.shieldsOK()
	checked, stale := 0, 0
	for _, name := range live {
		for docURL, v := range s.caches[name].StoredVersions() {
			checked++
			owner, err := originAssign.Owner(docURL, intraGen)
			if err != nil {
				s.failf("reachability: no owner for %s: %v", docURL, err)
				continue
			}
			if s.partitioned[owner] {
				continue // owner partitioned: cooperation degraded, skip
			}
			wr, ok := recordsOf[owner][docURL]
			if !ok {
				s.failf("reachability: %s stores %s but beacon %s has no record", name, docURL, owner)
				continue
			}
			holderListed := false
			for _, h := range wr.Holders {
				if h == name {
					holderListed = true
				}
			}
			if !holderListed {
				s.failf("reachability: %s stores %s but beacon %s does not list it (holders=%v)",
					name, docURL, owner, wr.Holders)
			}

			// Freshness: no stored copy staler than the origin's version
			// survives a settle (reconcile drops stale copies).
			if want, known := versions[docURL]; freshOK && known && v != want {
				stale++
				s.failf("freshness: %s stores %s at version %d, origin at %d", name, docURL, v, want)
			}
		}
	}
	// No phantom holders: between flushes a beacon may list a node that
	// dropped its copy (holder lists are supersets by design), but a settle
	// pass on a fault-free network flushes every pending drop, so right
	// after one no live beacon lists a live node that does not store the
	// document, and no live node still has a drop waiting.
	if s.settled {
		for _, owner := range live {
			for docURL, wr := range recordsOf[owner] {
				for _, h := range wr.Holders {
					if s.partitioned[h] {
						continue
					}
					if _, stored := s.caches[h].StoredVersions()[docURL]; !stored {
						s.failf("phantom: beacon %s lists %s for %s, which it does not store", owner, h, docURL)
					}
				}
			}
		}
		for _, name := range live {
			if p := s.caches[name].PendingDrops(); p != 0 {
				s.failf("phantom: %s still has %d drops pending after the settle pass", name, p)
			}
		}
	}
	// Shield-tier freshness at quiescent points: while the tier is healthy
	// every live shield's held copies match the origin's ground truth, and
	// no shield is behind a URL's purge generation (a behind shield would
	// resurrect a globally purged document to every cloud it serves).
	if freshOK && len(s.shieldNames) > 0 {
		gens := s.origin.PurgeGens()
		for _, name := range s.shieldNames {
			sn := s.shields[name]
			for docURL, v := range sn.HeldVersions() {
				if want, known := versions[docURL]; known && v != want {
					s.failf("shield-freshness: %s holds %s at version %d, origin at %d", name, docURL, v, want)
				}
				if g := gens[docURL]; g > sn.PurgeSeen(docURL) {
					s.failf("shield-purge: %s holds %s behind purge generation %d (seen %d)",
						name, docURL, g, sn.PurgeSeen(docURL))
				}
			}
		}
	}
	// Overload-layer books at quiescence: on every node (partitioned ones
	// included — they are still in-process) the conservation identity
	// holds exactly and all admission state has drained: nothing queued,
	// nothing in flight, no open coalesced flights.
	for _, name := range s.names {
		st := s.caches[name].Admission()
		if st.Served+st.Shed+st.Failed != st.Requests {
			s.failf("admission: %s served %d + shed %d + failed %d != requests %d",
				name, st.Served, st.Shed, st.Failed, st.Requests)
		}
		if st.GateInFlight != 0 || st.GateQueued != 0 || st.LimiterInFlight != 0 ||
			st.LimiterQueued != 0 || st.FlightsActive != 0 {
			s.failf("admission: %s not drained at quiescence: inflight=%d queued=%d limiter=%d/%d flights=%d",
				name, st.GateInFlight, st.GateQueued, st.LimiterInFlight, st.LimiterQueued, st.FlightsActive)
		}
		// Per-tenant conservation (multi-tenant runs only): the same
		// identity, sliced by tenant, on the same nodes.
		tstats := s.caches[name].TenantAdmission()
		for _, tid := range s.tenantNames {
			ts := tstats[tid]
			if ts.Served+ts.Shed+ts.Failed != ts.Requests {
				s.failf("admission: %s tenant %s served %d + shed %d + failed %d != requests %d",
					name, tid, ts.Served, ts.Shed, ts.Failed, ts.Requests)
			}
		}
	}
	s.logf("check live=%d copies=%d stale=%d failures=%d", len(live), checked, stale, len(s.failures))
}

// checkSfetch is the staleness sandwich, checked on every /sfetch reply a
// cache node decodes, fault windows included: the version served is no older
// than the hint the cloud sent (v=, the version it already has) and no newer
// than the origin's version of the URL.
func (s *sim) checkSfetch(method string, u *url.URL, reply []byte) {
	if method != http.MethodGet || u.Path != "/sfetch" {
		return
	}
	defer s.traceInvariant("sfetch", len(s.failures))
	q := u.Query()
	key := q.Get("url")
	var sr node.ShieldFetchResponse
	if err := json.Unmarshal(reply, &sr); err != nil {
		s.failf("sfetch %q: undecodable reply: %v", key, err)
		return
	}
	hint, _ := strconv.ParseUint(q.Get("v"), 10, 64)
	_, plain := document.SplitTenantKey(key)
	if v, origin := sr.Doc.Version, s.origin.DocVersions()[plain]; uint64(v) < hint || v > origin {
		s.failf("sfetch %q: served version %d outside [hint %d, origin %d]", key, v, hint, origin)
	}
}

// findRecord looks a URL up in a sorted Records() snapshot.
func findRecord(recs []node.WireRecord, docURL string) (node.WireRecord, bool) {
	for _, wr := range recs {
		if wr.URL == docURL {
			return wr, true
		}
	}
	return node.WireRecord{}, false
}
