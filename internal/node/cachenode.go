package node

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cachecloud/internal/admit"
	"cachecloud/internal/cache"
	"cachecloud/internal/document"
	"cachecloud/internal/obs"
	"cachecloud/internal/placement"
	"cachecloud/internal/tenant"
)

var errNotFound = errors.New("node: not found")

// CacheNode is one live edge cache plus its beacon-point duties.
type CacheNode struct {
	name   string
	cfg    ClusterConfig
	store  *cache.Cache
	policy placement.Policy
	tp     Transport
	clock  Clock
	start  time.Time
	served servedConns // connections served from the node's own loop (serve.go)

	// dir is the node's beacon-point state (see directory.go): the layout
	// and the dead-peer set, lookup records, sibling replicas and load
	// counters, under its own lock. Request routing reads its lock-free
	// view (the node-layer mirror of the core's epoch pointer).
	dir   *directory
	hbSeq atomic.Int64

	// Holder-list maintenance, requester side (see drops.go). hmu guards
	// the block and is never held across a network call.
	hmu        sync.Mutex
	seq        uint64               // last sequence number handed out
	misses     map[string]missState // misses in flight, by URL
	dropQueue  []pendingDrop        // deregistrations waiting to be sent, oldest first
	flushAt    int                  // queue length that schedules the next background flush
	flushTimer Timer                // non-nil while a background flush is scheduled or running
	flushWG    sync.WaitGroup
	closed     bool
	peers      []string // every node of the cluster, sorted: the flush order

	// Operational metrics live in the obs registry: counters are atomic
	// and /metrics renders the registry without holding any node lock
	// across the response write.
	reg          *obs.Registry
	localHits    *obs.Counter
	peerHits     *obs.Counter
	originMZ     *obs.Counter
	lookupCopies *obs.Counter // lookups this node answered, as beacon, with its own copy
	failedOver   *obs.Counter // lookups answered by the ring sibling after a beacon failure
	degraded     *obs.Counter // requests that fell through to the origin with no beacon
	circuitOpen  *obs.Counter
	handoffFail  *obs.Counter   // hand-off batches a new beacon did not take
	reqMs        *obs.Histogram // client /doc handling latency
	lookupMs     *obs.Histogram // beacon lookup round trip
	fetchMs      *obs.Histogram // peer/origin document retrieval

	// Holder-list maintenance, requester side: drops sent on a lookup, sent
	// in a batch, and cancelled because the document was held again. (The
	// beacon-side counters are the directory's.)
	dropsPiggybacked *obs.Counter
	dropsBatched     *obs.Counter
	dropsCancelled   *obs.Counter

	// Overload-resilience layer (see admission.go): the weighted
	// class-priority admission gate, the adaptive origin-fetch limiter,
	// and the miss-storm coalescer, plus the conservation counters
	// (Requests == Served + Shed + Failed at quiescent points).
	gate          *admit.Gate
	limiter       *admit.Limiter
	flights       *admit.Coalescer[flightKey, document.Document]
	docRequests   *obs.Counter
	docServed     *obs.Counter
	docShed       *obs.Counter
	docFailed     *obs.Counter
	originFetches *obs.Counter // actual origin wire fetches, post-coalescing
	coalescedMiss *obs.Counter // misses that joined an in-flight fetch
	shedByClass   [admit.NumClasses]*obs.Counter

	// Multi-tenant layer (see tenancy.go): all nil when cfg.Tenants is
	// empty — the single-tenant request path is untouched.
	tenants      *tenant.Registry
	fair         *tenant.FairShare
	tenantCounts *tenantCounters

	// Shield tier (two-tier mode; see shieldnode.go). A nil router means
	// single-tier: upstream fetches go straight to the origin. degradedURLs
	// tracks copies fetched directly from the origin while every shield was
	// unreachable — such copies carry no shield subscription, so no publish
	// can refresh them until the next reconcile pass re-attaches them.
	shieldRouter   *ShieldRouter
	mu             sync.Mutex // guards degradedURLs
	degradedURLs   map[string]bool
	shieldFetches  *obs.Counter
	shieldHits     *obs.Counter
	shieldFailover *obs.Counter
	shieldDegraded *obs.Counter

	// Durable tier (see durable.go): empty for memory-only nodes. warmBoot
	// and warmRecovered are set once at construction; the revalidation
	// counters advance when WarmRevalidate runs.
	disk            disk
	warmBoot        bool
	warmRecovered   int
	warmRevalidated atomic.Int64
	warmDropped     atomic.Int64
}

// NewCacheNode constructs a live cache node. The node starts with the equal
// initial sub-range split; the origin installs rebalanced assignments
// later.
func NewCacheNode(name string, cfg ClusterConfig) (*CacheNode, error) {
	return NewCacheNodeWithTransport(name, cfg, nil)
}

// NewCacheNodeWithTransport constructs a cache node whose outbound calls go
// through the given transport (tests inject the chaos transport here); nil
// selects the node's own, whose open circuits the node counts.
func NewCacheNodeWithTransport(name string, cfg ClusterConfig, tp Transport) (*CacheNode, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	if _, ok := cfg.Addrs[name]; !ok {
		return nil, fmt.Errorf("node: %q missing from cluster addresses", name)
	}
	cfg.MaxInflight = cmp.Or(cfg.MaxInflight, DefaultMaxInflight)
	cfg.MissQueue = cmp.Or(cfg.MissQueue, DefaultMissQueue)
	var pol placement.Policy = placement.AdHoc{}
	if cfg.UtilityPlacement {
		u, err := placement.NewUtility(placement.EqualOn(true, true, true, cfg.CapacityBytes > 0), 0.5)
		if err != nil {
			return nil, err
		}
		pol = u
	}
	clock := clockOrReal(cfg.Clock)
	n := &CacheNode{
		name:         name,
		cfg:          cfg,
		store:        cache.New(name, cfg.CapacityBytes),
		policy:       pol,
		clock:        clock,
		start:        clock.Now(),
		reg:          obs.NewRegistry("cachecloud_node", map[string]string{"node": name}),
		degradedURLs: make(map[string]bool),
		// Seeded from the clock so that a restarted node's numbers continue
		// above every number its previous life handed out.
		seq:     uint64(clock.Now().UnixNano()),
		misses:  make(map[string]missState),
		flushAt: flushPendingAt,
		peers:   sortedKeys(cfg.Addrs),
	}
	n.dir = newDirectory(name, cfg.IntraGen, n.peers, layoutOf(newRings(cfg, false)), n.reg)
	n.shieldRouter = newShieldRouter(cfg)
	n.initAdmission()
	// Tenancy precedes the durable warm boot so replayed entries land
	// under their tenants' byte quotas.
	n.initTenancy()
	n.initMetrics()
	if err := n.initDurable(); err != nil {
		return nil, err
	}
	if tp == nil {
		tp = NewHTTPTransport(TransportOptions{OnBreakerOpen: n.noteCircuitOpen, Clock: clock})
	}
	n.tp = tp
	return n, nil
}

// initMetrics fills the node's metrics registry: counters for the
// protocol outcomes, gauge callbacks over live state, and latency
// histograms with quantile-ready buckets.
func (n *CacheNode) initMetrics() {
	reg := n.reg
	n.localHits = reg.Counter("local_hits_total")
	n.peerHits = reg.Counter("peer_hits_total")
	n.originMZ = reg.Counter("origin_miss_total")
	n.lookupCopies = reg.Counter("lookup_copies_total")
	n.failedOver = reg.Counter("failed_over_total")
	n.degraded = reg.Counter("degraded_total")
	n.circuitOpen = reg.Counter("circuit_open_total")
	n.handoffFail = reg.Counter("handoff_failed_total")
	n.dropsPiggybacked = reg.Counter("drops_piggybacked_total")
	n.dropsBatched = reg.Counter("drops_batched_total")
	n.dropsCancelled = reg.Counter("drops_cancelled_total")
	reg.GaugeFunc("pending_drops", func() float64 { return float64(n.PendingDrops()) })
	n.shieldFetches = reg.Counter("shield_fetch_total")
	n.shieldHits = reg.Counter("shield_hit_total")
	n.shieldFailover = reg.Counter("shield_failover_total")
	n.shieldDegraded = reg.Counter("shield_degraded_total")
	bounds := obs.DefaultLatencyBounds()
	n.reqMs = reg.Histogram("request_ms", bounds)
	n.lookupMs = reg.Histogram("lookup_ms", bounds)
	n.fetchMs = reg.Histogram("fetch_ms", bounds)
	reg.GaugeFunc("stored_documents", func() float64 { return float64(n.store.Len()) })
	reg.GaugeFunc("stored_bytes", func() float64 { return float64(n.store.Used()) })
	reg.GaugeFunc("capacity_bytes", func() float64 { return float64(n.store.Capacity()) })
	reg.GaugeFunc("uptime_seconds", func() float64 { return float64(n.now()) })
	reg.GaugeFunc("heartbeats_sent", func() float64 { return float64(n.hbSeq.Load()) })
	n.initAdmissionMetrics(reg)
}

// Metrics exposes the node's metrics registry.
func (n *CacheNode) Metrics() *obs.Registry { return n.reg }

// noteCircuitOpen is the transport's breaker-open callback.
func (n *CacheNode) noteCircuitOpen(host string) {
	n.circuitOpen.Inc()
	if tr := n.cfg.Tracer; tr != nil {
		tr.Emit(obs.Event{Time: n.now(), Kind: obs.EvCircuitOpen, Node: host})
	}
}

// Name returns the node name.
func (n *CacheNode) Name() string { return n.name }

// now returns elapsed seconds since node start — the live clock for rate
// monitors (1 live time unit = 1 second).
func (n *CacheNode) now() int64 { return int64(n.clock.Since(n.start) / time.Second) }

// msSince returns the elapsed time since t0 on the node's clock in
// milliseconds (histogram observations).
func (n *CacheNode) msSince(t0 time.Time) float64 {
	return float64(n.clock.Since(t0)) / float64(time.Millisecond)
}

// Handler returns the node's HTTP handler.
func (n *CacheNode) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /doc", n.handleDoc)
	mux.HandleFunc("GET /lookup", n.handleLookup)
	mux.HandleFunc("POST /deregister", jsonCall(n.deregister))
	mux.HandleFunc("GET /fetch", n.handleFetch)
	mux.HandleFunc("POST /update", n.handleUpdate)
	mux.HandleFunc("POST /apply", jsonCall(n.apply))
	mux.HandleFunc("POST /purge", n.handlePurge)
	mux.HandleFunc("POST /drop", jsonCall(n.drop))
	mux.HandleFunc("POST /subranges", n.handleSubranges)
	mux.HandleFunc("POST /records/import", jsonCall(n.recordsImport))
	mux.HandleFunc("POST /records/replica", jsonCall(n.recordsReplica))
	mux.HandleFunc("POST /replicate", n.handleReplicate)
	mux.HandleFunc("POST /reconcile", jsonCall(n.reconcile))
	mux.HandleFunc("GET /healthz", n.handleHealthz)
	mux.HandleFunc("GET /subranges", n.handleGetSubranges)
	mux.HandleFunc("POST /loads/collect", n.handleLoadsCollect)
	mux.HandleFunc("POST /membership", jsonCall(n.membership))
	mux.HandleFunc("GET /stats", n.handleStats)
	mux.HandleFunc("GET /metrics", n.handleMetrics)
	return n.served.handler(mux)
}

// jsonCall is the handler of a message that sends nothing of its own:
// decode the body, make the one call, encode its answer. An error is the
// sender's (400).
func jsonCall[Req, Resp any](call func(Req) (Resp, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req Req
		if err := readJSON(r, &req); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		resp, err := call(req)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	}
}

// beaconURL resolves the beacon node's base URL for a document.
func (n *CacheNode) beaconURL(url string) (name, base string, err error) {
	return n.dir.route().beaconAddr(n.cfg.Addrs, url)
}

// siblingOf returns the beacon's ring sibling (routeView.sibling), which
// can answer lookups while the beacon is unreachable, and its address.
func (n *CacheNode) siblingOf(beaconName string) (name, base string, ok bool) {
	if name, ok = n.dir.route().sibling(beaconName); ok {
		base, ok = n.cfg.Addrs[name]
	}
	return name, base, ok
}

// isDown reports whether the origin has declared the peer dead.
func (n *CacheNode) isDown(peer string) bool { return n.dir.route().down[peer] }

// handleDoc is the client entry point: local hit, else cooperate. Every
// request passes the admission gate under its work class — hits under
// the cheap hit class, cooperation under the lookup class, origin
// fetches under the miss class — so a miss storm can never starve hit
// serving. Each request increments docRequests and then exactly one of
// docServed, docShed, or docFailed (the conservation invariant).
func (n *CacheNode) handleDoc(w http.ResponseWriter, r *http.Request) {
	url, _, _ := queryArg(r.URL.RawQuery, "url")
	if url == "" {
		writeErr(w, http.StatusBadRequest, errors.New("missing url"))
		return
	}
	tid, terr := tenantFromRequest(r)
	if terr != nil {
		writeErr(w, http.StatusBadRequest, terr)
		return
	}
	n.docRequests.Inc()
	n.tenantCounts.request(tid)
	// The weighted fair share is charged for the whole request: one unit
	// per in-flight /doc per tenant, shed immediately at the share so an
	// aggressor tenant saturates only its own slice of MaxInflight.
	fairRelease, ok := n.tenantAcquire(tid)
	if !ok {
		n.refuseTenantShed(w, tid, url)
		return
	}
	defer fairRelease()
	// All storage, routing, and cooperation below run on the
	// tenant-folded key: each tenant's copies and lookup records live in
	// a disjoint key space.
	url = document.TenantKey(tid, url)
	t0 := n.clock.Now()
	defer func() { n.reqMs.Observe(n.msSince(t0)) }()
	ctx, cancel := requestContext(r)
	defer cancel()
	ctx = withoutTenant(ctx)
	now := n.now()
	if cp, ok := n.store.Get(url, now); ok {
		release, err := n.gate.Acquire(ctx, admit.Hit)
		if err != nil {
			n.refuseDoc(w, tid, url, admit.Hit, err)
			return
		}
		defer release()
		n.localHits.Inc()
		n.docServed.Inc()
		n.tenantCounts.served(tid)
		writeDoc(w, DocResponse{Doc: cp.Doc, Source: "local", Stored: true})
		return
	}

	// Miss: the beacon lookup and peer retrieval run under one
	// lookup-class admission; it is released before any origin fetch so
	// slow origin work is charged to the miss class alone.
	lookupRelease, err := n.gate.Acquire(ctx, admit.Lookup)
	if err != nil {
		n.refuseDoc(w, tid, url, admit.Lookup, err)
		return
	}
	defer lookupRelease()

	// Ask the document's beacon point for holders. The lookup also lists
	// this node as a holder, so from here on a reply that leaves no copy
	// behind owes the beacon a drop (endMiss queues it).
	beaconName, beaconBase, err := n.beaconURL(url)
	if err != nil {
		n.docFailed.Inc()
		n.tenantCounts.failed(tid)
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	n.beginMiss(url)
	stored := false
	defer func() { n.endMiss(url, stored) }()
	var lr LookupResponse
	lookupOK := false
	tLookup := n.clock.Now()
	if beaconName == n.name || !n.isDown(beaconName) {
		lr, lookupOK = n.lookup(ctx, beaconName, beaconBase, url)
	}

	// Beacon unreachable: its ring sibling holds the lazy replica of the
	// lookup records, so retry there before giving up on cooperation.
	failedOver := false
	deadBeacon := beaconName
	if !lookupOK {
		if sibName, sibBase, ok := n.siblingOf(beaconName); ok {
			if lr, lookupOK = n.lookup(ctx, sibName, sibBase, url); lookupOK {
				failedOver = true
				beaconName = sibName
			}
		}
	}
	if lookupOK {
		n.lookupMs.Observe(n.msSince(tLookup))
	}

	// No beacon at all: degrade to a direct origin fetch so the client
	// request still completes. The fetch runs under full miss-class
	// controls (coalescing, gate, adaptive limiter).
	if !lookupOK {
		lookupRelease()
		doc, err := n.originFetch(ctx, url, 0)
		if err != nil {
			n.refuseDoc(w, tid, url, admit.Miss, err)
			return
		}
		n.originMZ.Inc()
		n.degraded.Inc()
		doc, stored = n.place(doc, "", LookupResponse{}, now)
		n.docServed.Inc()
		n.tenantCounts.served(tid)
		writeDoc(w, DocResponse{Doc: doc, Source: "origin", Stored: stored, Degraded: true})
		return
	}
	if failedOver {
		n.failedOver.Inc()
		if tr := n.cfg.Tracer; tr != nil {
			tr.Emit(obs.Event{Time: now, Kind: obs.EvFailedOver, Node: deadBeacon, URL: url})
		}
	}

	tFetch := n.clock.Now()
	doc, source, ok := n.peerRetrieve(ctx, url, lr)
	lookupRelease()
	if !ok {
		doc, err = n.originFetch(ctx, url, lr.Version)
		if err != nil {
			n.refuseDoc(w, tid, url, admit.Miss, err)
			return
		}
		n.originMZ.Inc()
		source = "origin"
	}
	n.fetchMs.Observe(n.msSince(tFetch))
	doc, stored = n.place(doc, beaconName, lr, now)
	n.docServed.Inc()
	n.tenantCounts.served(tid)
	writeDoc(w, DocResponse{Doc: doc, Source: source, Stored: stored, FailedOver: failedOver})
}

// peerRetrieve tries to fetch the document from a sibling holder, unless
// the beacon's answer carried its own copy (handleLookup), which is served
// as is. Holders the origin has declared dead are skipped without a network
// call; a holder that sheds (429), is unreachable, or lacks the copy is
// skipped for the next one; so is a copy older than the version the beacon
// has already fanned out (the holder's push is still on its way, and a
// node listed after the fan-out began would otherwise keep that copy).
// ok=false means the caller must fall back to the origin (via originFetch,
// under the miss-class controls).
func (n *CacheNode) peerRetrieve(ctx context.Context, url string, lr LookupResponse) (doc document.Document, source string, ok bool) {
	if lr.Doc != nil {
		n.peerHits.Inc()
		return *lr.Doc, "peer", true
	}
	for _, h := range lr.Holders {
		if h == n.name || n.isDown(h) {
			continue
		}
		base, have := n.cfg.Addrs[h]
		if !have {
			continue
		}
		var fr FetchResponse
		if err := n.tp.GetJSON(ctx, base+"/fetch?url="+queryEscape(url), &fr); err == nil && fr.Doc.Version >= lr.Version {
			n.peerHits.Inc()
			return fr.Doc, "peer", true
		}
		// Shed, not-found, or unreachable: try the next holder.
	}
	return document.Document{}, "", false
}

// place runs the placement decision on a retrieved document and returns
// the document to serve and whether a copy was kept. The lookup already
// listed this node, so storing costs no message; evictions become pending
// drops. A version pushed while the miss was in flight (see applyLocal)
// wins over an older fetched one, before the store and again after it, so
// a push that lands in between is not lost.
func (n *CacheNode) place(doc document.Document, beaconName string, lr LookupResponse, now int64) (document.Document, bool) {
	doc = n.newerPushed(doc)
	pctx := n.placementContext(doc, beaconName == n.name, lr.LookupRate, lr.UpdateRate, len(lr.Holders), now)
	if !n.policy.ShouldStore(pctx).Store {
		return doc, false
	}
	evicted, err := n.store.Put(document.Copy{Doc: doc, FetchedAt: now}, now)
	if err != nil {
		return doc, false
	}
	dropped := make([]string, len(evicted))
	for i, d := range evicted {
		dropped[i] = d.URL
	}
	n.enqueueDrops(dropped)
	if pushed := n.newerPushed(doc); pushed.Version > doc.Version {
		n.store.ApplyUpdate(pushed, now)
		doc = pushed
	}
	return doc, true
}

// placementContext is what the placement policy weighs for doc at this node:
// the local rates and residence read from the store, the cloud-wide rates
// and replica count the beacon reported.
func (n *CacheNode) placementContext(doc document.Document, isBeacon bool, lookupRate, updateRate float64, replicas int, now int64) placement.Context {
	return placement.Context{
		Now: now, CacheID: n.name, DocURL: doc.URL, DocSize: doc.Size,
		IsBeacon:        isBeacon,
		LocalAccessRate: n.store.AccessRate(doc.URL, now),
		MeanLocalRate:   n.store.MeanAccessRate(now),
		CloudLookupRate: lookupRate,
		CloudUpdateRate: updateRate,
		ReplicaCount:    replicas,
		Residence:       placement.ExpectedResidence(n.store.Capacity(), n.store.EvictionByteRate(now)),
	}
}

// --- beacon duties ---

// handleLookup serves GET /lookup?url=U[&holder=N&seq=S[&drop=U1...]]. A
// plain lookup only reads. With holder, the requester's pending drops are
// applied and then the requester is listed for U, all numbered seq.
func (n *CacheNode) handleLookup(w http.ResponseWriter, r *http.Request) {
	q := r.URL.RawQuery
	url, _, _ := queryArg(q, "url")
	if url == "" {
		writeErr(w, http.StatusBadRequest, errors.New("missing url"))
		return
	}
	holder, _, _ := queryArg(q, "holder")
	var drops []string
	for d, rest, ok := queryArg(q, "drop"); ok; d, rest, ok = queryArg(rest, "drop") {
		drops = append(drops, d)
	}
	var seq uint64
	if holder != "" {
		name, ok := n.dir.holderName(holder)
		if !ok {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("unknown holder %q", holder))
			return
		}
		holder = name
		s, _, _ := queryArg(q, "seq")
		var err error
		if seq, err = strconv.ParseUint(s, 10, 64); err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad seq: %w", err))
			return
		}
	}
	if len(drops) > 0 && (holder == "" || len(drops) > maxPiggybackDrops) {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("%d drops without a holder or over the limit of %d", len(drops), maxPiggybackDrops))
		return
	}
	// Peer calls pass already-scoped keys with no header; a direct client
	// lookup carries the tenant header and gets its URL folded here.
	url, terr := foldTenantParam(r, url)
	if terr != nil {
		writeErr(w, http.StatusBadRequest, terr)
		return
	}
	ctx, cancel := requestContext(r)
	defer cancel()
	release, err := n.gate.Acquire(ctx, admit.Lookup)
	if err != nil {
		n.refuseServe(w, url, admit.Lookup, err)
		return
	}
	defer release()
	lr := n.dir.lookup(n.now(), url, holder, seq, drops)
	// A requester that registers is about to fetch a copy at lr.Version or
	// newer: when this node holds one, the answer carries it.
	if holder != "" {
		if cp, ok := n.store.Peek(url); ok && cp.Doc.Version >= lr.Version {
			lr.Doc = &cp.Doc
			n.lookupCopies.Inc()
		}
	}
	writeJSON(w, http.StatusOK, lr)
}

// deregister serves POST /deregister: the batched drops a flush sends.
func (n *CacheNode) deregister(req DeregisterRequest) (struct{}, error) {
	if len(req.URLs) > maxBatchDrops {
		return struct{}{}, fmt.Errorf("%d urls over the batch limit of %d", len(req.URLs), maxBatchDrops)
	}
	n.dir.deregister(req.Node, req.Seq, req.URLs)
	return struct{}{}, nil
}

// handleFetch serves a held copy to a sibling. Serving an existing copy
// is hit-class work: cheap, and prioritised over miss-class admissions
// so an overloaded holder still relieves its peers.
func (n *CacheNode) handleFetch(w http.ResponseWriter, r *http.Request) {
	url, _, _ := queryArg(r.URL.RawQuery, "url")
	url, terr := foldTenantParam(r, url)
	if terr != nil {
		writeErr(w, http.StatusBadRequest, terr)
		return
	}
	ctx, cancel := requestContext(r)
	defer cancel()
	release, err := n.gate.Acquire(ctx, admit.Hit)
	if err != nil {
		n.refuseServe(w, url, admit.Hit, err)
		return
	}
	defer release()
	cp, ok := n.store.Peek(url)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no copy of %q", url))
		return
	}
	writeJSON(w, http.StatusOK, FetchResponse{Doc: cp.Doc})
}

// handleUpdate is the beacon receiving an origin update: record load,
// refresh the record, push to holders.
func (n *CacheNode) handleUpdate(w http.ResponseWriter, r *http.Request) {
	var req UpdateRequest
	if err := readJSON(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	push, holders := n.dir.update(n.now(), req.Doc)
	body := sharedBody(push)

	notified := 0
	var stale []listing
	for _, l := range holders {
		if l.holder == n.name {
			if n.applyLocal(push) {
				notified++
			} else {
				stale = append(stale, l)
			}
			continue
		}
		if n.isDown(l.holder) {
			// A dead holder cannot refresh its copy; drop it from the
			// record so it re-registers after rejoining.
			stale = append(stale, l)
			continue
		}
		base, ok := n.cfg.Addrs[l.holder]
		if !ok {
			continue
		}
		var ar applyResponse
		if err := n.tp.PostJSON(r.Context(), base+"/apply", body, &ar); err == nil {
			notified++
			if !ar.Held {
				stale = append(stale, l)
			}
		} else {
			// The push never reached the holder: its copy is now stale.
			// Drop it from the record so lookups stop steering requesters
			// at an outdated copy; the holder re-registers on its next
			// reconcile pass (or re-fetch) once reachable again.
			stale = append(stale, l)
		}
	}
	n.dir.unlist(req.Doc.URL, stale)
	writeJSON(w, http.StatusOK, UpdateResponse{Notified: notified})
}

// applyResponse is the body of a /apply reply.
type applyResponse struct {
	Held bool `json:"held"`
}

// applyLocal refreshes a held copy with the pushed version, then, under
// utility placement, re-evaluates the placement decision using the beacon's
// piggybacked monitoring: a copy whose consistency-maintenance cost has
// overtaken its benefit is dropped rather than refreshed again next time. Ad
// hoc placement keeps every copy, so it builds no context.
//
// A node with a miss in flight on the document is listed (its lookup did
// that) but holds nothing yet: the pushed version is kept for place, which
// stores the newer of it and what the miss fetched, and the node answers
// held. The second ApplyUpdate covers a store that landed between the
// first one and the note.
func (n *CacheNode) applyLocal(req UpdateRequest) bool {
	now := n.now()
	if !n.store.ApplyUpdate(req.Doc, now) {
		if !n.notePushed(req.Doc) {
			return false
		}
		n.store.ApplyUpdate(req.Doc, now)
		return true
	}
	if _, isAdHoc := n.policy.(placement.AdHoc); isAdHoc {
		return true
	}
	others := req.Replicas - 1
	if others < 0 {
		others = 0
	}
	owner, ownerErr := n.dir.route().beacon(document.HashURL(req.Doc.URL))
	ctx := n.placementContext(req.Doc, ownerErr == nil && owner == n.name, req.LookupRate, req.UpdateRate, others, now)
	if !n.policy.ShouldStore(ctx).Store {
		n.store.Remove(req.Doc.URL)
		return false
	}
	return true
}

func (n *CacheNode) apply(req UpdateRequest) (applyResponse, error) {
	return applyResponse{Held: n.applyLocal(req)}, nil
}

// dropResponse is the body of a /drop reply.
type dropResponse struct {
	Dropped bool `json:"dropped"`
}

// dropLocal removes every trace of a document from this node: the stored
// copy, the owned lookup record and the sibling replica (directory.forget),
// and the degraded mark.
func (n *CacheNode) dropLocal(url string) bool {
	dropped := n.store.Remove(url)
	n.dir.forget(url)
	n.mu.Lock()
	delete(n.degradedURLs, url)
	n.mu.Unlock()
	return dropped
}

// handlePurge is the beacon receiving a scoped invalidation (from a shield
// in two-tier mode, from the origin directly in single-tier mode). The
// purge is broadcast as /drop to every live peer — not just the recorded
// holders — so unregistered copies and sibling replicas of the record
// cannot resurrect the document after the purge.
func (n *CacheNode) handlePurge(w http.ResponseWriter, r *http.Request) {
	var req PurgeRequest
	if err := readJSON(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if req.URL == "" {
		writeErr(w, http.StatusBadRequest, errors.New("missing url"))
		return
	}
	peers := n.dir.purge(req.URL)
	body := sharedBody(req)
	dropped := 0
	if n.dropLocal(req.URL) {
		dropped++
	}
	for _, p := range peers {
		var dr dropResponse
		if err := n.tp.PostJSON(r.Context(), n.cfg.Addrs[p]+"/drop", body, &dr); err == nil && dr.Dropped {
			dropped++
		}
	}
	writeJSON(w, http.StatusOK, PurgeResponse{Dropped: dropped})
}

// drop removes this node's copy (and any record or replica traces) of a
// purged document.
func (n *CacheNode) drop(req PurgeRequest) (dropResponse, error) {
	return dropResponse{Dropped: n.dropLocal(req.URL)}, nil
}

// handleSubranges installs a new assignment and hands off the lookup
// records this node no longer owns (directory.install). A batch the new
// beacon does not take is counted, not retried: reconcile lists it again.
func (n *CacheNode) handleSubranges(w http.ResponseWriter, r *http.Request) {
	var req Assignments
	if err := readJSON(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	outbound, promoted := n.dir.install(req)
	for _, ho := range outbound {
		base, ok := n.cfg.Addrs[ho.owner]
		if !ok {
			continue
		}
		if err := n.tp.PostJSON(r.Context(), base+"/records/import", RecordsImport{Records: ho.records}, nil); err != nil {
			n.handoffFail.Inc()
		}
	}
	writeJSON(w, http.StatusOK, SubrangesResponse{MigratedOut: len(outbound), Promoted: promoted})
}

// recordsReplica stores a sibling's record copies without taking
// ownership; recordsImport takes over records handed off by their previous
// beacon.
func (n *CacheNode) recordsReplica(req RecordsImport) (map[string]int, error) {
	return map[string]int{"replicated": len(req.Records)}, n.dir.acceptReplicas(req.From, req.Reset, req.Records)
}

func (n *CacheNode) recordsImport(req RecordsImport) (map[string]int, error) {
	return map[string]int{"imported": len(req.Records)}, n.dir.importRecords(req.Records)
}

// handleReplicate pushes this node's lookup records that are not empty
// to its ring sibling (the lazy replication pass, typically triggered by
// the origin once per cycle).
func (n *CacheNode) handleReplicate(w http.ResponseWriter, r *http.Request) {
	_, base, ok := n.siblingOf(n.name)
	if !ok {
		writeJSON(w, http.StatusOK, map[string]int{"sent": 0})
		return
	}
	// Reset: this payload is a full snapshot of the node's records, so the
	// sibling must not keep (and later promote) replicas of records this
	// node no longer holds; it goes out even when it names none.
	recs := n.dir.replicaPush()
	if err := n.tp.PostJSON(r.Context(), base+"/records/replica", RecordsImport{Records: recs, Reset: true, From: n.name}, nil); err != nil {
		writeErr(w, http.StatusBadGateway, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{"sent": len(recs)})
}

// handleGetSubranges exposes this node's current view of the sub-range
// layout (observability).
func (n *CacheNode) handleGetSubranges(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, n.AssignmentsView())
}

// handleHealthz answers origin liveness probes.
func (n *CacheNode) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok", "node": n.name})
}

// handleLoadsCollect reports this node's per-IrH cycle loads and resets
// them (called by the origin at the end of each cycle).
func (n *CacheNode) handleLoadsCollect(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, n.dir.collectLoads())
}

func (n *CacheNode) handleStats(w http.ResponseWriter, r *http.Request) {
	local, peer, origin := n.localHits.Value(), n.peerHits.Value(), n.originMZ.Value()
	total := local + peer + origin
	hitRate := 0.0
	if total > 0 {
		hitRate = float64(local+peer) / float64(total)
	}
	_, records, _ := n.dir.counts()
	ad := n.Admission()
	st := CacheStats{
		Node:          n.name,
		StoredDocs:    n.store.Len(),
		UsedBytes:     n.store.Used(),
		LocalHits:     local,
		PeerHits:      peer,
		OriginMiss:    origin,
		BeaconOps:     n.dir.beaconOps.Value(),
		HitRate:       hitRate,
		RecordsHeld:   records,
		FailedOver:    n.failedOver.Value(),
		Degraded:      n.degraded.Value(),
		DownPeers:     len(n.dir.route().down),
		Requests:      ad.Requests,
		Served:        ad.Served,
		Shed:          ad.Shed,
		Failed:        ad.Failed,
		OriginFetches: ad.OriginFetches,
		Coalesced:     ad.Coalesced,
		LimitNow:      ad.Limit,
	}
	if n.shieldRouter != nil {
		st.ShieldFetches = n.shieldFetches.Value()
		st.ShieldHits = n.shieldHits.Value()
		st.ShieldFailover = n.shieldFailover.Value()
		st.ShieldDegraded = n.shieldDegraded.Value()
	}
	if n.disk.st != nil {
		ds := n.disk.st.Stats()
		st.WarmBoot = n.warmBoot
		st.WarmRecovered = n.warmRecovered
		st.WarmRevalidated = n.warmRevalidated.Load()
		st.WarmDropped = n.warmDropped.Load()
		st.StoreTruncations = ds.Truncations
		st.StoreCompactions = ds.Compactions
		st.StoreSegments = ds.Segments
		st.StoreBytes = ds.TotalBytes
		st.DurableErrors = n.disk.q.Errors()
	}
	st.Tenants = n.TenantAdmission()
	writeJSON(w, http.StatusOK, st)
}

// membership receives the origin's broadcast of dead peers.
func (n *CacheNode) membership(req MembershipUpdate) (struct{}, error) {
	n.dir.setDown(req.Down)
	return struct{}{}, nil
}

// reconcile is the beacon side of the anti-entropy pass: a holder reports
// the copies it stores whose beacon duty falls on this node
// (directory.reconcile has the verdicts).
func (n *CacheNode) reconcile(req ReconcileRequest) (ReconcileResponse, error) {
	return n.dir.reconcile(req.Node, req.Seq, req.Entries)
}

// Reconcile runs one holder-side anti-entropy pass: every stored copy is
// reported to its current beacon point, grouped into one /reconcile call
// per beacon. Copies the beacon rules stale (Keep=false) are dropped from
// the store. Beacons that are down or unreachable are skipped — their
// copies are retried on the next pass. Returns how many copies were
// reported and how many were dropped as stale.
//
// The pass also settles the holder lists: pending drops are flushed first,
// every live beacon gets a report (an empty one where this node stores
// nothing it owns), and whatever a beacon still lists this node for beyond
// the report is dropped before the pass ends. After it a reachable beacon
// lists this node for exactly what it stores; between passes a listed
// non-holder lasts at most one reconcile interval. The report's sequence
// number is drawn before the store is read, so a copy evicted after that
// is dropped under a newer number.
func (n *CacheNode) Reconcile(ctx context.Context) (reported, dropped int) {
	n.resubscribeDegraded(ctx)
	n.flushDrops(ctx)
	seq := n.nextSeq()
	urls := n.store.Documents()
	sort.Strings(urls) // deterministic report order
	entries := make(map[string][]ReconcileEntry)
	for _, url := range urls {
		cp, ok := n.store.Peek(url)
		if !ok {
			continue
		}
		beaconName, _, err := n.beaconURL(url)
		if err != nil {
			continue
		}
		entries[beaconName] = append(entries[beaconName], ReconcileEntry{URL: url, Version: cp.Doc.Version})
	}
	for _, peer := range n.peers {
		var resp ReconcileResponse
		if peer == n.name {
			// The node's own name is always a known holder.
			resp, _ = n.dir.reconcile(n.name, seq, entries[peer])
		} else {
			if n.isDown(peer) {
				continue
			}
			req := ReconcileRequest{Node: n.name, Seq: seq, Entries: entries[peer]}
			if err := n.tp.PostJSON(ctx, n.cfg.Addrs[peer]+"/reconcile", req, &resp); err != nil {
				continue
			}
		}
		for _, res := range resp.Results {
			reported++
			if res.Owned && !res.Keep {
				if n.store.Remove(res.URL) {
					dropped++
				}
			}
		}
		n.enqueueDrops(resp.Unreported)
	}
	n.flushDrops(ctx)
	return reported, dropped
}

// StartReconcile begins the periodic holder-side anti-entropy pass. The
// returned stop function is idempotent and safe to call concurrently.
func (n *CacheNode) StartReconcile(interval time.Duration) (stop func()) {
	return every(n.clock, interval, false, func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		n.Reconcile(ctx)
	})
}

// --- white-box inspection accessors (deterministic simulation harness) ---

// Records returns a sorted snapshot of the lookup records this node owns
// as beacon, with holder lists sorted.
func (n *CacheNode) Records() []WireRecord { return n.dir.snapshot(false) }

// ReplicaSnapshot returns a sorted snapshot of the sibling replicas this
// node holds (not owned; promotion candidates after a crash).
func (n *CacheNode) ReplicaSnapshot() []WireRecord { return n.dir.snapshot(true) }

// StoredVersions returns the URL → version map of the documents in this
// node's store.
func (n *CacheNode) StoredVersions() map[string]document.Version {
	out := make(map[string]document.Version)
	for _, url := range n.store.Documents() {
		if cp, ok := n.store.Peek(url); ok {
			out[url] = cp.Doc.Version
		}
	}
	return out
}

// ShieldDegraded returns how many upstream fetches bypassed an
// unreachable shield tier and went straight to the origin (white-box
// accessor for the deterministic harness: such copies carry no shield
// subscription until the next reconcile re-attaches them).
func (n *CacheNode) ShieldDegraded() int64 {
	if n.shieldDegraded == nil {
		return 0
	}
	return n.shieldDegraded.Value()
}

// AssignmentsView returns this node's current view of the sub-range
// layout.
func (n *CacheNode) AssignmentsView() Assignments {
	return n.dir.route().assign
}

// StartHeartbeat begins reporting liveness to the origin every interval.
// The first beat is sent immediately so detection starts fresh. The
// returned stop function is idempotent and safe to call concurrently.
func (n *CacheNode) StartHeartbeat(interval time.Duration) (stop func()) {
	return every(n.clock, interval, true, n.sendHeartbeat)
}

// sendHeartbeat posts one beat. RecordsHeld rides along so the origin
// knows how many lookup records are at stake if this node crashes: those
// that are not empty (record.empty).
func (n *CacheNode) sendHeartbeat() {
	_, records, _ := n.dir.counts()
	req := HeartbeatRequest{
		Node:        n.name,
		Seq:         n.hbSeq.Add(1),
		RecordsHeld: records,
		StoredDocs:  n.store.Len(),
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	var hr HeartbeatResponse
	_ = n.tp.PostJSON(ctx, n.cfg.OriginAddr+"/heartbeat", req, &hr)
}
