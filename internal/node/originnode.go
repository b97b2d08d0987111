package node

import (
	"cmp"
	"context"
	"fmt"
	"maps"
	"net/http"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cachecloud/internal/document"
	"cachecloud/internal/loadstats"
	"cachecloud/internal/obs"
	"cachecloud/internal/ring"
)

// OriginNode is the live origin server. Besides serving fetches and
// publishing updates, it executes the periodic sub-range determination
// process: it collects load reports from the beacon points of each ring,
// feeds them to its beacon rings (internal/ring), and installs the new
// assignments on every node (the paper notes the process may run at any
// beacon point and that the origin server is informed of the results; a
// single deterministic coordinator keeps the live protocol simple).
type OriginNode struct {
	cfg    ClusterConfig
	tp     Transport
	clock  Clock
	served servedConns // connections served from the node's own loop (serve.go)
	// shieldBases are the addressable shields' base URLs in name order, so
	// every multi-shield pass (publish fan-out, purge forwarding, installs)
	// is deterministic.
	shieldBases []string
	// shieldBits is each addressable shield's bit in originDoc.declined, by
	// name (0 past the 32nd).
	shieldBits map[string]uint32

	// The master topology: one beacon ring per configured ring, kept for
	// the origin's whole life. topoMu serialises its writers — Rebalance,
	// declareDead, Readmit — from their first read of the topology to the
	// end of their install, their own network calls included (what Cloud.mu
	// does for core.Cloud), so none of them computes from a layout another
	// is changing. Nothing on a request path takes it.
	topoMu sync.Mutex
	rings  []*ring.Ring
	// view is what the writers publish: the rings rendered as Assignments,
	// and the nodes declared dead (probe or heartbeat). /publish, /purge,
	// /heartbeat and the accessors read it without a lock.
	view atomic.Pointer[routeView]

	mu          sync.Mutex           // guards the fields below, never held across a call
	docs        []originDoc          // sorted by URL, never grown: its length needs no lock, an entry's address stays valid
	purgeGen    map[string]int64     // per-URL global purge generation (monotonic)
	lastSeen    map[string]time.Time // last heartbeat arrival per node
	recordsHeld map[string]int       // records reported in each node's last beat
	started     time.Time

	// fetchInFlight / fetchHighWater track concurrent /fetch serving;
	// the chaos storm harness asserts the high water stays within the
	// cache nodes' summed adaptive limits.
	fetchInFlight  atomic.Int64
	fetchHighWater atomic.Int64

	reg         *obs.Registry
	heartbeats  *obs.Counter
	recordsLost *obs.Counter
	recordsRec  *obs.Counter
	rejoins     *obs.Counter
	fetches     *obs.Counter
	updates     *obs.Counter
	skipped     *obs.Counter // /supdates not sent: the shield held no copy
	bytesOut    *obs.Counter
	rebalances  *obs.Counter
	repairs     *obs.Counter
	rebalanceMs *obs.Histogram
	publishMs   *obs.Histogram
}

// originDoc is one catalog document and what the origin knows of the
// shields' copies of it.
type originDoc struct {
	document.Document
	// declined has bit i set while shield i (in shieldBases order) is known
	// to hold no copy: it answered an /supdate Held: false and no /fetch of
	// the URL that names it, or names no shield, has been served since. A
	// publish skips those shields. Shields past the 32nd have no bit (the
	// shift yields 0) and are always sent it.
	declined uint32
	// fetches counts the /fetches of the URL served. A Held: false reply
	// sets its shield's bit only if the count has not moved since the
	// publish read the mask: a fetch served in between may be that shield's.
	fetches uint32
}

// NewOriginNode constructs the origin with its document catalog.
func NewOriginNode(cfg ClusterConfig, docs []document.Document) (*OriginNode, error) {
	return NewOriginNodeWithTransport(cfg, docs, nil)
}

// NewOriginNodeWithTransport constructs an origin whose outbound calls go
// through the given transport (tests inject the chaos transport here); nil
// selects the origin's own.
func NewOriginNodeWithTransport(cfg ClusterConfig, docs []document.Document, tp Transport) (*OriginNode, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	rings := newRings(cfg, true)
	clock := clockOrReal(cfg.Clock)
	if tp == nil {
		tp = NewHTTPTransport(TransportOptions{Clock: clock})
	}
	o := &OriginNode{
		cfg:         cfg,
		tp:          tp,
		clock:       clock,
		rings:       rings,
		docs:        newCatalog(docs),
		purgeGen:    make(map[string]int64),
		lastSeen:    make(map[string]time.Time),
		recordsHeld: make(map[string]int),
		started:     clock.Now(),
	}
	o.view.Store(newRouteView(cfg.IntraGen, layoutOf(rings)))
	shields := append([]string(nil), cfg.Shields...)
	sort.Strings(shields)
	o.shieldBits = make(map[string]uint32, len(shields))
	for i, name := range shields {
		o.shieldBits[name] = uint32(1) << i
		o.shieldBases = append(o.shieldBases, cfg.ShieldAddrs[name])
	}
	o.initMetrics()
	return o, nil
}

// newCatalog sorts docs by URL into the origin's catalog, each at version 1
// or above. Of a URL listed twice the later entry is kept.
func newCatalog(docs []document.Document) []originDoc {
	cat := make([]originDoc, len(docs))
	for i, d := range docs {
		d.Version = max(d.Version, 1)
		cat[len(docs)-1-i] = originDoc{Document: d} // the later entry first
	}
	slices.SortStableFunc(cat, func(a, b originDoc) int { return cmp.Compare(a.URL, b.URL) })
	return slices.CompactFunc(cat, func(a, b originDoc) bool { return a.URL == b.URL })
}

// doc returns url's catalog entry, or nil. Caller holds mu.
func (o *OriginNode) doc(url string) *originDoc {
	i, ok := slices.BinarySearchFunc(o.docs, url, func(d originDoc, url string) int { return cmp.Compare(d.URL, url) })
	if !ok {
		return nil
	}
	return &o.docs[i]
}

// initMetrics builds the origin's metrics registry: counters for served
// traffic and recovery actions, gauge callbacks over the membership view,
// and latency histograms for the coordination paths.
func (o *OriginNode) initMetrics() {
	reg := obs.NewRegistry("cachecloud_origin", nil)
	o.reg = reg
	o.fetches = reg.Counter("fetches_total")
	o.updates = reg.Counter("updates_total")
	o.skipped = reg.Counter("supdates_skipped_total")
	o.bytesOut = reg.Counter("bytes_sent_total")
	o.rebalances = reg.Counter("rebalances_total")
	o.repairs = reg.Counter("repairs_total")
	o.heartbeats = reg.Counter("heartbeats_total")
	o.recordsLost = reg.Counter("records_lost_total")
	o.recordsRec = reg.Counter("records_recovered_total")
	o.rejoins = reg.Counter("rejoins_total")
	bounds := obs.DefaultLatencyBounds()
	o.rebalanceMs = reg.Histogram("rebalance_ms", bounds)
	o.publishMs = reg.Histogram("publish_ms", bounds)
	reg.GaugeFunc("documents", func() float64 { return float64(len(o.docs)) })
	reg.GaugeFunc("nodes_down", func() float64 { return float64(len(o.view.Load().down)) })
	reg.GaugeFunc("nodes_configured", func() float64 { return float64(len(o.cfg.Addrs)) })
	reg.GaugeFunc("ring_count", func() float64 { return float64(len(o.rings)) })
	reg.GaugeFunc("intra_ring_hash_n", func() float64 { return float64(o.cfg.IntraGen) })
	reg.GaugeFunc("uptime_seconds", func() float64 { return o.clock.Since(o.started).Seconds() })
	reg.GaugeFunc("fetch_inflight", func() float64 { return float64(o.fetchInFlight.Load()) })
	reg.GaugeFunc("fetch_inflight_highwater", func() float64 { return float64(o.fetchHighWater.Load()) })
}

// FetchHighWater returns the maximum number of /fetch requests ever
// served concurrently (white-box accessor for the storm harness).
func (o *OriginNode) FetchHighWater() int64 { return o.fetchHighWater.Load() }

// Metrics exposes the origin's metrics registry.
func (o *OriginNode) Metrics() *obs.Registry { return o.reg }

// Close closes the connections the origin serves and the idle ones it
// holds to the cluster's addresses.
func (o *OriginNode) Close() error {
	o.served.close(nil)
	closeIdlePeerConns(o.cfg)
	return nil
}

// Handler returns the origin's HTTP handler.
func (o *OriginNode) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /fetch", o.handleFetch)
	mux.HandleFunc("GET /versions", o.handleVersions)
	mux.HandleFunc("POST /publish", o.handlePublish)
	mux.HandleFunc("POST /purge", o.handlePurge)
	mux.HandleFunc("POST /rebalance", o.handleRebalance)
	mux.HandleFunc("POST /replicate", o.handleReplicate)
	mux.HandleFunc("POST /repair", o.handleRepair)
	mux.HandleFunc("POST /heartbeat", o.handleHeartbeat)
	mux.HandleFunc("GET /stats", o.handleStats)
	mux.HandleFunc("GET /metrics", o.handleMetrics)
	return o.served.handler(mux)
}

func (o *OriginNode) handleFetch(w http.ResponseWriter, r *http.Request) {
	cur := o.fetchInFlight.Add(1)
	defer o.fetchInFlight.Add(-1)
	for {
		hw := o.fetchHighWater.Load()
		if cur <= hw || o.fetchHighWater.CompareAndSwap(hw, cur) {
			break
		}
	}
	// Honor a propagated deadline: a caller that already gave up gets a
	// timeout instead of a payload nobody reads.
	ctx, cancel := requestContext(r)
	defer cancel()
	if err := ctx.Err(); err != nil {
		writeErr(w, http.StatusGatewayTimeout, err)
		return
	}
	u, _, _ := queryArg(r.URL.RawQuery, "url")
	by, _, _ := queryArg(r.URL.RawQuery, "shield")
	bit, named := o.shieldBits[by]
	if !named {
		bit = ^uint32(0)
	}
	o.mu.Lock()
	d := o.doc(u)
	if d == nil {
		o.mu.Unlock()
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown document %q", u))
		return
	}
	// The shield the fetch names may hold a copy from here on; a fetch that
	// names none the origin knows may be any shield's.
	d.declined &^= bit
	d.fetches++
	doc, gen := d.Document, o.purgeGen[u]
	o.mu.Unlock()
	o.fetches.Inc()
	o.bytesOut.Add(doc.Size)
	writeJSON(w, http.StatusOK, FetchResponse{Doc: doc, PurgeGen: gen})
}

// handleVersions serves the full catalog's version and purge-generation
// maps — the anti-entropy feed shields reconcile against.
func (o *OriginNode) handleVersions(w http.ResponseWriter, r *http.Request) {
	o.mu.Lock()
	vr := VersionsResponse{
		Versions: make(map[string]document.Version, len(o.docs)),
		PurgeGen: make(map[string]int64, len(o.purgeGen)),
	}
	for _, d := range o.docs {
		vr.Versions[d.URL] = d.Version
	}
	for url, g := range o.purgeGen {
		vr.PurgeGen[url] = g
	}
	o.mu.Unlock()
	writeJSON(w, http.StatusOK, vr)
}

func (o *OriginNode) handlePublish(w http.ResponseWriter, r *http.Request) {
	t0 := o.clock.Now()
	defer func() { o.publishMs.Observe(float64(o.clock.Since(t0)) / float64(time.Millisecond)) }()
	var req PublishRequest
	if err := readJSON(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	o.mu.Lock()
	cur := o.doc(req.URL)
	if cur == nil {
		o.mu.Unlock()
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown document %q", req.URL))
		return
	}
	cur.Version++
	d := *cur
	o.mu.Unlock()
	o.updates.Inc()
	o.bytesOut.Add(d.Size)
	if len(o.cfg.Shields) == 0 {
		var ur UpdateResponse
		if o.pushBeacon(w, r, req.URL, "/update", UpdateRequest{Doc: d.Document}, &ur) {
			writeJSON(w, http.StatusOK, PublishResponse{Version: d.Version, Notified: ur.Notified})
		}
		return
	}
	// Two-tier mode: the origin sends one versioned update per shield that
	// may hold the document, regardless of how many clouds subscribe — the
	// O(clouds) → O(shields) collapse. Each shield fans the update to its
	// clouds.
	resp := PublishResponse{Version: d.Version}
	var declined uint32
	body := sharedBody(UpdateRequest{Doc: d.Document})
	for i, base := range o.shieldBases {
		bit := uint32(1) << i
		if d.declined&bit != 0 {
			resp.ShieldsSkipped++
			continue
		}
		var sur ShieldUpdateResponse
		if e := o.tp.PostJSON(r.Context(), base+"/supdate", body, &sur); e != nil {
			continue // crashed shield catches up at its next resync
		}
		resp.ShieldsNotified++
		resp.Notified += sur.CloudsNotified
		if !sur.Held {
			declined |= bit
		}
	}
	o.skipped.Add(int64(resp.ShieldsSkipped))
	if declined != 0 {
		o.mu.Lock()
		if cur.fetches == d.fetches {
			cur.declined |= declined
		}
		o.mu.Unlock()
	}
	writeJSON(w, http.StatusOK, resp)
}

// pushBeacon posts body to path on the beacon point of url, or, when the
// beacon is unreachable, on its ring sibling, which holds the lazy replica
// of its records, so that the push is not lost. When neither takes it the
// error reply is written and false returned.
func (o *OriginNode) pushBeacon(w http.ResponseWriter, r *http.Request, url, path string, body, out any) bool {
	v := o.view.Load()
	beacon, base, err := v.beaconAddr(o.cfg.Addrs, url)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return false
	}
	err = o.tp.PostJSON(r.Context(), base+path, body, out)
	if err != nil {
		if sib, ok := v.sibling(beacon); ok {
			err = o.tp.PostJSON(r.Context(), o.cfg.Addrs[sib]+path, body, out)
		}
	}
	if err != nil {
		writeErr(w, http.StatusBadGateway, err)
		return false
	}
	return true
}

// handlePurge invalidates a document across the hierarchy. Scope "global"
// bumps the URL's purge generation and tells every shield to drop its copy
// and purge every subscribed cloud; scope "cloud" forwards a purge of one
// cloud's copies without touching shield state. In single-tier mode the
// purge goes straight to the document's beacon point.
func (o *OriginNode) handlePurge(w http.ResponseWriter, r *http.Request) {
	var req PurgeRequest
	if err := readJSON(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if req.Scope != PurgeScopeGlobal && req.Scope != PurgeScopeCloud {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("unknown purge scope %q", req.Scope))
		return
	}
	o.mu.Lock()
	if o.doc(req.URL) == nil {
		o.mu.Unlock()
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown document %q", req.URL))
		return
	}
	if req.Scope == PurgeScopeGlobal {
		o.purgeGen[req.URL]++
		req.Gen = o.purgeGen[req.URL]
	}
	o.mu.Unlock()

	var resp PurgeResponse
	if len(o.cfg.Shields) > 0 {
		body := sharedBody(req)
		for _, base := range o.shieldBases {
			var pr PurgeResponse
			if e := o.tp.PostJSON(r.Context(), base+"/spurge", body, &pr); e != nil {
				continue // crashed shield applies the generation at resync
			}
			resp.ShieldsNotified++
			resp.Dropped += pr.Dropped
		}
		writeJSON(w, http.StatusOK, resp)
		return
	}
	var pr PurgeResponse
	if o.pushBeacon(w, r, req.URL, "/purge", req, &pr) {
		resp.Dropped = pr.Dropped
		writeJSON(w, http.StatusOK, resp)
	}
}

// PurgeGens returns the current global purge generation of every URL that
// has ever been globally purged (white-box accessor for the simulation
// harness's scoped-purge completeness checks).
func (o *OriginNode) PurgeGens() map[string]int64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make(map[string]int64, len(o.purgeGen))
	for url, g := range o.purgeGen {
		out[url] = g
	}
	return out
}

// handleRebalance runs one sub-range determination cycle across all rings.
func (o *OriginNode) handleRebalance(w http.ResponseWriter, r *http.Request) {
	resp, err := o.Rebalance()
	if err != nil {
		writeErr(w, http.StatusBadGateway, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// Rebalance collects cycle loads from every beacon point, has each ring
// re-determine its sub-ranges (ring.Rebalance) and installs the new layout
// on all nodes (triggering record handoffs between them).
func (o *OriginNode) Rebalance() (RebalanceResponse, error) {
	t0 := o.clock.Now()
	defer func() { o.rebalanceMs.Observe(float64(o.clock.Since(t0)) / float64(time.Millisecond)) }()
	o.topoMu.Lock()
	defer o.topoMu.Unlock()

	// Collect per-IrH loads from every live node.
	ctx := context.Background()
	reports := make(map[string]LoadReport)
	for _, p := range o.liveAddrs() {
		var rep LoadReport
		if err := o.tp.PostJSON(ctx, p.base+"/loads/collect", struct{}{}, &rep); err != nil {
			return RebalanceResponse{}, fmt.Errorf("collect loads from %s: %w", p.name, err)
		}
		reports[p.name] = rep
	}

	// Replay each beacon point's report into its ring. Only the load of
	// values inside the point's sub-range counts: what it reports for a
	// value it handed off belongs to a range that has a new owner.
	moves := 0
	for ringIdx, rg := range o.rings {
		for _, a := range rg.Assignments() {
			for irh, load := range reports[a.ID].PerIrH[ringIdx] {
				if load != 0 && a.Sub.Contains(irh) {
					// Cannot fail: irh lies in a sub-range rg itself reported.
					_ = rg.Record(irh, loadstats.Lookup, load)
				}
			}
		}
		moves += len(rg.Rebalance())
	}
	next := o.publish(o.view.Load().down)
	o.rebalances.Inc()

	// Install everywhere; nodes hand off records among themselves.
	if _, err := o.installAssignments(ctx, next); err != nil {
		return RebalanceResponse{}, err
	}
	return RebalanceResponse{Moves: moves}, nil
}

// publish renders the rings, puts the rendering and the dead set in force
// as the origin's view and returns the layout. Caller holds topoMu.
func (o *OriginNode) publish(down map[string]bool) Assignments {
	next := layoutOf(o.rings)
	o.view.Store(o.view.Load().with(next, down))
	return next
}

// installAssignments posts the layout to every live node and sums the
// replica promotions they report. Unreachable nodes do not abort the
// install (they may be mid-crash); the first error is returned after all
// nodes were attempted.
func (o *OriginNode) installAssignments(ctx context.Context, next Assignments) (promoted int, err error) {
	for _, p := range o.liveAddrs() {
		var sr SubrangesResponse
		if e := o.tp.PostJSON(ctx, p.base+"/subranges", next, &sr); e != nil {
			if err == nil {
				err = fmt.Errorf("install assignment on %s: %w", p.name, e)
			}
			continue
		}
		promoted += sr.Promoted
	}
	// Shields route their fan-out through the same beacon layout, so the
	// install reaches them too (an unreachable shield re-learns the layout
	// implicitly: its stale view still names live nodes after merges).
	for _, base := range o.shieldBases {
		_ = o.tp.PostJSON(ctx, base+"/subranges", next, nil)
	}
	return promoted, err
}

// broadcastMembership tells every live node which peers are down.
func (o *OriginNode) broadcastMembership(ctx context.Context) {
	down := o.DownNodes()
	for _, p := range o.liveAddrs() {
		_ = o.tp.PostJSON(ctx, p.base+"/membership", MembershipUpdate{Down: down}, nil)
	}
}

// peerAddr is one live node the origin can reach.
type peerAddr struct{ name, base string }

// liveAddrs returns the nodes not marked down, sorted by name. The fixed
// order keeps every multi-node pass (installs, broadcasts, probes)
// deterministic, which the simulation harness relies on for
// byte-identical replays.
func (o *OriginNode) liveAddrs() []peerAddr {
	down := o.view.Load().down
	out := make([]peerAddr, 0, len(o.cfg.Addrs))
	for name, base := range o.cfg.Addrs {
		if !down[name] {
			out = append(out, peerAddr{name: name, base: base})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// TriggerReplication asks every live beacon point to push its lookup
// records to its ring sibling (the lazy replication pass). Returns the
// number of nodes that replicated.
func (o *OriginNode) TriggerReplication() (int, error) {
	ctx := context.Background()
	done := 0
	for _, p := range o.liveAddrs() {
		if err := o.tp.PostJSON(ctx, p.base+"/replicate", struct{}{}, nil); err != nil {
			return done, fmt.Errorf("replicate on %s: %w", p.name, err)
		}
		done++
	}
	return done, nil
}

// CheckNodes probes every live node's /healthz and returns the ones that
// did not answer.
func (o *OriginNode) CheckNodes() []string {
	var dead []string
	for _, p := range o.liveAddrs() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		var reply map[string]string
		if err := o.tp.GetJSON(ctx, p.base+"/healthz", &reply); err != nil {
			dead = append(dead, p.name)
		}
		cancel()
	}
	sort.Strings(dead)
	return dead
}

// RepairResponse answers POST /repair.
type RepairResponse struct {
	Removed []string `json:"removed"`
}

// Repair runs one failure-handling pass: probe all nodes, remove the dead
// ones from the sub-range layout (each dead beacon's ranges merge into its
// ring neighbour), and install the repaired assignment on the survivors —
// which promote their replicas for the ranges they now own.
func (o *OriginNode) Repair() (RepairResponse, error) {
	return o.declareDead(context.Background(), o.CheckNodes())
}

// declareDead runs the recovery path for a set of crashed nodes: merge
// their sub-ranges into ring neighbours (ring.Remove), account the lookup
// records they took down (RecordsLost, from their last heartbeat), install
// the repaired layout on the survivors — whose replica promotions are
// summed into RecordsRecovered — and broadcast the membership change.
func (o *OriginNode) declareDead(ctx context.Context, dead []string) (RepairResponse, error) {
	if len(dead) == 0 {
		return RepairResponse{}, nil
	}
	o.topoMu.Lock()
	defer o.topoMu.Unlock()
	v := o.view.Load()
	down := maps.Clone(v.down)
	var lost int64
	var removed []string
	for _, name := range dead {
		if down[name] {
			continue
		}
		if r, ok := v.home[name]; ok {
			if _, err := o.rings[r].Remove(name); err != nil {
				o.publish(down) // the nodes removed before this one stay removed
				return RepairResponse{}, fmt.Errorf("node: cannot repair ring %d without %q: %w", r, name, err)
			}
		}
		down[name] = true
		o.mu.Lock()
		lost += int64(o.recordsHeld[name])
		o.mu.Unlock()
		removed = append(removed, name)
	}
	if len(removed) == 0 {
		return RepairResponse{}, nil
	}
	next := o.publish(down)
	o.repairs.Inc()
	o.recordsLost.Add(lost)
	if tr := o.cfg.Tracer; tr != nil {
		now := o.uptime()
		for _, name := range removed {
			tr.Emit(obs.Event{Time: now, Kind: obs.EvNodeDead, Node: name})
		}
	}
	promoted, err := o.installAssignments(ctx, next)
	o.recordsRec.Add(int64(promoted))
	if err != nil {
		return RepairResponse{Removed: removed}, err
	}
	o.broadcastMembership(ctx)
	return RepairResponse{Removed: removed}, nil
}

// handleHeartbeat receives a cache node's liveness beat. A beat from a
// node previously declared dead triggers re-admission: it gets a sub-range
// back and the membership change is re-broadcast.
func (o *OriginNode) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if err := readJSON(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if _, known := o.cfg.Addrs[req.Node]; !known {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("unknown node %q", req.Node))
		return
	}
	o.heartbeats.Inc()
	o.mu.Lock()
	o.lastSeen[req.Node] = o.clock.Now()
	o.recordsHeld[req.Node] = req.RecordsHeld
	o.mu.Unlock()
	rejoined := false
	if o.view.Load().down[req.Node] {
		if err := o.Readmit(r.Context(), req.Node); err == nil {
			rejoined = true
		}
	}
	writeJSON(w, http.StatusOK, HeartbeatResponse{Rejoined: rejoined})
}

// Readmit re-admits a previously dead node: the widest sub-range in its
// configured ring is split and the upper half handed to the rejoiner
// (ring.Add), the new layout is installed everywhere (migrating the records
// it now owns back to it), and membership is re-broadcast.
func (o *OriginNode) Readmit(ctx context.Context, name string) error {
	o.topoMu.Lock()
	defer o.topoMu.Unlock()
	v := o.view.Load()
	if !v.down[name] {
		return nil
	}
	r, ok := v.home[name]
	if !ok {
		return fmt.Errorf("node: %q is not in any configured ring", name)
	}
	if _, err := o.rings[r].Add(ring.Member{ID: name, Capability: 1}); err != nil {
		return fmt.Errorf("node: ring %d cannot take %q back: %w", r, name, err)
	}
	down := maps.Clone(v.down)
	delete(down, name)
	next := o.publish(down)
	o.rejoins.Inc()
	if tr := o.cfg.Tracer; tr != nil {
		tr.Emit(obs.Event{Time: o.uptime(), Kind: obs.EvNodeRejoin, Node: name})
	}
	if _, err := o.installAssignments(ctx, next); err != nil {
		return err
	}
	o.broadcastMembership(ctx)
	return nil
}

// SweepFailures declares dead every node whose last heartbeat is older
// than maxAge and runs the recovery path on them. Nodes that have never
// heartbeated are left alone (heartbeats may be disabled or still
// starting), as are nodes already down.
func (o *OriginNode) SweepFailures(maxAge time.Duration) (RepairResponse, error) {
	now := o.clock.Now()
	down := o.view.Load().down
	o.mu.Lock()
	var dead []string
	for name := range o.cfg.Addrs {
		if down[name] {
			continue
		}
		if seen, ok := o.lastSeen[name]; ok && now.Sub(seen) > maxAge {
			dead = append(dead, name)
		}
	}
	o.mu.Unlock()
	sort.Strings(dead)
	return o.declareDead(context.Background(), dead)
}

// StartFailureDetector sweeps heartbeat freshness every interval; a node
// whose last beat is older than k intervals (K missed beats) is declared
// dead and the recovery path runs. The returned stop function is
// idempotent and safe to call concurrently.
func (o *OriginNode) StartFailureDetector(interval time.Duration, k int) (stop func()) {
	if k < 1 {
		k = 1
	}
	maxAge := time.Duration(k) * interval
	return every(o.clock, interval, false, func() { _, _ = o.SweepFailures(maxAge) })
}

func (o *OriginNode) handleReplicate(w http.ResponseWriter, r *http.Request) {
	n, err := o.TriggerReplication()
	if err != nil {
		writeErr(w, http.StatusBadGateway, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{"nodes": n})
}

func (o *OriginNode) handleRepair(w http.ResponseWriter, r *http.Request) {
	resp, err := o.Repair()
	if err != nil {
		writeErr(w, http.StatusBadGateway, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (o *OriginNode) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, o.Stats())
}

// Stats returns a snapshot of the origin's counters (test and tooling
// convenience mirroring GET /stats).
func (o *OriginNode) Stats() OriginStats {
	return OriginStats{
		Documents:        len(o.docs),
		Fetches:          o.fetches.Value(),
		Updates:          o.updates.Value(),
		BytesServed:      o.bytesOut.Value(),
		Rebalances:       o.rebalances.Value(),
		Repairs:          o.repairs.Value(),
		Heartbeats:       o.heartbeats.Value(),
		NodesDown:        len(o.view.Load().down),
		FetchInFlight:    o.fetchInFlight.Load(),
		FetchHighWater:   o.fetchHighWater.Load(),
		RecordsLost:      o.recordsLost.Value(),
		RecordsRecovered: o.recordsRec.Value(),
		Rejoins:          o.rejoins.Value(),
	}
}

// uptime is the origin's logical clock for trace events: whole seconds
// since construction.
func (o *OriginNode) uptime() int64 {
	return int64(o.clock.Since(o.started).Seconds())
}

// Assignments returns the origin's current view of the sub-range layout.
func (o *OriginNode) Assignments() Assignments { return o.view.Load().assign }

// DocVersions returns the current version of every catalog document —
// the ground truth the simulation harness checks staleness against.
func (o *OriginNode) DocVersions() map[string]document.Version {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make(map[string]document.Version, len(o.docs))
	for _, d := range o.docs {
		out[d.URL] = d.Version
	}
	return out
}

// DownNodes returns the sorted names of nodes currently declared dead.
func (o *OriginNode) DownNodes() []string { return sortedKeys(o.view.Load().down) }
