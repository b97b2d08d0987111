package node

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cachecloud/internal/document"
	"cachecloud/internal/obs"
	"cachecloud/internal/ring"
)

// liveCloud names the cluster's cloud inside the shield tier. Shield-ring
// placement hashes it exactly as a URL hashes into a beacon ring.
const liveCloud = "cloud0"

// ShieldRouter resolves which shield serves a cloud — the recursive reuse
// of the beacon-ring machinery: the shields form a ring (internal/ring)
// and the cloud ID hashes into its intra-ring range exactly as a URL
// hashes into a beacon ring. Failover walks the ring order from the
// owner, the same sibling discipline beacon rings use.
type ShieldRouter struct {
	order []string // sorted shield names
	start int      // ring position of this cloud's owning shield
	addrs map[string]string
}

// NewShieldRouter builds the cloud-side router from the cluster config.
// Returns (nil, nil) when no shield tier is configured.
func NewShieldRouter(cfg ClusterConfig) (*ShieldRouter, error) {
	if len(cfg.Shields) == 0 {
		return nil, nil
	}
	order := append([]string(nil), cfg.Shields...)
	sort.Strings(order)
	members := make([]ring.Member, len(order))
	for i, id := range order {
		members[i] = ring.Member{ID: id, Capability: 1}
	}
	rg, err := ring.New(ring.Config{IntraGen: cfg.IntraGen}, members)
	if err != nil {
		return nil, fmt.Errorf("node: shield ring: %w", err)
	}
	owner, err := rg.BeaconFor(document.HashURL(liveCloud).IrH(cfg.IntraGen))
	if err != nil {
		return nil, fmt.Errorf("node: shield ring: %w", err)
	}
	r := &ShieldRouter{order: order, addrs: cfg.ShieldAddrs}
	for i, id := range order {
		if id == owner {
			r.start = i
		}
	}
	return r, nil
}

// Owner returns this cloud's owning shield.
func (r *ShieldRouter) Owner() string { return r.order[r.start] }

// Walk returns the shields' base URLs in failover order: the cloud's
// owner first, then the rest of the ring in order.
func (r *ShieldRouter) Walk() []string {
	out := make([]string, 0, len(r.order))
	for i := 0; i < len(r.order); i++ {
		name := r.order[(r.start+i)%len(r.order)]
		if base, ok := r.addrs[name]; ok {
			out = append(out, base)
		}
	}
	return out
}

// shieldFetch retrieves a document through the shield ring, walking it in
// failover order from this cloud's owner. The cloud's current version (the
// staleness hint) rides along so a stale shield refreshes from the origin
// before answering — cloud versions never regress across shield failover.
// The fetch also (re-)subscribes this cloud to the serving shield's
// fan-out. Fails only when every shield is unreachable.
func (n *CacheNode) shieldFetch(ctx context.Context, url string, version document.Version) (FetchResponse, error) {
	q := "/sfetch?url=" + queryEscape(url) + "&cloud=" + liveCloud +
		"&v=" + strconv.FormatUint(uint64(version), 10)
	var lastErr error
	for i, base := range n.shieldRouter.Walk() {
		var sr ShieldFetchResponse
		if err := n.tp.GetJSON(ctx, base+q, &sr); err != nil {
			if errors.Is(err, ErrNotFound) {
				return FetchResponse{}, err // the origin's answer, relayed: no other shield has a better one
			}
			lastErr = err
			continue
		}
		n.shieldFetches.Inc()
		if i > 0 {
			n.shieldFailover.Inc()
		}
		if sr.ShieldHit {
			n.shieldHits.Inc()
		}
		return FetchResponse{Doc: sr.Doc}, nil
	}
	if lastErr == nil {
		lastErr = errors.New("node: no shield addresses configured")
	}
	return FetchResponse{}, lastErr
}

// fetchUpstream retrieves a document from the next tier up: the shield
// ring in two-tier mode, the origin directly otherwise. When every shield
// is unreachable the fetch degrades to a direct origin hit and the URL is
// marked degraded — the copy has no shield subscription, so the next
// reconcile pass re-attaches it (see resubscribeDegraded).
func (n *CacheNode) fetchUpstream(ctx context.Context, url string, version document.Version) (FetchResponse, error) {
	if n.shieldRouter == nil {
		return originFetchJSON(ctx, n.tp, n.cfg.OriginAddr, url)
	}
	fr, err := n.shieldFetch(ctx, url, version)
	if err == nil || errors.Is(err, ErrNotFound) {
		return fr, err
	}
	fr, err = originFetchJSON(ctx, n.tp, n.cfg.OriginAddr, url)
	if err != nil {
		return FetchResponse{}, err
	}
	n.shieldDegraded.Inc()
	n.mu.Lock()
	n.degradedURLs[url] = true
	n.mu.Unlock()
	return fr, nil
}

// resubscribeDegraded re-attaches copies fetched while the whole shield
// tier was unreachable. A degraded fetch bypassed the shields, so no
// shield carries a subscription for the copy and no publish can refresh
// it. Re-fetching through the ring with the stored version as the hint
// re-subscribes the cloud and refreshes the copy if it went stale; shields
// still unreachable leave the mark in place for the next pass.
func (n *CacheNode) resubscribeDegraded(ctx context.Context) {
	if n.shieldRouter == nil {
		return
	}
	n.mu.Lock()
	urls := make([]string, 0, len(n.degradedURLs))
	for u := range n.degradedURLs {
		urls = append(urls, u)
	}
	n.mu.Unlock()
	sort.Strings(urls)
	for _, url := range urls {
		cp, ok := n.store.Peek(url)
		if !ok {
			n.mu.Lock()
			delete(n.degradedURLs, url)
			n.mu.Unlock()
			continue
		}
		fr, err := n.shieldFetch(ctx, url, cp.Doc.Version)
		if err != nil {
			continue
		}
		if fr.Doc.Version > cp.Doc.Version {
			n.store.ApplyUpdate(fr.Doc, n.now())
			// Peers that copied the degraded copy are as unsubscribed, and
			// now as stale, as it was: refresh every listed holder through
			// the beacon, as the shield's fan-out would have.
			if _, beaconBase, err := n.beaconURL(url); err == nil {
				_ = n.tp.PostJSON(ctx, beaconBase+"/update", UpdateRequest{Doc: fr.Doc}, nil)
			}
		}
		n.mu.Lock()
		delete(n.degradedURLs, url)
		n.mu.Unlock()
	}
}

// ShieldNode is one live shield-tier cache: a cache interposed between the
// edge clouds and the origin. Cloud misses resolve cloud → shield → origin
// (GET /sfetch), the origin pushes one versioned update per publish to each
// shield that may hold the document (POST /supdate), which the shield fans
// out once per subscribed cloud through the cloud's beacon machinery, and
// purges arrive scoped (POST /spurge): global-edge purges evict the shield
// copy and every subscribed cloud, per-cloud purges evict one cloud and
// cancel its subscription while the shield keeps serving everyone else.
//
// The shield tier reuses the beacon-ring machinery recursively: shields
// form their own ring (internal/ring) whose intra-ring range is keyed by
// cloud IDs — see ShieldRouter on the cache-node side. Shield-side
// anti-entropy (Reconcile against the origin's GET /versions) plays the
// role /reconcile plays inside a cloud, and the same durable tier cache
// nodes use (disk) persists the shield's copies across restarts.
type ShieldNode struct {
	name  string
	cfg   ClusterConfig
	tp    Transport
	clock Clock
	start time.Time
	// served is the connections served from the node's own loop (serve.go).
	served servedConns

	mu    sync.Mutex
	table map[string]*shieldEntry // by URL
	// view holds the cloud's beacon sub-range layout, installed by the
	// origin's POST /subranges exactly as on cache nodes: the shield
	// routes its fan-out through the document's current beacon point, and
	// reads the layout without a lock, once per message.
	view atomic.Pointer[routeView]

	disk          disk
	warmBoot      bool
	warmRecovered int

	reg           *obs.Registry
	fetches       *obs.Counter
	shieldHits    *obs.Counter
	originFetches *obs.Counter
	updatesIn     *obs.Counter
	updatesFanned *obs.Counter
	purgesCtr     *obs.Counter
	resyncDrops   *obs.Counter
}

// shieldEntry is one URL's state at a shield; each part can be there
// without the others (a global purge leaves a generation and no copy).
type shieldEntry struct {
	cp   document.Copy // the shield's copy, while held
	held bool
	// fetching counts the origin fetches of the URL in flight (refresh).
	fetching int32
	// purgeGen is the origin purge generation applied; Reconcile drops a
	// held copy whose generation is stale (a global purge the shield missed).
	purgeGen int64
	// subs is the cloud IDs subscribed for update pushes, sorted (the
	// fan-out order): the fetch that serves a cloud adds it, purges and a
	// fan-out that finds no holders left remove it.
	subs []string
}

// entry is the get-or-create of url's table entry. Caller holds sn.mu.
func (sn *ShieldNode) entry(url string) *shieldEntry {
	e, ok := sn.table[url]
	if !ok {
		e = &shieldEntry{}
		sn.table[url] = e
	}
	return e
}

// store makes cp the held copy of e's URL in memory and queues it for the
// disk, which unlock writes. Caller holds sn.mu.
func (sn *ShieldNode) store(e *shieldEntry, cp document.Copy) {
	sn.disk.q.Persist(cp, e.held)
	e.cp, e.held = cp, true
}

// unlock releases sn.mu and then writes what the critical section queued for
// the disk: a seal or compaction in the store stalls only this goroutine.
func (sn *ShieldNode) unlock() {
	q := sn.disk.q
	sn.mu.Unlock()
	q.Drain()
}

// refresh fetches url from the origin into its entry e and returns the copy
// e holds afterwards: the fetched one, or a newer one an update stored while
// the fetch was in flight. Meanwhile e counts the fetch, so that such an
// update is kept rather than declined (handleUpdate). Caller holds sn.mu,
// which is released for the fetch; a failed fetch removes an entry that
// holds nothing else.
func (sn *ShieldNode) refresh(ctx context.Context, url string, e *shieldEntry) (document.Copy, error) {
	e.fetching++
	sn.mu.Unlock()
	fr, err := originFetchJSON(ctx, sn.tp, sn.cfg.OriginAddr, url)
	sn.mu.Lock()
	e.fetching--
	if err != nil {
		if !e.held && e.fetching == 0 && e.purgeGen == 0 && len(e.subs) == 0 {
			delete(sn.table, url)
		}
		return document.Copy{}, err
	}
	sn.originFetches.Inc()
	if !e.held || fr.Doc.Version >= e.cp.Doc.Version {
		sn.store(e, document.Copy{Doc: fr.Doc, FetchedAt: sn.now()})
	}
	e.purgeGen = fr.PurgeGen
	return e.cp, nil
}

// NewShieldNode constructs a live shield node. Its name must appear in the
// cluster config's ShieldAddrs.
func NewShieldNode(name string, cfg ClusterConfig) (*ShieldNode, error) {
	return NewShieldNodeWithTransport(name, cfg, nil)
}

// NewShieldNodeWithTransport constructs a shield node whose outbound calls
// go through the given transport (the simulation harness injects the chaos
// transport here); nil selects the shield's own.
func NewShieldNodeWithTransport(name string, cfg ClusterConfig, tp Transport) (*ShieldNode, error) {
	if _, ok := cfg.ShieldAddrs[name]; !ok {
		return nil, fmt.Errorf("node: shield %q missing from shield addresses", name)
	}
	if cfg.IntraGen <= 0 {
		return nil, fmt.Errorf("node: IntraGen must be positive")
	}
	initial, err := equalSplit(cfg)
	if err != nil {
		return nil, err
	}
	clock := clockOrReal(cfg.Clock)
	if tp == nil {
		tp = NewHTTPTransport(TransportOptions{Clock: clock})
	}
	sn := &ShieldNode{
		name:  name,
		cfg:   cfg,
		tp:    tp,
		clock: clock,
		start: clock.Now(),
		table: make(map[string]*shieldEntry),
	}
	sn.view.Store(newRouteView(cfg.IntraGen, initial))
	sn.initMetrics()
	if err := sn.initDurable(); err != nil {
		return nil, err
	}
	return sn, nil
}

// Name returns the shield's name.
func (sn *ShieldNode) Name() string { return sn.name }

func (sn *ShieldNode) initMetrics() {
	reg := obs.NewRegistry("cachecloud_shield", map[string]string{"shield": sn.name})
	sn.reg = reg
	sn.fetches = reg.Counter("fetches_total")
	sn.shieldHits = reg.Counter("shield_hits_total")
	sn.originFetches = reg.Counter("origin_fetch_total")
	sn.updatesIn = reg.Counter("updates_in_total")
	sn.updatesFanned = reg.Counter("updates_fanned_total")
	sn.purgesCtr = reg.Counter("purges_total")
	sn.resyncDrops = reg.Counter("resync_drops_total")
	reg.GaugeFunc("held_documents", func() float64 { return float64(sn.Stats().HeldDocs) })
	reg.GaugeFunc("subscriptions", func() float64 { return float64(sn.Stats().Subscriptions) })
	reg.GaugeFunc("uptime_seconds", func() float64 {
		return float64(sn.clock.Since(sn.start) / time.Second)
	})
}

// initDurable opens the shield's durable tier as cache nodes open theirs
// (disk.open) and replays the recovered index so a restarted shield resumes
// holding its copies — possibly stale, which Reconcile and fetch staleness
// hints repair — instead of funnelling a cold-miss storm at the origin.
func (sn *ShieldNode) initDurable() error {
	if err := sn.disk.open(sn.cfg, sn.name, sn.reg); err != nil || sn.disk.st == nil {
		return err
	}
	for _, e := range sn.disk.st.Entries() {
		sn.table[e.Doc.URL] = &shieldEntry{cp: e, held: true}
	}
	sn.warmRecovered = len(sn.table)
	sn.warmBoot = sn.warmRecovered > 0
	return nil
}

// Close closes the connections the shield serves and the idle ones it
// holds to the cluster's addresses, then writes what the durable tier has
// queued and seals it (nothing to seal on memory-only shields).
func (sn *ShieldNode) Close() error {
	sn.served.close(nil)
	closeIdlePeerConns(sn.cfg)
	return sn.disk.close()
}

// Handler returns the shield's HTTP handler.
func (sn *ShieldNode) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /sfetch", sn.handleFetch)
	mux.HandleFunc("POST /supdate", sn.handleUpdate)
	mux.HandleFunc("POST /spurge", sn.handlePurge)
	mux.HandleFunc("POST /subranges", sn.handleSubranges)
	mux.HandleFunc("GET /healthz", sn.handleHealthz)
	mux.HandleFunc("GET /stats", sn.handleStats)
	mux.HandleFunc("GET /metrics", sn.handleMetrics)
	return sn.served.handler(mux)
}

func (sn *ShieldNode) now() int64 { return int64(sn.clock.Since(sn.start) / time.Second) }

// handleFetch resolves one cloud miss: serve the held copy when it is at
// least as fresh as the cloud's staleness hint (v=), otherwise refresh
// from the origin first — so a shield that healed after missing a publish
// never moves a cloud's served version backwards. The serving fetch
// subscribes the cloud for this URL's update pushes.
func (sn *ShieldNode) handleFetch(w http.ResponseWriter, r *http.Request) {
	q := r.URL.RawQuery
	url, _, _ := queryArg(q, "url")
	cloudID, _, _ := queryArg(q, "cloud")
	if url == "" || cloudID == "" {
		writeErr(w, http.StatusBadRequest, errors.New("missing url or cloud"))
		return
	}
	if cloudID != liveCloud {
		// No route reaches the cloud: a subscription could never be fanned to.
		writeErr(w, http.StatusBadRequest, fmt.Errorf("unknown cloud %q", cloudID))
		return
	}
	var hint document.Version
	if v, _, _ := queryArg(q, "v"); v != "" {
		if hv, err := strconv.ParseUint(v, 10, 64); err == nil {
			hint = document.Version(hv)
		}
	}
	ctx, cancel := requestContext(r)
	defer cancel()
	sn.fetches.Inc()

	sn.mu.Lock()
	e := sn.entry(url)
	cp, hit := e.cp, e.held && e.cp.Doc.Version >= hint
	if hit {
		sn.shieldHits.Inc()
	} else {
		var err error
		if cp, err = sn.refresh(ctx, url, e); err != nil {
			sn.unlock()
			status := http.StatusBadGateway
			if errors.Is(err, ErrNotFound) {
				// The origin answered: a 502 here would have the cloud's
				// transport retry and charge this shield's breaker.
				status = http.StatusNotFound
			}
			writeErr(w, status, err)
			return
		}
	}
	if i, subscribed := slices.BinarySearch(e.subs, cloudID); !subscribed {
		e.subs = slices.Insert(e.subs, i, liveCloud) // not cloudID, which pins the request line
	}
	sn.unlock()
	writeJSON(w, http.StatusOK, ShieldFetchResponse{Doc: cp.Doc, ShieldHit: hit})
}

// cloudBeacon resolves the beacon base URL a fan-out for url goes to inside
// the cloud. The live layer runs one cloud (liveCloud) per cluster config,
// and handleFetch subscribes no other.
func (sn *ShieldNode) cloudBeacon(url string) (string, bool) {
	_, base, err := sn.view.Load().beaconAddr(sn.cfg.Addrs, url)
	return base, err == nil
}

// handleUpdate receives the origin's versioned update push. A held copy is
// refreshed and fanned out (fanOut). So is an origin fetch in flight: the
// update is stored now, and refresh keeps it over the older copy the fetch
// may bring. A shield with neither answers Held: false without fanning
// (nothing downstream can be subscribed), and the origin sends it no more
// updates of the document until one of its fetches is served. That is why
// the answer is decided under sn.mu, where a copy arrives and leaves
// (purgeGlobal) and a fetch begins, and only once the disk agrees: while a
// write is queued — a purge's tombstone, say — a warm restart could still
// bring back a copy, so the shield answers held and costs one /supdate.
func (sn *ShieldNode) handleUpdate(w http.ResponseWriter, r *http.Request) {
	var req UpdateRequest
	if err := readJSON(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	sn.updatesIn.Inc()
	url := req.Doc.URL

	sn.mu.Lock()
	e := sn.table[url]
	held := e != nil && (e.held || e.fetching > 0)
	if held && (!e.held || req.Doc.Version > e.cp.Doc.Version) {
		sn.store(e, document.Copy{Doc: req.Doc, FetchedAt: sn.now()})
	}
	held = held || sn.disk.q.Pending()
	clouds := sn.sortedSubs(url)
	sn.unlock()

	if !held {
		writeJSON(w, http.StatusOK, ShieldUpdateResponse{Held: false})
		return
	}
	notified := sn.fanOut(r.Context(), req.Doc, clouds)
	writeJSON(w, http.StatusOK, ShieldUpdateResponse{Held: true, CloudsNotified: notified})
}

// fanOut pushes doc exactly once to each subscribed cloud, through the
// document's beacon point there (the beacon then pushes /apply to its
// holders, the intra-cloud half of the protocol), and returns how many
// holders were notified. A beacon that lists no holders prunes the
// subscription — deliveries refresh, they never store.
func (sn *ShieldNode) fanOut(ctx context.Context, doc document.Document, clouds []string) (notified int) {
	body := sharedBody(UpdateRequest{Doc: doc})
	for _, cid := range clouds {
		base, ok := sn.cloudBeacon(doc.URL)
		if !ok {
			sn.dropSub(doc.URL, cid)
			continue
		}
		sn.updatesFanned.Inc()
		var ur UpdateResponse
		if err := sn.tp.PostJSON(ctx, base+"/update", body, &ur); err != nil {
			// Unreachable beacon: keep the subscription; Reconcile re-fans
			// once the cloud is reachable again.
			continue
		}
		notified += ur.Notified
		if ur.Notified == 0 {
			// The cloud holds no copies anymore: cancel its subscription so
			// the next publish skips it (it re-subscribes on its next miss).
			sn.dropSub(doc.URL, cid)
		}
	}
	return notified
}

// purgeGlobal drops the shield's copy of url (the durable log gets a
// tombstone, queued under sn.mu as store's writes are, and handleUpdate
// declines no update until it is written: once an update has found no copy,
// a warm restart must not bring one back), records the generation, cancels
// the subscriptions and forwards the purge into each cloud that had one; it
// returns the copies dropped there.
func (sn *ShieldNode) purgeGlobal(ctx context.Context, url string, gen int64) (dropped int) {
	sn.mu.Lock()
	e := sn.entry(url)
	held, clouds := e.held, e.subs
	e.cp, e.held, e.purgeGen, e.subs = document.Copy{}, false, gen, nil
	if held {
		sn.disk.q.Tombstone(url)
	}
	sn.unlock()
	for _, cid := range clouds {
		dropped += sn.forwardPurge(ctx, url, cid)
	}
	return dropped
}

// forwardPurge sends a cloud-scoped purge of url into one subscribed cloud
// and returns how many copies it dropped there.
func (sn *ShieldNode) forwardPurge(ctx context.Context, url, cid string) int {
	base, ok := sn.cloudBeacon(url)
	if !ok {
		return 0
	}
	var pr PurgeResponse
	if err := sn.tp.PostJSON(ctx, base+"/purge", PurgeRequest{URL: url, Scope: PurgeScopeCloud, Cloud: cid}, &pr); err != nil {
		return 0
	}
	return pr.Dropped
}

// sortedSubs returns a copy of the subscribed cloud IDs for a URL, in
// sorted order — the deterministic fan-out order. Caller holds sn.mu.
func (sn *ShieldNode) sortedSubs(url string) []string {
	if e := sn.table[url]; e != nil {
		return slices.Clone(e.subs)
	}
	return nil
}

func (sn *ShieldNode) dropSub(url, cloudID string) {
	sn.mu.Lock()
	defer sn.mu.Unlock()
	if e := sn.table[url]; e != nil {
		e.subs = slices.DeleteFunc(e.subs, func(id string) bool { return id == cloudID })
	}
}

// handlePurge applies a scoped purge. Global: drop the shield's copy,
// record the purge generation, and forward the purge into every
// subscribed cloud. Cloud-scoped: forward to that one cloud and cancel
// its subscription; the shield keeps its copy and keeps serving everyone
// else.
func (sn *ShieldNode) handlePurge(w http.ResponseWriter, r *http.Request) {
	var req PurgeRequest
	if err := readJSON(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	sn.purgesCtr.Inc()
	dropped := 0
	switch req.Scope {
	case PurgeScopeGlobal:
		dropped = sn.purgeGlobal(r.Context(), req.URL, req.Gen)
	case PurgeScopeCloud:
		sn.mu.Lock()
		e := sn.table[req.URL]
		subscribed := e != nil && slices.Contains(e.subs, req.Cloud)
		sn.mu.Unlock()
		if subscribed {
			dropped += sn.forwardPurge(r.Context(), req.URL, req.Cloud)
			sn.dropSub(req.URL, req.Cloud)
		}
	default:
		writeErr(w, http.StatusBadRequest, fmt.Errorf("unknown purge scope %q", req.Scope))
		return
	}
	writeJSON(w, http.StatusOK, PurgeResponse{Dropped: dropped})
}

// handleSubranges installs the cloud's beacon assignment, exactly as cache
// nodes receive it — the shield needs the current layout to route its
// fan-out through the right beacon point.
func (sn *ShieldNode) handleSubranges(w http.ResponseWriter, r *http.Request) {
	var req Assignments
	if err := readJSON(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	v := sn.view.Load()
	sn.view.Store(v.with(req, v.down))
	writeJSON(w, http.StatusOK, SubrangesResponse{})
}

func (sn *ShieldNode) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok", "shield": sn.name})
}

func (sn *ShieldNode) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, sn.Stats())
}

func (sn *ShieldNode) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_, _ = w.Write([]byte(sn.reg.Render()))
}

// Stats returns the shield's accounting snapshot.
func (sn *ShieldNode) Stats() ShieldStats {
	sn.mu.Lock()
	held, subCount := 0, 0
	for _, e := range sn.table {
		if e.held {
			held++
		}
		subCount += len(e.subs)
	}
	sn.mu.Unlock()
	return ShieldStats{
		Shield:        sn.name,
		HeldDocs:      held,
		Subscriptions: subCount,
		Fetches:       sn.fetches.Value(),
		ShieldHits:    sn.shieldHits.Value(),
		OriginFetches: sn.originFetches.Value(),
		UpdatesIn:     sn.updatesIn.Value(),
		UpdatesFanned: sn.updatesFanned.Value(),
		Purges:        sn.purgesCtr.Value(),
		ResyncDrops:   sn.resyncDrops.Value(),
		WarmBoot:      sn.warmBoot,
		WarmRecovered: sn.warmRecovered,
		DurableErrors: sn.disk.q.Errors(),
	}
}

// Reconcile runs the shield-side anti-entropy pass against the origin's
// GET /versions — the tier-level analogue of the holder /reconcile pass
// inside a cloud. Held copies whose global purge generation is stale (the
// purge landed while this shield was unreachable) are dropped and the
// purge is forwarded to the clouds this shield delivered to; held copies
// older than the origin's version are refreshed and the delta re-fanned to
// subscribers. Returns (refreshed, purged) counts.
func (sn *ShieldNode) Reconcile(ctx context.Context) (refreshed, purged int) {
	var vr VersionsResponse
	if err := sn.tp.GetJSON(ctx, sn.cfg.OriginAddr+"/versions", &vr); err != nil {
		return 0, 0
	}
	sn.mu.Lock()
	urls := make([]string, 0, len(sn.table))
	for url, e := range sn.table {
		if e.held {
			urls = append(urls, url)
		}
	}
	sn.mu.Unlock()
	sort.Strings(urls)

	for _, url := range urls {
		sn.mu.Lock()
		e := sn.table[url]
		if e == nil || !e.held {
			sn.mu.Unlock()
			continue
		}
		cp, seen := e.cp, e.purgeGen
		sn.mu.Unlock()
		// Held keys may be tenant-scoped; the origin's version and purge
		// tables are keyed by the plain URL.
		_, plain := document.SplitTenantKey(url)
		if gen := vr.PurgeGen[plain]; gen > seen {
			sn.purgeGlobal(ctx, url, gen)
			sn.resyncDrops.Inc()
			purged++
			continue
		}
		ov, known := vr.Versions[plain]
		if !known || cp.Doc.Version >= ov {
			continue
		}
		sn.mu.Lock()
		fresh, err := sn.refresh(ctx, url, sn.entry(url))
		clouds := sn.sortedSubs(url)
		sn.unlock()
		if err != nil {
			continue
		}
		refreshed++
		sn.fanOut(ctx, fresh.Doc, clouds)
	}
	return refreshed, purged
}

// --- white-box inspection accessors (deterministic simulation harness) ---

// HeldVersions returns the URL → version map of this shield's copies.
func (sn *ShieldNode) HeldVersions() map[string]document.Version {
	sn.mu.Lock()
	defer sn.mu.Unlock()
	out := make(map[string]document.Version, len(sn.table))
	for url, e := range sn.table {
		if e.held {
			out[url] = e.cp.Doc.Version
		}
	}
	return out
}

// PurgeSeen returns this shield's applied purge generation for a URL.
func (sn *ShieldNode) PurgeSeen(url string) int64 {
	sn.mu.Lock()
	defer sn.mu.Unlock()
	if e := sn.table[url]; e != nil {
		return e.purgeGen
	}
	return 0
}

// Subscribers returns the sorted cloud IDs subscribed for a URL.
func (sn *ShieldNode) Subscribers(url string) []string {
	sn.mu.Lock()
	defer sn.mu.Unlock()
	return sn.sortedSubs(url)
}

// UpdatesIn returns the count of origin update pushes this shield has
// received — the at-most-once-per-publish delivery counter the simulation
// harness checks.
func (sn *ShieldNode) UpdatesIn() int64 { return sn.updatesIn.Value() }

// WarmBootInfo reports whether this shield booted warm and how many
// entries its durable tier recovered.
func (sn *ShieldNode) WarmBootInfo() (warm bool, recovered int) {
	return sn.warmBoot, sn.warmRecovered
}

// Metrics exposes the shield's metrics registry.
func (sn *ShieldNode) Metrics() *obs.Registry { return sn.reg }
