// Package sim implements the trace-driven simulator the paper evaluates
// with (Section 4): edge caches receive requests from a request trace while
// the origin server continuously consumes an update trace. The simulator
// can be configured for the architectures the paper compares — an edge
// network without cooperation, cooperative caching with static hashing, and
// cooperative cache clouds with dynamic hashing — crossed with the three
// document placement schemes (ad hoc, beacon point, utility-based).
//
// Static hashing is modelled, exactly as the paper observes, as the
// degenerate dynamic configuration whose beacon rings contain a single
// beacon point each: with one point per ring the intra-ring hash never
// rebalances and the scheme reduces to a random static hash over the
// caches.
package sim

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"

	"cachecloud/internal/cache"
	"cachecloud/internal/core"
	"cachecloud/internal/document"
	"cachecloud/internal/loadstats"
	"cachecloud/internal/obs"
	"cachecloud/internal/origin"
	"cachecloud/internal/placement"
	"cachecloud/internal/trace"
)

// Architecture selects the cooperation scheme.
type Architecture int

const (
	// NoCooperation runs independent edge caches: every local miss goes to
	// the origin server and the server pushes updates to each holding
	// cache individually.
	NoCooperation Architecture = iota + 1
	// StaticHashing runs a cooperative cloud whose beacon points are
	// assigned by a static random hash (beacon rings of size 1).
	StaticHashing
	// DynamicHashing runs the paper's cache cloud with multi-point beacon
	// rings and cycle-based sub-range determination.
	DynamicHashing
)

// String implements fmt.Stringer.
func (a Architecture) String() string {
	switch a {
	case NoCooperation:
		return "no-cooperation"
	case StaticHashing:
		return "static-hashing"
	case DynamicHashing:
		return "dynamic-hashing"
	default:
		return fmt.Sprintf("architecture(%d)", int(a))
	}
}

// ErrBadConfig is returned for invalid simulator configurations.
var ErrBadConfig = errors.New("sim: invalid configuration")

// msgOverhead is the byte cost charged per control message (lookup
// request/reply, fetch request, update notification header).
const msgOverhead = 512

// intraGen is the intra-ring hash generator (the paper's 1000).
const intraGen = 1000

// The latency model: a client-perceived cost in milliseconds for each step
// of a request. The costs approximate an edge deployment: serving from
// local memory/disk is fast, a nearby cache adds an intra-PoP round trip,
// and the origin sits across the WAN.
const (
	localMs       float64 = 5   // serve from the local cache
	lookupMs      float64 = 10  // beacon lookup round trip
	peerFetchMs   float64 = 30  // transfer from a nearby cache
	originFetchMs float64 = 150 // transfer from the origin server
	revalidateMs  float64 = 140 // conditional check against the origin
)

// latencyBounds are Result.Latency's bucket bounds: 1 ms .. 2 s in roughly
// geometric steps, the span of the latency model's costs.
var latencyBounds = []float64{1, 2, 5, 10, 20, 35, 50, 75, 100, 150, 250, 400, 650, 1000, 2000}

// replacementOrLRU maps the zero value to LRU.
func replacementOrLRU(k cache.ReplacementKind) cache.ReplacementKind {
	if k == 0 {
		return cache.LRU
	}
	return k
}

// Config parameterises one simulation run.
type Config struct {
	// Arch selects the cooperation architecture (default DynamicHashing).
	Arch Architecture
	// Caches is the cloud's caches; default: every cache the trace's
	// requests name.
	Caches []string
	// NumRings is the beacon ring count for DynamicHashing (default:
	// half the cache count, giving the paper's rings of 2).
	NumRings int
	// FineGrained selects per-IrH-value load information for sub-range
	// determination (default true; set CoarseLoadInfo to disable).
	CoarseLoadInfo bool
	// CycleLength is the sub-range determination period in time units
	// (default 60, the paper's 1-hour cycle).
	CycleLength int64
	// Policy is the document placement scheme (default ad hoc).
	Policy placement.Policy
	// CapacityFraction, when > 0, gives each cache a byte budget of
	// fraction × (total corpus bytes) — the paper's limited-disk setup
	// gives each cache 30% of the sum of all document sizes. 0 means
	// unlimited.
	CapacityFraction float64
	// ReplicateRecords enables lazy lookup-record replication.
	ReplicateRecords bool
	// Replacement selects the caches' replacement policy (LRU when zero).
	Replacement cache.ReplacementKind
	// WarmupUnits excludes the first units of the trace from the beacon
	// load measurement, so the load-balance figures report the steady
	// state after the sub-range determination process has converged
	// (0 = measure the whole run).
	WarmupUnits int64
	// LeaseDuration, when > 0, replaces the paper's always-push
	// consistency with cooperative leases (Ninan et al., the paper's
	// related work [8]): the origin pushes updates to the cloud only while
	// the cloud holds an active lease on the document; leases are granted
	// on origin fetches and renewed on revalidation. After expiry a cache
	// revalidates the copy on its next hit, so no stale document is ever
	// served, but cold documents stop costing push traffic. Mutually
	// exclusive with TTL.
	LeaseDuration int64
	// TTL, when > 0, replaces the paper's server-driven update push with
	// the Time-to-Live consistency of classical cooperative proxy caches
	// (the related-work baseline): update events only bump the version at
	// the origin, and a cache revalidates a copy older than TTL units on
	// the next hit. Copies within their TTL may serve stale data, counted
	// in Result.StaleServes.
	TTL int64
	// CollectSeries enables per-time-unit series collection
	// (Result.Series); off by default to keep long runs lean.
	CollectSeries bool
	// FailAt injects cache crashes: at each time unit in the map, the
	// named caches fail (non-gracefully). Requires a cooperative
	// architecture; combine with ReplicateRecords to exercise the paper's
	// failure-resilience extension. Requests addressed to failed caches
	// are dropped from the trace accounting.
	FailAt map[int64][]string
	// Seed drives holder selection.
	Seed int64
	// Tracer, when non-nil, receives the run's protocol events
	// (LocalHit, PeerHit, BeaconLookup, UpdateFanout, NodeDead,
	// RecordMigrated). Events carry logical trace time and the
	// rebalance-cycle index, never wall clock, so traces stay
	// deterministic under the parallel experiment runner. The tracer's
	// sink is flushed before Run returns.
	Tracer *obs.Tracer
	// MetricsEvery, when > 0 and MetricsSink is set, emits one JSON
	// metrics snapshot line to MetricsSink every MetricsEvery rebalance
	// cycles (cooperative architectures only — NoCooperation has no
	// cycles).
	MetricsEvery int64
	// MetricsSink receives the per-cycle metrics JSONL stream.
	MetricsSink io.Writer
}

// MetricsSnapshot is one line of the per-cycle metrics stream: the run's
// cumulative counters plus the beacon-load balance at a cycle boundary.
// Together with the final Result it reproduces the paper's load-balance
// evolution (Figures 3-6) from a single run.
type MetricsSnapshot struct {
	Unit            int64   `json:"unit"`
	Cycle           int64   `json:"cycle"`
	Requests        int64   `json:"requests"`
	LocalHits       int64   `json:"local_hits"`
	CloudHits       int64   `json:"cloud_hits"`
	GroupMisses     int64   `json:"group_misses"`
	Updates         int64   `json:"updates"`
	HoldersNotified int64   `json:"holders_notified"`
	RecordsMigrated int64   `json:"records_migrated"`
	NetworkBytes    int64   `json:"network_bytes"`
	LoadMean        float64 `json:"load_mean"`
	LoadCoV         float64 `json:"load_cov"`
	LoadMaxToMean   float64 `json:"load_max_to_mean"`
}

// Result carries the metrics of one run.
type Result struct {
	Arch     Architecture
	Policy   string
	Duration int64

	Requests    int64
	LocalHits   int64
	CloudHits   int64
	GroupMisses int64
	Updates     int64

	// IntraCloudBytes is document traffic between caches of the cloud
	// (peer fetches plus beacon-to-holder update fanout).
	IntraCloudBytes int64
	// ServerBytes is origin-to-edge document traffic (group-miss fetches
	// plus the per-cloud update messages).
	ServerBytes int64
	// ControlBytes is protocol-message overhead.
	ControlBytes int64

	HoldersNotified int64
	RecordsMigrated int64

	// Revalidations counts TTL/lease-mode freshness checks against the
	// origin; StaleServes counts requests served with a version older than
	// the origin's current one (0 under server-driven push and leases);
	// LeaseRenewals counts lease grants and renewals.
	Revalidations int64
	StaleServes   int64
	LeaseRenewals int64

	// Latency is the client-latency histogram (milliseconds) under the
	// run's latency model.
	Latency *obs.Histogram

	// CachesFailed counts injected crashes; RecordsLost and
	// RecordsRecovered report the lookup records destroyed and recovered
	// from lazy replicas across those crashes.
	CachesFailed     int64
	RecordsLost      int64
	RecordsRecovered int64

	// BeaconLoads is the per-beacon-point load distribution over the
	// measured window (the whole run, or the post-warmup portion when
	// WarmupUnits was set; empty under NoCooperation).
	BeaconLoads loadstats.Distribution
	// MeasuredUnits is the length of the load-measurement window.
	MeasuredUnits int64
	// StoredPctPerCache maps cache ID → percent of the document catalog
	// stored there at the end of the run (Figure 7's metric).
	StoredPctPerCache map[string]float64
	// Series holds per-time-unit curves when Config.CollectSeries is set.
	Series *Series
}

// Series is the per-time-unit evolution of a run: convergence plots for
// hit rate and network load.
type Series struct {
	Units     []int64
	NetworkMB []float64 // network bytes transferred during the unit, in MB
	HitRate   []float64 // in-network hit rate over the unit's requests
}

// LocalHitRate returns local hits / requests.
func (r *Result) LocalHitRate() float64 { return ratio(r.LocalHits, r.Requests) }

// CloudHitRate returns (local+cloud hits) / requests.
func (r *Result) CloudHitRate() float64 { return ratio(r.LocalHits+r.CloudHits, r.Requests) }

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// NetworkMBPerUnit returns total network traffic (intra-cloud + server +
// control) in megabytes per time unit — the y-axis of Figures 8 and 9.
func (r *Result) NetworkMBPerUnit() float64 {
	if r.Duration == 0 {
		return 0
	}
	total := float64(r.IntraCloudBytes + r.ServerBytes + r.ControlBytes)
	return total / float64(r.Duration) / (1 << 20)
}

// StoredPctMean returns the mean over caches of the percentage of catalog
// documents stored. Values are summed in sorted cache-ID order so the mean
// is bit-identical across runs.
func (r *Result) StoredPctMean() float64 {
	if len(r.StoredPctPerCache) == 0 {
		return 0
	}
	ids := make([]string, 0, len(r.StoredPctPerCache))
	for id := range r.StoredPctPerCache {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var sum float64
	for _, id := range ids {
		sum += r.StoredPctPerCache[id]
	}
	return sum / float64(len(ids))
}

// LoadPerUnit returns the beacon load distribution normalised to operations
// per time unit over the measured window — the y-axis of Figures 3 and 4.
func (r *Result) LoadPerUnit() loadstats.Distribution {
	units := r.MeasuredUnits
	if units == 0 {
		units = r.Duration
	}
	if units == 0 {
		return r.BeaconLoads
	}
	vals := make([]float64, len(r.BeaconLoads.Loads))
	for i, v := range r.BeaconLoads.Loads {
		vals[i] = v / float64(units)
	}
	return loadstats.NewDistribution(vals)
}

// Run executes the trace under the configuration and returns the metrics.
func Run(cfg Config, tr *trace.Trace) (*Result, error) {
	if tr == nil || len(tr.Docs) == 0 {
		return nil, fmt.Errorf("%w: empty trace", ErrBadConfig)
	}
	if cfg.Arch == 0 {
		cfg.Arch = DynamicHashing
	}
	if cfg.Policy == nil {
		cfg.Policy = placement.AdHoc{}
	}
	if cfg.CycleLength == 0 {
		cfg.CycleLength = 60
	}
	if cfg.TTL > 0 && cfg.LeaseDuration > 0 {
		return nil, fmt.Errorf("%w: TTL and LeaseDuration are mutually exclusive", ErrBadConfig)
	}
	if len(cfg.FailAt) > 0 {
		// Copy: injection consumes entries and must not mutate the
		// caller's map.
		failAt := make(map[int64][]string, len(cfg.FailAt))
		for t, ids := range cfg.FailAt {
			failAt[t] = append([]string(nil), ids...)
		}
		cfg.FailAt = failAt
		if cfg.Arch == NoCooperation {
			return nil, fmt.Errorf("%w: FailAt requires a cooperative architecture", ErrBadConfig)
		}
	}

	cacheIDs := cfg.Caches
	if len(cacheIDs) == 0 {
		cacheIDs = tracedCaches(tr)
	}
	if len(cacheIDs) == 0 {
		return nil, fmt.Errorf("%w: trace has no request events", ErrBadConfig)
	}

	var capacity int64
	if cfg.CapacityFraction > 0 {
		var corpus int64
		for _, d := range tr.Docs {
			corpus += d.Size
		}
		capacity = int64(cfg.CapacityFraction * float64(corpus))
	}

	srv := origin.New(tr.Docs)
	s := &state{
		cfg:      cfg,
		srv:      srv,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		res:      &Result{Arch: cfg.Arch, Policy: cfg.Policy.Name(), Duration: tr.Duration},
		catalog:  len(tr.Docs),
		capacity: capacity,
	}
	s.res.Latency = obs.NewHistogram(latencyBounds)
	if cfg.LeaseDuration > 0 {
		s.leases = make(map[string]int64)
	}

	switch cfg.Arch {
	case NoCooperation:
		s.caches = make(map[string]*cache.Cache, len(cacheIDs))
		for _, id := range cacheIDs {
			s.caches[id] = cache.NewWithReplacement(id, capacity, replacementOrLRU(cfg.Replacement))
		}
		s.holders = make(map[string]map[string]struct{})
	case StaticHashing, DynamicHashing:
		numRings := len(cacheIDs) // static: one beacon point per ring
		if cfg.Arch == DynamicHashing {
			numRings = cfg.NumRings
			if numRings == 0 {
				numRings = len(cacheIDs) / 2
			}
			if numRings < 1 {
				numRings = 1
			}
		}
		cloud, err := core.New(core.Config{
			NumRings:         numRings,
			IntraGen:         intraGen,
			FineGrained:      !cfg.CoarseLoadInfo,
			ReplicateRecords: cfg.ReplicateRecords,
			DefaultCapacity:  capacity,
			Replacement:      cfg.Replacement,
		}, cacheIDs, nil)
		if err != nil {
			return nil, fmt.Errorf("sim: build cloud: %w", err)
		}
		s.cloud = cloud
		cloud.SetTracer(cfg.Tracer)
		if cfg.TTL <= 0 && cfg.LeaseDuration <= 0 {
			srv.AttachCloud(cloud) // server-driven push (the paper's model)
		}
	default:
		return nil, fmt.Errorf("%w: unknown architecture %d", ErrBadConfig, cfg.Arch)
	}

	if err := s.run(tr); err != nil {
		return nil, err
	}
	s.finish()
	if err := cfg.Tracer.Flush(); err != nil {
		return nil, fmt.Errorf("sim: trace sink: %w", err)
	}
	return s.res, nil
}

// state is the mutable simulation state.
type state struct {
	cfg      Config
	srv      *origin.Server
	cloud    *core.Cloud // nil under NoCooperation
	caches   map[string]*cache.Cache
	holders  map[string]map[string]struct{} // NoCooperation holder registry
	rng      *rand.Rand
	res      *Result
	catalog  int
	capacity int64

	warmupDone    bool
	baselineLoads map[string]int64

	adaptive  *placement.AdaptiveUtility
	adaptPrev Result // counters at the last feedback boundary

	seriesPrev Result // counters at the last series boundary
	seriesUnit int64

	leases map[string]int64 // lease-mode expiry per URL

	cycle int64 // completed rebalance cycles

	// holderScratch is reused across requests to filter the aliased holder
	// list LookupHash returns without allocating per miss.
	holderScratch []string
}

func (s *state) cacheByID(id string) *cache.Cache {
	if s.cloud != nil {
		return s.cloud.Cache(id)
	}
	return s.caches[id]
}

func (s *state) run(tr *trace.Trace) error {
	nextCycle := s.cfg.CycleLength
	s.adaptive, _ = s.cfg.Policy.(*placement.AdaptiveUtility)
	nextAdapt := s.cfg.CycleLength
	if s.cfg.CollectSeries {
		s.res.Series = &Series{}
	}
	for _, ev := range tr.Events {
		if s.res.Series != nil {
			for s.seriesUnit < ev.Time {
				s.flushSeriesUnit()
			}
		}
		if len(s.cfg.FailAt) > 0 {
			if err := s.injectFailures(ev.Time); err != nil {
				return err
			}
		}
		for s.adaptive != nil && ev.Time >= nextAdapt {
			s.feedAdaptive(nextAdapt)
			nextAdapt += s.cfg.CycleLength
		}
		if s.cloud != nil && !s.warmupDone && s.cfg.WarmupUnits > 0 && ev.Time >= s.cfg.WarmupUnits {
			s.baselineLoads = s.cloud.BeaconLoads()
			s.warmupDone = true
		}
		for s.cloud != nil && ev.Time >= nextCycle {
			s.res.RecordsMigrated += int64(s.cloud.Rebalance())
			if s.cfg.ReplicateRecords {
				s.cloud.ReplicateRecords()
			}
			s.cycle++
			s.cfg.Tracer.SetCycle(s.cycle)
			if err := s.emitMetrics(nextCycle); err != nil {
				return err
			}
			nextCycle += s.cfg.CycleLength
		}
		var err error
		switch ev.Kind {
		case trace.Request:
			err = s.handleRequest(ev)
		case trace.Update:
			err = s.handleUpdate(ev)
		default:
			err = fmt.Errorf("sim: unknown event kind %d", ev.Kind)
		}
		if err != nil {
			return err
		}
	}
	if s.res.Series != nil {
		for s.seriesUnit < tr.Duration {
			s.flushSeriesUnit()
		}
	}
	return nil
}

// evHash returns the event's interned document hash, computing it only for
// hand-built traces that skipped trace.EnsureHashes.
func evHash(ev trace.Event) document.Hash {
	if ev.Hash != 0 {
		return ev.Hash
	}
	return document.HashURL(ev.URL)
}

func (s *state) handleRequest(ev trace.Event) error {
	ch := s.cacheByID(ev.Cache)
	if ch == nil {
		if len(s.cfg.FailAt) > 0 || s.res.CachesFailed > 0 {
			return nil // requests to crashed caches are lost
		}
		return fmt.Errorf("sim: request for unknown cache %q", ev.Cache)
	}
	s.res.Requests++
	if cp, hit := ch.Get(ev.URL, ev.Time); hit {
		s.res.LocalHits++
		if s.cfg.Tracer != nil {
			s.cfg.Tracer.Emit(obs.Event{Time: ev.Time, Kind: obs.EvLocalHit, Node: ev.Cache, URL: ev.URL})
		}
		return s.serveHit(ev, ch, cp)
	}
	if s.cloud == nil {
		return s.handleMissNoCoop(ev, ch)
	}
	return s.handleMissCloud(ev, evHash(ev), ch)
}

// serveHit accounts freshness and latency on a local hit. Under
// server-driven push the copy is fresh by construction; under TTL
// consistency an expired copy is revalidated against the origin and a
// within-TTL copy may serve stale; under leases an expired lease forces a
// revalidation that also renews the lease, so no stale copy is served.
func (s *state) serveHit(ev trace.Event, ch *cache.Cache, cp document.Copy) error {
	switch {
	case s.cfg.TTL > 0:
		current, err := s.srv.Fetch(ev.URL)
		if err != nil {
			return fmt.Errorf("sim: ttl check: %w", err)
		}
		if ev.Time-cp.FetchedAt >= s.cfg.TTL {
			refetched, err := s.revalidate(ev, ch, cp, current)
			if err != nil {
				return err
			}
			ms := localMs + revalidateMs
			if refetched {
				ms += originFetchMs
			}
			s.res.Latency.Observe(ms)
			return nil
		}
		if cp.Doc.Version < current.Version {
			s.res.StaleServes++
		}
		s.res.Latency.Observe(localMs)
		return nil
	case s.cfg.LeaseDuration > 0:
		if s.leases[ev.URL] > ev.Time {
			// Active lease: pushes keep the copy fresh.
			s.res.Latency.Observe(localMs)
			return nil
		}
		current, err := s.srv.Fetch(ev.URL)
		if err != nil {
			return fmt.Errorf("sim: lease check: %w", err)
		}
		refetched, err := s.revalidate(ev, ch, cp, current)
		if err != nil {
			return err
		}
		s.leases[ev.URL] = ev.Time + s.cfg.LeaseDuration
		s.res.LeaseRenewals++
		ms := localMs + revalidateMs
		if refetched {
			ms += originFetchMs
		}
		s.res.Latency.Observe(ms)
		return nil
	default:
		s.res.Latency.Observe(localMs)
		return nil
	}
}

// revalidate runs a conditional check of a held copy against the origin's
// current version, refetching when stale. It reports whether a full
// refetch happened.
func (s *state) revalidate(ev trace.Event, ch *cache.Cache, cp document.Copy, current document.Document) (bool, error) {
	s.res.Revalidations++
	s.res.ControlBytes += 2 * msgOverhead
	if cp.Doc.Version < current.Version {
		s.res.ServerBytes += current.Size
		if _, err := ch.Put(document.Copy{Doc: current, FetchedAt: ev.Time}, ev.Time); err != nil && !errors.Is(err, cache.ErrTooLarge) {
			return false, err
		}
		return true, nil
	}
	// Refresh the freshness clock on a successful revalidation.
	if _, err := ch.Put(document.Copy{Doc: cp.Doc, FetchedAt: ev.Time}, ev.Time); err != nil && !errors.Is(err, cache.ErrTooLarge) {
		return false, err
	}
	return false, nil
}

// handleMissNoCoop fetches from the origin and stores per policy.
func (s *state) handleMissNoCoop(ev trace.Event, ch *cache.Cache) error {
	doc, err := s.srv.Fetch(ev.URL)
	if err != nil {
		return fmt.Errorf("sim: origin fetch: %w", err)
	}
	s.res.GroupMisses++
	s.res.ServerBytes += doc.Size
	s.res.ControlBytes += msgOverhead
	s.res.Latency.Observe(localMs + originFetchMs)
	ctx := placement.Context{
		Now: ev.Time, CacheID: ev.Cache, DocURL: ev.URL, DocSize: doc.Size,
		LocalAccessRate: ch.AccessRate(ev.URL, ev.Time),
		MeanLocalRate:   ch.MeanAccessRate(ev.Time),
		Residence:       placement.ExpectedResidence(ch.Capacity(), ch.EvictionByteRate(ev.Time)),
	}
	if !s.cfg.Policy.ShouldStore(ctx).Store {
		return nil
	}
	s.storeNoCoop(ch, doc, ev.Time)
	return nil
}

func (s *state) storeNoCoop(ch *cache.Cache, doc document.Document, now int64) {
	evicted, err := ch.Put(document.Copy{Doc: doc, FetchedAt: now}, now)
	if errors.Is(err, cache.ErrTooLarge) {
		return
	}
	hs := s.holders[doc.URL]
	if hs == nil {
		hs = make(map[string]struct{})
		s.holders[doc.URL] = hs
	}
	hs[ch.ID()] = struct{}{}
	for _, dead := range evicted {
		if dh := s.holders[dead.URL]; dh != nil {
			delete(dh, ch.ID())
		}
	}
}

// handleMissCloud runs the cooperative lookup-and-fetch protocol. h is the
// event's interned document hash; the whole miss path hashes zero times.
func (s *state) handleMissCloud(ev trace.Event, h document.Hash, ch *cache.Cache) error {
	// The fused lookup returns the monitored document rates along with the
	// holders, so the placement decision below needs no second trip to the
	// beacon record. The rates come out at the lookup's own timestamp,
	// where the monitor decay is a no-op — run results are bit-identical
	// to the split LookupHash + DocumentRatesHash protocol.
	res, err := s.cloud.LookupHashWithRates(ev.URL, h, ev.Time)
	if err != nil {
		return fmt.Errorf("sim: lookup: %w", err)
	}
	s.res.ControlBytes += 2 * msgOverhead // lookup request + reply

	// Candidate holders exclude the requester itself. res.Holders aliases
	// the beacon's record (LookupHash skips the defensive copy), so filter
	// into scratch space owned by this run before touching the cloud again.
	s.holderScratch = s.holderScratch[:0]
	holders := s.holderScratch
	for _, hd := range res.Holders {
		if hd != ev.Cache {
			holders = append(holders, hd)
		}
	}
	s.holderScratch = holders

	var doc document.Document
	if len(holders) > 0 {
		src := holders[s.rng.Intn(len(holders))]
		srcCache := s.cacheByID(src)
		var cp document.Copy
		ok := false
		if srcCache != nil {
			cp, ok = srcCache.Peek(ev.URL)
		}
		if ok {
			doc = cp.Doc
			s.res.CloudHits++
			s.res.IntraCloudBytes += doc.Size
			s.res.ControlBytes += msgOverhead // fetch request
			s.res.Latency.Observe(localMs + lookupMs + peerFetchMs)
			if s.cfg.Tracer != nil {
				s.cfg.Tracer.Emit(obs.Event{Time: ev.Time, Kind: obs.EvPeerHit, Node: src, URL: ev.URL})
			}
		} else {
			// Directory was stale; repair and fall through to the origin.
			if derr := s.cloud.DeregisterHolderHash(ev.URL, h, src); derr != nil {
				return derr
			}
			holders = nil
		}
	}
	if len(holders) == 0 {
		doc, err = s.srv.Fetch(ev.URL)
		if err != nil {
			return fmt.Errorf("sim: origin fetch: %w", err)
		}
		s.res.GroupMisses++
		s.res.ServerBytes += doc.Size
		s.res.ControlBytes += msgOverhead
		s.res.Latency.Observe(localMs + lookupMs + originFetchMs)
		if s.leases != nil {
			// An origin fetch grants the cloud a lease on the document.
			s.leases[ev.URL] = ev.Time + s.cfg.LeaseDuration
			s.res.LeaseRenewals++
		}
	}

	s.placeCloud(ev, h, ch, doc, res, holders)
	return nil
}

// placeCloud runs the placement decision for the requesting cache (and the
// beacon-point seeding special case of the beacon placement scheme).
func (s *state) placeCloud(ev trace.Event, h document.Hash, ch *cache.Cache, doc document.Document, lr core.LookupResult, holders []string) {
	lookupRate, updateRate := lr.LookupRate, lr.UpdateRate
	ctx := placement.Context{
		Now: ev.Time, CacheID: ev.Cache, DocURL: ev.URL, DocSize: doc.Size,
		IsBeacon:        lr.Beacon == ev.Cache,
		LocalAccessRate: ch.AccessRate(ev.URL, ev.Time),
		MeanLocalRate:   ch.MeanAccessRate(ev.Time),
		CloudLookupRate: lookupRate,
		CloudUpdateRate: updateRate,
		ReplicaCount:    len(holders),
		Residence:       placement.ExpectedResidence(ch.Capacity(), ch.EvictionByteRate(ev.Time)),
		HolderResidence: s.meanHolderResidence(holders, ev.Time),
	}
	if s.cfg.Policy.ShouldStore(ctx).Store {
		s.storeCloud(ch, doc, h, ev.Time)
	}
	// Beacon point placement: the cloud's single copy lives at the beacon,
	// so a group miss seeds the beacon's cache with the fetched document.
	if _, isBeaconPolicy := s.cfg.Policy.(placement.BeaconPoint); isBeaconPolicy && lr.Beacon != ev.Cache {
		bc := s.cacheByID(lr.Beacon)
		if bc != nil && !bc.Has(doc.URL) {
			s.res.IntraCloudBytes += doc.Size // requester hands copy to beacon
			s.storeCloud(bc, doc, h, ev.Time)
		}
	}
}

func (s *state) storeCloud(ch *cache.Cache, doc document.Document, h document.Hash, now int64) {
	evicted, err := ch.Put(document.Copy{Doc: doc, FetchedAt: now}, now)
	if errors.Is(err, cache.ErrTooLarge) {
		return
	}
	if err := s.cloud.RegisterHolderHash(doc.URL, h, ch.ID()); err != nil {
		return
	}
	for _, dead := range evicted {
		// Evicted documents are rarely the hot ones; hashing here is off
		// the per-request fast path.
		_ = s.cloud.DeregisterHolder(dead.URL, ch.ID())
	}
}

// meanHolderResidence averages the expected copy residence over the caches
// currently holding the document (0 when there are none).
func (s *state) meanHolderResidence(holders []string, now int64) float64 {
	if len(holders) == 0 {
		return 0
	}
	var sum float64
	n := 0
	for _, h := range holders {
		hc := s.cacheByID(h)
		if hc == nil {
			continue
		}
		r := placement.ExpectedResidence(hc.Capacity(), hc.EvictionByteRate(now))
		if math.IsInf(r, 1) {
			return math.Inf(1)
		}
		sum += r
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func (s *state) handleUpdate(ev trace.Event) error {
	s.res.Updates++
	h := evHash(ev)
	out, err := s.srv.PublishUpdateHash(ev.URL, h, ev.Time)
	if err != nil {
		return fmt.Errorf("sim: publish update: %w", err)
	}
	if s.cfg.TTL > 0 {
		return nil // TTL consistency: no push, caches revalidate lazily
	}
	if s.leases != nil {
		if s.cloud == nil || s.leases[ev.URL] <= ev.Time {
			return nil // lease expired: the cloud is not notified
		}
		cr, err := s.cloud.UpdateHash(out.Doc, h, ev.Time)
		if err != nil {
			return fmt.Errorf("sim: lease push: %w", err)
		}
		s.res.ServerBytes += out.Doc.Size
		s.res.IntraCloudBytes += cr.FanoutBytes
		s.res.HoldersNotified += int64(len(cr.Notified))
		s.res.ControlBytes += msgOverhead * int64(1+len(cr.Notified))
		s.reevaluateHolders(out.Doc, h, cr, ev.Time)
		return nil
	}
	if s.cloud != nil {
		s.res.ServerBytes += out.ServerBytes
		s.res.IntraCloudBytes += out.FanoutBytes
		s.res.HoldersNotified += int64(out.HoldersNotified)
		s.res.ControlBytes += msgOverhead * int64(1+out.HoldersNotified)
		for _, cr := range out.Results {
			s.reevaluateHolders(out.Doc, h, cr, ev.Time)
		}
		return nil
	}
	// No cooperation: the server pushes the new version to every cache
	// currently holding the document, one full transfer each.
	for id := range s.holders[ev.URL] {
		ch := s.caches[id]
		if ch != nil && ch.ApplyUpdate(out.Doc, ev.Time) {
			s.res.ServerBytes += out.Doc.Size
			s.res.ControlBytes += msgOverhead
			s.res.HoldersNotified++
		} else {
			delete(s.holders[ev.URL], id)
		}
	}
	return nil
}

// injectFailures crashes the caches scheduled at or before now.
func (s *state) injectFailures(now int64) error {
	if s.cloud == nil {
		return fmt.Errorf("%w: FailAt requires a cooperative architecture", ErrBadConfig)
	}
	for t, ids := range s.cfg.FailAt {
		if t > now {
			continue
		}
		for _, id := range ids {
			if s.cloud.Cache(id) == nil {
				continue // already failed
			}
			if err := s.cloud.RemoveCache(id, false); err != nil {
				return fmt.Errorf("sim: inject failure of %q: %w", id, err)
			}
			s.res.CachesFailed++
			if s.cfg.Tracer != nil {
				s.cfg.Tracer.Emit(obs.Event{Time: now, Kind: obs.EvNodeDead, Node: id})
			}
		}
		delete(s.cfg.FailAt, t)
	}
	st := s.cloud.Stats()
	s.res.RecordsLost = st.RecordsLost
	s.res.RecordsRecovered = st.RecordsRecovered
	return nil
}

// emitMetrics writes one per-cycle metrics snapshot to the configured
// sink. Called at rebalance-cycle boundaries; unit is the boundary time.
func (s *state) emitMetrics(unit int64) error {
	if s.cfg.MetricsEvery <= 0 || s.cfg.MetricsSink == nil {
		return nil
	}
	if (s.cycle-1)%s.cfg.MetricsEvery != 0 {
		return nil // s.cycle is 1-based at the first boundary
	}
	dist := s.cloud.LoadDistribution()
	snap := MetricsSnapshot{
		Unit:            unit,
		Cycle:           s.cycle,
		Requests:        s.res.Requests,
		LocalHits:       s.res.LocalHits,
		CloudHits:       s.res.CloudHits,
		GroupMisses:     s.res.GroupMisses,
		Updates:         s.res.Updates,
		HoldersNotified: s.res.HoldersNotified,
		RecordsMigrated: s.res.RecordsMigrated,
		NetworkBytes:    s.res.IntraCloudBytes + s.res.ServerBytes + s.res.ControlBytes,
		LoadMean:        dist.Mean(),
		LoadCoV:         dist.CoV(),
		LoadMaxToMean:   dist.MaxToMean(),
	}
	line, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("sim: metrics snapshot: %w", err)
	}
	line = append(line, '\n')
	if _, err := s.cfg.MetricsSink.Write(line); err != nil {
		return fmt.Errorf("sim: metrics sink: %w", err)
	}
	return nil
}

// flushSeriesUnit closes out one time unit of the collected series.
func (s *state) flushSeriesUnit() {
	cur := *s.res
	sr := s.res.Series
	sr.Units = append(sr.Units, s.seriesUnit)
	bytesDelta := (cur.IntraCloudBytes + cur.ServerBytes + cur.ControlBytes) -
		(s.seriesPrev.IntraCloudBytes + s.seriesPrev.ServerBytes + s.seriesPrev.ControlBytes)
	sr.NetworkMB = append(sr.NetworkMB, float64(bytesDelta)/(1<<20))
	reqDelta := cur.Requests - s.seriesPrev.Requests
	hitDelta := (cur.LocalHits + cur.CloudHits) - (s.seriesPrev.LocalHits + s.seriesPrev.CloudHits)
	hr := 0.0
	if reqDelta > 0 {
		hr = float64(hitDelta) / float64(reqDelta)
	}
	sr.HitRate = append(sr.HitRate, hr)
	s.seriesPrev = cur
	s.seriesUnit++
}

// feedAdaptive sends one period's observation to the adaptive policy.
func (s *state) feedAdaptive(now int64) {
	cur := *s.res
	bytesDelta := (cur.IntraCloudBytes + cur.ServerBytes + cur.ControlBytes) -
		(s.adaptPrev.IntraCloudBytes + s.adaptPrev.ServerBytes + s.adaptPrev.ControlBytes)
	reqDelta := cur.Requests - s.adaptPrev.Requests
	hitDelta := (cur.LocalHits + cur.CloudHits) - (s.adaptPrev.LocalHits + s.adaptPrev.CloudHits)
	obs := placement.Observation{
		NetworkMBPerUnit: float64(bytesDelta) / float64(s.cfg.CycleLength) / (1 << 20),
	}
	if reqDelta > 0 {
		obs.HitRate = float64(hitDelta) / float64(reqDelta)
	}
	var evict float64
	if s.cloud != nil {
		for _, id := range s.cloud.CacheIDs() {
			evict += s.cloud.Cache(id).EvictionByteRate(now)
		}
	}
	obs.EvictionMBPerUnit = evict / (1 << 20)
	s.adaptive.Feedback(obs)
	s.adaptPrev = cur
}

// reevaluateHolders re-runs the placement decision at every cache that was
// just pushed a new document version: a holder whose utility for the copy
// has turned unfavorable (typically because the update rate now rivals the
// access rate) drops the copy and deregisters instead of continuing to pay
// the consistency-maintenance cost. Under ad hoc placement the decision is
// always "keep", so this only changes behaviour for selective policies.
func (s *state) reevaluateHolders(doc document.Document, h document.Hash, cr core.UpdateResult, now int64) {
	if len(cr.Notified) == 0 {
		return
	}
	if _, isAdHoc := s.cfg.Policy.(placement.AdHoc); isAdHoc {
		return
	}
	lookupRate, updateRate := s.cloud.DocumentRatesHash(doc.URL, h, now)
	for _, holder := range cr.Notified {
		hc := s.cacheByID(holder)
		if hc == nil {
			continue
		}
		others := make([]string, 0, len(cr.Notified)-1)
		for _, h := range cr.Notified {
			if h != holder {
				others = append(others, h)
			}
		}
		ctx := placement.Context{
			Now: now, CacheID: holder, DocURL: doc.URL, DocSize: doc.Size,
			IsBeacon:        cr.Beacon == holder,
			LocalAccessRate: hc.AccessRate(doc.URL, now),
			MeanLocalRate:   hc.MeanAccessRate(now),
			CloudLookupRate: lookupRate,
			CloudUpdateRate: updateRate,
			ReplicaCount:    len(others),
			Residence:       placement.ExpectedResidence(hc.Capacity(), hc.EvictionByteRate(now)),
			HolderResidence: s.meanHolderResidence(others, now),
		}
		if !s.cfg.Policy.ShouldStore(ctx).Store {
			if hc.Remove(doc.URL) {
				_ = s.cloud.DeregisterHolderHash(doc.URL, h, holder)
			}
		}
	}
}

// finish computes the end-of-run summaries. Per-cache quantities are folded
// in sorted cache-ID order so the floating-point results are bit-identical
// on every run (map iteration order would perturb the last ulp).
func (s *state) finish() {
	s.res.StoredPctPerCache = make(map[string]float64)
	ids := make([]string, 0)
	if s.cloud != nil {
		ids = s.cloud.CacheIDs() // sorted
		loads := s.cloud.BeaconLoads()
		vals := make([]float64, 0, len(loads))
		for _, id := range ids {
			vals = append(vals, float64(loads[id]-s.baselineLoads[id]))
		}
		s.res.BeaconLoads = loadstats.NewDistribution(vals)
		s.res.MeasuredUnits = s.res.Duration
		if s.warmupDone {
			s.res.MeasuredUnits = s.res.Duration - s.cfg.WarmupUnits
		}
		s.res.RecordsMigrated = s.cloud.Stats().RecordsMigrated
	} else {
		for id := range s.caches {
			ids = append(ids, id)
		}
		sort.Strings(ids)
	}
	for _, id := range ids {
		ch := s.cacheByID(id)
		s.res.StoredPctPerCache[id] = 100 * float64(ch.Len()) / float64(s.catalog)
	}
}

// tracedCaches returns the sorted distinct cache IDs appearing in request
// events.
func tracedCaches(tr *trace.Trace) []string {
	seen := make(map[string]struct{})
	for _, ev := range tr.Events {
		if ev.Kind == trace.Request && ev.Cache != "" {
			seen[ev.Cache] = struct{}{}
		}
	}
	out := make([]string, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}
