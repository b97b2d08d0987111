// Package seedref preserves the seed's single-mutex implementation of the
// cache cloud, verbatim except for the package name. It exists for two
// jobs, both about keeping the sharded epoch-snapshot core
// (internal/core) honest:
//
//   - the model-based equivalence property test drives seeded operation
//     sequences through both implementations and requires identical holder
//     sets, versions, beacon-load totals, and migration accounting;
//   - the contention micro-benchmarks run the same parallel lookup load
//     against both, quantifying what sharding buys over the global lock.
//
// Behavioural changes belong in internal/core; this package only changes
// when the intended semantics change, together with the equivalence test.
package seedref

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"cachecloud/internal/cache"
	"cachecloud/internal/document"
	"cachecloud/internal/loadstats"
	"cachecloud/internal/obs"
	"cachecloud/internal/ring"
)

var (
	// ErrUnknownCache is returned when an operation names a cache that is
	// not part of the cloud.
	ErrUnknownCache = errors.New("core: unknown cache")
	// ErrBadTopology is returned for invalid ring/cache configurations.
	ErrBadTopology = errors.New("core: invalid cloud topology")
)

// monitorHalfLife is the half-life (time units) every beacon-side rate
// monitor shares; one hour of trace time.
var monitorHalfLife = loadstats.NewHalfLife(60)

// replacementOrLRU maps the zero value to LRU.
func replacementOrLRU(k cache.ReplacementKind) cache.ReplacementKind {
	if k == 0 {
		return cache.LRU
	}
	return k
}

// Config parameterises a cache cloud.
type Config struct {
	// NumRings is the number of beacon rings. The paper's default cloud of
	// 10 caches uses 5 rings of 2 beacon points.
	NumRings int
	// IntraGen is the intra-ring hash generator (1000 in the evaluation).
	IntraGen int
	// FineGrained selects per-IrH-value load tracking for rebalancing.
	FineGrained bool
	// ReplicateRecords enables lazy replication of lookup records to the
	// ring sibling, the paper's failure-resilience extension.
	ReplicateRecords bool
	// DefaultCapacity is the byte budget given to caches created by New
	// (0 = unlimited).
	DefaultCapacity int64
	// Replacement selects the caches' replacement policy (LRU when zero,
	// as in the paper's limited-disk experiments).
	Replacement cache.ReplacementKind
}

// record is the beacon-side lookup record for one document. The document
// hash is cached here so migrations and replica management never re-hash the
// URL, and the holder list is an insertion-ordered slice: holder sets are
// small (bounded by the cloud size), membership checks are a short linear
// scan, and — unlike a map — iteration order is deterministic, which keeps
// whole simulation runs reproducible.
type record struct {
	hash       document.Hash
	holders    []string
	version    document.Version
	lookupRate loadstats.EWRate // cloud-wide lookups for this document
	updateRate loadstats.EWRate // updates for this document
}

func (r *record) hasHolder(id string) bool {
	for _, h := range r.holders {
		if h == id {
			return true
		}
	}
	return false
}

func (r *record) addHolder(id string) {
	if !r.hasHolder(id) {
		r.holders = append(r.holders, id)
	}
}

func (r *record) removeHolder(id string) {
	for i, h := range r.holders {
		if h == id {
			r.holders = append(r.holders[:i], r.holders[i+1:]...)
			return
		}
	}
}

// holderList returns a defensive copy of the holder list.
func (r *record) holderList() []string {
	if len(r.holders) == 0 {
		return nil
	}
	out := make([]string, len(r.holders))
	copy(out, r.holders)
	return out
}

func (r *record) clone() *record {
	c := &record{hash: r.hash}
	c.holders = r.holderList()
	c.version = r.version
	return c
}

// Cloud is a cache cloud. All methods are safe for concurrent use.
type Cloud struct {
	mu  sync.Mutex
	cfg Config

	caches map[string]*cache.Cache
	rings  []*ring.Ring
	// ringOf maps a cache ID to the indexes of rings it serves in (one per
	// cloud in this implementation).
	ringOf map[string]int

	// records holds lookup records sharded by owning beacon point.
	records map[string]map[string]*record
	// replicas holds the lazy sibling replicas: replicas[siblingID][url].
	replicas map[string]map[string]*record

	// beaconLoad accumulates lookup+update operations handled per cache
	// over the cloud's lifetime — the quantity plotted in Figures 3-6.
	beaconLoad map[string]int64

	recordsMigrated int64
	recordsLost     int64
	recordsRecov    int64

	// tracer receives protocol events (nil = disabled; the hot paths
	// guard on the field so a disabled tracer costs zero allocations).
	tracer *obs.Tracer
	// lastNow is the most recent logical time seen by a lookup or
	// update — migrations at cycle boundaries are stamped with it.
	lastNow int64
}

// New builds a cloud over the given cache IDs with the given per-cache
// capabilities (nil means all capabilities are 1). Caches are assigned to
// rings in strides: ring r hosts caches r, r+NumRings, r+2·NumRings, …
// so a 10-cache cloud with 5 rings yields the paper's 5×2 layout.
func New(cfg Config, cacheIDs []string, capabilities map[string]float64) (*Cloud, error) {
	if cfg.NumRings <= 0 {
		return nil, fmt.Errorf("%w: NumRings = %d", ErrBadTopology, cfg.NumRings)
	}
	if len(cacheIDs) < cfg.NumRings {
		return nil, fmt.Errorf("%w: %d caches for %d rings", ErrBadTopology, len(cacheIDs), cfg.NumRings)
	}
	if cfg.IntraGen <= 0 {
		cfg.IntraGen = 1000
	}
	seen := make(map[string]struct{}, len(cacheIDs))
	for _, id := range cacheIDs {
		if _, dup := seen[id]; dup {
			return nil, fmt.Errorf("%w: duplicate cache %q", ErrBadTopology, id)
		}
		seen[id] = struct{}{}
	}

	c := &Cloud{
		cfg:        cfg,
		caches:     make(map[string]*cache.Cache, len(cacheIDs)),
		ringOf:     make(map[string]int, len(cacheIDs)),
		records:    make(map[string]map[string]*record),
		replicas:   make(map[string]map[string]*record),
		beaconLoad: make(map[string]int64, len(cacheIDs)),
	}
	capOf := func(id string) float64 {
		if capabilities != nil {
			if v, ok := capabilities[id]; ok {
				return v
			}
		}
		return 1
	}

	members := make([][]ring.Member, cfg.NumRings)
	for i, id := range cacheIDs {
		r := i % cfg.NumRings
		members[r] = append(members[r], ring.Member{ID: id, Capability: capOf(id)})
		c.ringOf[id] = r
		c.caches[id] = cache.NewWithReplacement(id, cfg.DefaultCapacity, replacementOrLRU(cfg.Replacement))
		c.records[id] = make(map[string]*record)
		c.beaconLoad[id] = 0
	}
	for r := 0; r < cfg.NumRings; r++ {
		rg, err := ring.New(ring.Config{IntraGen: cfg.IntraGen, FineGrained: cfg.FineGrained}, members[r])
		if err != nil {
			return nil, fmt.Errorf("core: build ring %d: %w", r, err)
		}
		c.rings = append(c.rings, rg)
	}
	return c, nil
}

// SetTracer attaches a protocol-event tracer (nil detaches). The cloud
// emits EvBeaconLookup, EvUpdateFanout, and EvRecordMigrated.
func (c *Cloud) SetTracer(t *obs.Tracer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tracer = t
}

// Cache returns the cache with the given ID, or nil when absent.
func (c *Cloud) Cache(id string) *cache.Cache {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.caches[id]
}

// CacheIDs returns the IDs of all member caches in sorted order, so
// consumers that fold floating-point quantities over the membership get the
// same summation order — and therefore bit-identical results — on every run.
func (c *Cloud) CacheIDs() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.caches))
	for id := range c.caches {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// NumRings returns the ring count.
func (c *Cloud) NumRings() int { return c.cfg.NumRings }

// BeaconFor resolves a document's beacon point with the two-step process:
// static hash to a ring, intra-ring hash to a beacon point.
func (c *Cloud) BeaconFor(url string) (string, error) {
	return c.BeaconForHash(document.HashURL(url))
}

// BeaconForHash is BeaconFor for a precomputed document hash.
func (c *Cloud) BeaconForHash(h document.Hash) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.beaconForHashLocked(h)
}

func (c *Cloud) beaconForHashLocked(h document.Hash) (string, error) {
	rg := c.rings[h.RingIndex(len(c.rings))]
	return rg.BeaconFor(h.IrH(rg.IntraGen()))
}

// LookupResult is the beacon point's answer to a document lookup.
type LookupResult struct {
	// Beacon is the beacon point that served the lookup.
	Beacon string
	// Holders are the caches currently holding the document.
	Holders []string
	// Version is the latest version the beacon has seen (0 if never
	// updated through the cloud).
	Version document.Version
}

// Lookup runs the document lookup protocol: it resolves the beacon point,
// records the lookup load on the owning ring (for sub-range determination)
// and on the beacon's lifetime counters (for the evaluation figures), and
// returns the current holders. The returned holder list is a copy the
// caller owns; the simulator's hot path uses LookupHash instead, which
// avoids both the re-hash and the defensive copy.
func (c *Cloud) Lookup(url string, now int64) (LookupResult, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	res, err := c.lookupHashLocked(url, document.HashURL(url), now)
	if err != nil {
		return res, err
	}
	res.Holders = append([]string(nil), res.Holders...)
	return res, nil
}

// LookupHash is Lookup for a precomputed document hash — the simulator's
// hot path. To avoid an allocation per lookup the returned Holders slice
// aliases the beacon's internal record: it is valid only until the next
// mutating call on the cloud and must not be modified. Concurrent callers
// should use Lookup, which returns a private copy.
func (c *Cloud) LookupHash(url string, h document.Hash, now int64) (LookupResult, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lookupHashLocked(url, h, now)
}

func (c *Cloud) lookupHashLocked(url string, h document.Hash, now int64) (LookupResult, error) {
	beacon, err := c.recordOp(h, loadstats.Lookup)
	if err != nil {
		return LookupResult{}, err
	}
	rec, ok := c.records[beacon][url]
	if !ok {
		// Create the record so monitoring starts with the first lookup.
		rec = &record{hash: h}
		c.records[beacon][url] = rec
	}
	rec.lookupRate.Observe(monitorHalfLife, now, 1)
	c.lastNow = now
	if c.tracer != nil {
		c.tracer.Emit(obs.Event{Time: now, Kind: obs.EvBeaconLookup, Node: beacon, URL: url})
	}
	return LookupResult{Beacon: beacon, Holders: rec.holders, Version: rec.version}, nil
}

// recordOp resolves the beacon for a document hash and charges one load
// unit of the given kind. Caller holds the lock.
func (c *Cloud) recordOp(h document.Hash, kind loadstats.Kind) (string, error) {
	rg := c.rings[h.RingIndex(len(c.rings))]
	irh := h.IrH(rg.IntraGen())
	beacon, err := rg.BeaconFor(irh)
	if err != nil {
		return "", err
	}
	if err := rg.Record(irh, kind, 1); err != nil {
		return "", err
	}
	c.beaconLoad[beacon]++
	return beacon, nil
}

// RegisterHolder adds a cache to the document's holder list at its beacon
// point. Typically called after a placement decision stores a copy.
func (c *Cloud) RegisterHolder(url, cacheID string) error {
	return c.RegisterHolderHash(url, document.HashURL(url), cacheID)
}

// RegisterHolderHash is RegisterHolder for a precomputed document hash.
func (c *Cloud) RegisterHolderHash(url string, h document.Hash, cacheID string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.caches[cacheID]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownCache, cacheID)
	}
	beacon, err := c.beaconForHashLocked(h)
	if err != nil {
		return err
	}
	rec, ok := c.records[beacon][url]
	if !ok {
		rec = &record{hash: h}
		c.records[beacon][url] = rec
	}
	rec.addHolder(cacheID)
	return nil
}

// DeregisterHolder removes a cache from the document's holder list (after
// an eviction).
func (c *Cloud) DeregisterHolder(url, cacheID string) error {
	return c.DeregisterHolderHash(url, document.HashURL(url), cacheID)
}

// DeregisterHolderHash is DeregisterHolder for a precomputed document hash.
func (c *Cloud) DeregisterHolderHash(url string, h document.Hash, cacheID string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	beacon, err := c.beaconForHashLocked(h)
	if err != nil {
		return err
	}
	if rec, ok := c.records[beacon][url]; ok {
		rec.removeHolder(cacheID)
	}
	return nil
}

// Holders returns the current holder list without charging lookup load
// (an internal peek used by placement and tests; the protocol path is
// Lookup).
func (c *Cloud) Holders(url string) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	beacon, err := c.beaconForHashLocked(document.HashURL(url))
	if err != nil {
		return nil
	}
	if rec, ok := c.records[beacon][url]; ok {
		return rec.holderList()
	}
	return nil
}

// UpdateResult summarises one run of the document update protocol.
type UpdateResult struct {
	// Beacon is the beacon point the server contacted.
	Beacon string
	// Notified are the holder caches the beacon pushed the new version to.
	Notified []string
	// FanoutBytes is the intra-cloud traffic of the push
	// (len(Notified) × size).
	FanoutBytes int64
}

// Update runs the document update protocol: the origin server has sent the
// updated document to the document's beacon point (one message per cloud);
// the beacon records the update load, refreshes its record version, and
// distributes the new version to every cache currently holding the
// document.
func (c *Cloud) Update(doc document.Document, now int64) (UpdateResult, error) {
	return c.UpdateHash(doc, document.HashURL(doc.URL), now)
}

// UpdateHash is Update for a precomputed document hash.
func (c *Cloud) UpdateHash(doc document.Document, h document.Hash, now int64) (UpdateResult, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	beacon, err := c.recordOp(h, loadstats.Update)
	if err != nil {
		return UpdateResult{}, err
	}
	rec, ok := c.records[beacon][doc.URL]
	if !ok {
		rec = &record{hash: h}
		c.records[beacon][doc.URL] = rec
	}
	rec.updateRate.Observe(monitorHalfLife, now, 1)
	if doc.Version > rec.version {
		rec.version = doc.Version
	}
	res := UpdateResult{Beacon: beacon}
	// Filter the holder list in place: holders that no longer exist or no
	// longer hold the document (stale record) drop out.
	keep := rec.holders[:0]
	for _, holder := range rec.holders {
		hc, ok := c.caches[holder]
		if !ok {
			continue
		}
		if hc.ApplyUpdate(doc, now) {
			res.Notified = append(res.Notified, holder)
			res.FanoutBytes += doc.Size
			keep = append(keep, holder)
		}
	}
	rec.holders = keep
	c.lastNow = now
	if c.tracer != nil && len(res.Notified) > 0 {
		c.tracer.Emit(obs.Event{Time: now, Kind: obs.EvUpdateFanout, Node: beacon, URL: doc.URL, Count: int64(len(res.Notified))})
	}
	return res, nil
}

// DocumentRates returns the beacon-side monitored cloud-wide lookup and
// update rates for a document — the inputs to the utility placement
// scheme's consistency-maintenance component.
func (c *Cloud) DocumentRates(url string, now int64) (lookupRate, updateRate float64) {
	return c.DocumentRatesHash(url, document.HashURL(url), now)
}

// DocumentRatesHash is DocumentRates for a precomputed document hash.
func (c *Cloud) DocumentRatesHash(url string, h document.Hash, now int64) (lookupRate, updateRate float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	beacon, err := c.beaconForHashLocked(h)
	if err != nil {
		return 0, 0
	}
	rec, ok := c.records[beacon][url]
	if !ok {
		return 0, 0
	}
	return rec.lookupRate.Rate(monitorHalfLife, now), rec.updateRate.Rate(monitorHalfLife, now)
}

// Rebalance runs the sub-range determination process on every beacon ring
// (end of cycle) and migrates the lookup records implied by the boundary
// moves. It returns the number of records migrated.
func (c *Cloud) Rebalance() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	migrated := 0
	for ringIdx, rg := range c.rings {
		moves := rg.Rebalance()
		for _, mv := range moves {
			n := c.migrateLocked(ringIdx, rg, mv)
			migrated += n
			if c.tracer != nil && n > 0 {
				c.tracer.Emit(obs.Event{Time: c.lastNow, Kind: obs.EvRecordMigrated, Node: mv.To, Count: int64(n)})
			}
		}
	}
	c.recordsMigrated += int64(migrated)
	return migrated
}

// migrateLocked moves the records covered by mv from mv.From to mv.To.
func (c *Cloud) migrateLocked(ringIdx int, rg *ring.Ring, mv ring.Move) int {
	src := c.records[mv.From]
	dst := c.records[mv.To]
	if src == nil || dst == nil {
		return 0
	}
	n := 0
	for url, rec := range src {
		// The record caches its document hash, so migration never re-hashes.
		if rec.hash.RingIndex(len(c.rings)) != ringIdx {
			continue
		}
		if !mv.Sub.Contains(rec.hash.IrH(rg.IntraGen())) {
			continue
		}
		dst[url] = rec
		delete(src, url)
		n++
	}
	return n
}

// ReplicateRecords copies every beacon point's lookup records to its ring
// sibling — the paper's lazy replication for failure resilience. It is a
// no-op unless the cloud was configured with ReplicateRecords.
func (c *Cloud) ReplicateRecords() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.cfg.ReplicateRecords {
		return
	}
	for beacon, recs := range c.records {
		rIdx, ok := c.ringOf[beacon]
		if !ok {
			continue
		}
		sib := c.rings[rIdx].Sibling(beacon)
		if sib == "" {
			continue
		}
		repl := c.replicas[sib]
		if repl == nil {
			repl = make(map[string]*record, len(recs))
			c.replicas[sib] = repl
		}
		for url, rec := range recs {
			repl[url] = rec.clone()
		}
	}
}

// RemoveCache handles the departure or failure of a cache: its beacon
// sub-ranges merge into a ring neighbour, its lookup records move to that
// neighbour (recovered from the sibling replica when the departure is a
// failure and replication is enabled), and it is dropped from every holder
// list. graceful indicates whether the cache's own record store is still
// readable (planned departure) or lost (crash).
func (c *Cloud) RemoveCache(id string, graceful bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.caches[id]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownCache, id)
	}
	rIdx := c.ringOf[id]
	mv, err := c.rings[rIdx].Remove(id)
	if err != nil {
		return fmt.Errorf("core: remove %q from ring %d: %w", id, rIdx, err)
	}

	switch {
	case graceful:
		moved := int64(0)
		for url, rec := range c.records[id] {
			c.records[mv.To][url] = rec
			c.recordsMigrated++
			moved++
		}
		if c.tracer != nil && moved > 0 {
			c.tracer.Emit(obs.Event{Time: c.lastNow, Kind: obs.EvRecordMigrated, Node: mv.To, Count: moved})
		}
	case c.cfg.ReplicateRecords:
		// Crash: recover records from the replicas held by the dead
		// beacon's sibling(s). Replicas were pushed to other caches, so
		// scan every replica shard for records the dead beacon owned.
		for url := range c.records[id] {
			recovered := false
			for holderID, shard := range c.replicas {
				if holderID == id {
					continue
				}
				if repl, ok := shard[url]; ok {
					c.records[mv.To][url] = repl
					c.recordsRecov++
					recovered = true
					break
				}
			}
			if !recovered {
				c.recordsLost++
			}
		}
	default:
		c.recordsLost += int64(len(c.records[id]))
	}

	delete(c.records, id)
	delete(c.replicas, id)
	delete(c.caches, id)
	delete(c.ringOf, id)
	delete(c.beaconLoad, id)

	// Drop the departed cache from every holder list — including the
	// replica snapshots, which would otherwise resurrect it as a holder
	// when a later crash promotes them.
	for _, shard := range c.records {
		for _, rec := range shard {
			rec.removeHolder(id)
		}
	}
	for _, shard := range c.replicas {
		for _, rec := range shard {
			rec.removeHolder(id)
		}
	}
	return nil
}

// AddCache joins a new cache to the cloud. It is placed in the ring with
// the fewest beacon points and receives half of the widest sub-range there;
// the records for that sub-range migrate to it.
func (c *Cloud) AddCache(id string, capability float64, capacity int64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.caches[id]; dup {
		return fmt.Errorf("%w: duplicate cache %q", ErrBadTopology, id)
	}
	best, bestSize := -1, 0
	for i, rg := range c.rings {
		if s := rg.Size(); best == -1 || s < bestSize {
			best, bestSize = i, s
		}
	}
	mv, err := c.rings[best].Add(ring.Member{ID: id, Capability: capability})
	if err != nil {
		return fmt.Errorf("core: add %q to ring %d: %w", id, best, err)
	}
	c.caches[id] = cache.NewWithReplacement(id, capacity, replacementOrLRU(c.cfg.Replacement))
	c.records[id] = make(map[string]*record)
	c.ringOf[id] = best
	c.beaconLoad[id] = 0
	n := c.migrateLocked(best, c.rings[best], mv)
	c.recordsMigrated += int64(n)
	if c.tracer != nil && n > 0 {
		c.tracer.Emit(obs.Event{Time: c.lastNow, Kind: obs.EvRecordMigrated, Node: id, Count: int64(n)})
	}
	return nil
}

// BeaconLoads returns the cumulative lookup+update operations handled per
// cache since the cloud was created — the load metric of Figures 3-6.
func (c *Cloud) BeaconLoads() map[string]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int64, len(c.beaconLoad))
	for id, v := range c.beaconLoad {
		out[id] = v
	}
	return out
}

// LoadDistribution returns the beacon loads as a loadstats.Distribution.
// Loads are folded in sorted cache-ID order so derived statistics are
// bit-identical across runs.
func (c *Cloud) LoadDistribution() loadstats.Distribution {
	loads := c.BeaconLoads()
	ids := make([]string, 0, len(loads))
	for id := range loads {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	vals := make([]float64, 0, len(ids))
	for _, id := range ids {
		vals = append(vals, float64(loads[id]))
	}
	return loadstats.NewDistribution(vals)
}

// Stats reports lifetime record-management counters.
type Stats struct {
	RecordsMigrated  int64
	RecordsLost      int64
	RecordsRecovered int64
}

// Stats returns the lifetime record-management counters.
func (c *Cloud) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		RecordsMigrated:  c.recordsMigrated,
		RecordsLost:      c.recordsLost,
		RecordsRecovered: c.recordsRecov,
	}
}

// RingAssignments exposes each ring's current sub-range assignment for
// diagnostics and experiments.
func (c *Cloud) RingAssignments() [][]ring.Assignment {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([][]ring.Assignment, len(c.rings))
	for i, rg := range c.rings {
		out[i] = rg.Assignments()
	}
	return out
}
