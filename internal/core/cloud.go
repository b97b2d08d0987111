// Package core implements the paper's primary contribution: the cache
// cloud — a group of edge caches that cooperate through beacon points for
// document lookups, document updates, and document placement (Section 2).
//
// The cloud owns its edge caches and its beacon rings. A document's beacon
// point is resolved in two steps: a static hash picks the beacon ring
// (MD5(URL) mod numRings) and the dynamic intra-ring hash picks the beacon
// point within the ring (the owner of the sub-range containing IrH(URL)).
// Beacon points maintain lookup records — the list of caches currently
// holding each document plus the monitoring state (cloud-wide lookup and
// update rates) the utility placement scheme consumes.
//
// The implementation is sharded and epoch-snapshotted for read scalability:
// per-beacon-point shards hold the lookup records and load counters, and an
// immutable epoch snapshot of the topology is published through an atomic
// pointer. The hot paths (Lookup, Update, holder registration, stats reads)
// resolve documents against the current epoch without taking any cloud-wide
// lock — operations on documents owned by different beacon points never
// contend, and operations on different documents of the same beacon point
// contend only on a short per-shard read lock. Topology changes (Rebalance,
// AddCache, RemoveCache, replication) serialize on a single writer mutex
// and install a fresh epoch RCU-style. Sequential behaviour is
// bit-identical to the seed single-mutex implementation, which is preserved
// as internal/core/seedref and checked against this package by the
// equivalence property test. DESIGN.md documents the epoch semantics.
package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

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

// Cloud is a cache cloud. All methods are safe for concurrent use; the
// lookup/update/registration paths and all stats reads are lock-free with
// respect to the cloud (they synchronize only per shard and per record).
type Cloud struct {
	// mu serializes topology writers: Rebalance, AddCache, RemoveCache,
	// ReplicateRecords. The read path never touches it.
	mu  sync.Mutex
	cfg Config

	// rings, caches, shards, and ringOf are the master topology, mutated
	// only under mu. Readers use the epoch snapshot instead.
	rings  []*ring.Ring
	caches map[string]*cache.Cache
	shards map[string]*shard
	// ringOf maps a cache ID to the index of the ring it serves in (one per
	// cloud in this implementation).
	ringOf map[string]int

	// ep is the current epoch snapshot, the read path's single entry point.
	ep atomic.Pointer[epoch]

	// tracer receives protocol events (nil = disabled; the hot paths
	// guard on the pointer so a disabled tracer costs zero allocations).
	tracer atomic.Pointer[obs.Tracer]

	// lastNow is the most recent logical time seen by a lookup or
	// update — migrations at cycle boundaries are stamped with it.
	lastNow atomic.Int64

	recordsMigrated atomic.Int64
	recordsLost     atomic.Int64
	recordsRecov    atomic.Int64
	epochInstalls   atomic.Int64
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
		cfg:    cfg,
		caches: make(map[string]*cache.Cache, len(cacheIDs)),
		shards: make(map[string]*shard, len(cacheIDs)),
		ringOf: make(map[string]int, len(cacheIDs)),
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
		c.shards[id] = newShard(id, cfg.IntraGen, cfg.FineGrained)
	}
	for r := 0; r < cfg.NumRings; r++ {
		rg, err := ring.New(ring.Config{IntraGen: cfg.IntraGen, FineGrained: cfg.FineGrained}, members[r])
		if err != nil {
			return nil, fmt.Errorf("core: build ring %d: %w", r, err)
		}
		c.rings = append(c.rings, rg)
	}
	c.mu.Lock()
	c.installEpoch()
	c.mu.Unlock()
	return c, nil
}

// SetTracer attaches a protocol-event tracer (nil detaches). The cloud
// emits EvBeaconLookup, EvUpdateFanout, EvRecordMigrated, and
// EvEpochInstall.
func (c *Cloud) SetTracer(t *obs.Tracer) {
	c.tracer.Store(t)
}

// Cache returns the cache with the given ID, or nil when absent.
func (c *Cloud) Cache(id string) *cache.Cache {
	return c.ep.Load().caches[id]
}

// CacheIDs returns the IDs of all member caches in sorted order, so
// consumers that fold floating-point quantities over the membership get the
// same summation order — and therefore bit-identical results — on every run.
func (c *Cloud) CacheIDs() []string {
	ids := c.ep.Load().ids
	out := make([]string, len(ids))
	copy(out, ids)
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
	return c.ep.Load().beaconFor(h)
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
	// LookupRate and UpdateRate are the document's beacon-side monitored
	// per-unit rates, populated only by LookupHashWithRates — they feed the
	// utility placement scheme; plain lookups skip the computation.
	LookupRate float64
	UpdateRate float64
}

// Lookup runs the document lookup protocol: it resolves the beacon point,
// records the lookup load on the owning shard (drained into the ring's
// sub-range counters at Rebalance) and on the beacon's lifetime counters
// (for the evaluation figures), and returns the current holders. The
// returned holder list is a copy the caller owns; the simulator's hot path
// uses LookupHash instead, which avoids both the re-hash and the copy.
func (c *Cloud) Lookup(url string, now int64) (LookupResult, error) {
	return c.lookupHash(url, document.HashURL(url), now, false, true)
}

// LookupHash is Lookup for a precomputed document hash — the simulator's
// hot path. To avoid an allocation per lookup the returned Holders slice
// aliases the beacon's internal record: it is valid only until the next
// call that mutates the record (an update, registration, or membership
// change) and must not be modified. Callers that retain the holder list
// across mutations should use Lookup, which returns a private copy.
func (c *Cloud) LookupHash(url string, h document.Hash, now int64) (LookupResult, error) {
	return c.lookupHash(url, h, now, false, false)
}

// LookupHashWithRates is LookupHash plus the document's monitored lookup
// and update rates in one record acquisition — the miss path's placement
// decision needs both, and fusing them halves the synchronization.
//
// Determinism note: the rates are computed at the same logical time as the
// lookup's Observe, where the estimator's decay step is a no-op, so calling
// this instead of LookupHash + DocumentRatesHash leaves the monitor state
// trajectory — and therefore whole-run reproducibility — unchanged.
func (c *Cloud) LookupHashWithRates(url string, h document.Hash, now int64) (LookupResult, error) {
	return c.lookupHash(url, h, now, true, false)
}

func (c *Cloud) lookupHash(url string, h document.Hash, now int64, withRates, copyHolders bool) (LookupResult, error) {
	ep := c.ep.Load()
	s, irh, err := ep.resolve(h)
	if err != nil {
		return LookupResult{}, err
	}
	s.charge(irh, loadstats.Lookup)
	rec := s.getOrCreate(url, h)
	rec.mu.Lock()
	rec.lookupRate.Observe(monitorHalfLife, now, 1)
	res := LookupResult{Beacon: s.id, Holders: rec.holders, Version: rec.version}
	if withRates {
		res.LookupRate = rec.lookupRate.Rate(monitorHalfLife, now)
		res.UpdateRate = rec.updateRate.Rate(monitorHalfLife, now)
	}
	if copyHolders {
		res.Holders = rec.holderList()
	}
	rec.mu.Unlock()
	c.lastNow.Store(now)
	if t := c.tracer.Load(); t != nil {
		t.Emit(obs.Event{Time: now, Kind: obs.EvBeaconLookup, Node: s.id, URL: url})
	}
	return res, nil
}

// RegisterHolder adds a cache to the document's holder list at its beacon
// point. Typically called after a placement decision stores a copy.
func (c *Cloud) RegisterHolder(url, cacheID string) error {
	return c.RegisterHolderHash(url, document.HashURL(url), cacheID)
}

// RegisterHolderHash is RegisterHolder for a precomputed document hash.
func (c *Cloud) RegisterHolderHash(url string, h document.Hash, cacheID string) error {
	ep := c.ep.Load()
	hc, ok := ep.caches[cacheID]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownCache, cacheID)
	}
	s, _, err := ep.resolve(h)
	if err != nil {
		return err
	}
	rec := s.getOrCreate(url, h)
	rec.mu.Lock()
	rec.addHolder(cacheID, hc)
	rec.mu.Unlock()
	return nil
}

// DeregisterHolder removes a cache from the document's holder list (after
// an eviction).
func (c *Cloud) DeregisterHolder(url, cacheID string) error {
	return c.DeregisterHolderHash(url, document.HashURL(url), cacheID)
}

// DeregisterHolderHash is DeregisterHolder for a precomputed document hash.
func (c *Cloud) DeregisterHolderHash(url string, h document.Hash, cacheID string) error {
	ep := c.ep.Load()
	s, _, err := ep.resolve(h)
	if err != nil {
		return err
	}
	if rec := s.get(url); rec != nil {
		rec.mu.Lock()
		rec.removeHolder(cacheID)
		rec.mu.Unlock()
	}
	return nil
}

// Holders returns the current holder list without charging lookup load
// (an internal peek used by placement and tests; the protocol path is
// Lookup).
func (c *Cloud) Holders(url string) []string {
	ep := c.ep.Load()
	s, _, err := ep.resolve(document.HashURL(url))
	if err != nil {
		return nil
	}
	rec := s.get(url)
	if rec == nil {
		return nil
	}
	rec.mu.Lock()
	out := rec.holderList()
	rec.mu.Unlock()
	return out
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

// UpdateHash is Update for a precomputed document hash. The fan-out pushes
// through the record's cached holder handles, so notifying n holders costs
// n cache-level operations and no map lookups.
func (c *Cloud) UpdateHash(doc document.Document, h document.Hash, now int64) (UpdateResult, error) {
	ep := c.ep.Load()
	s, irh, err := ep.resolve(h)
	if err != nil {
		return UpdateResult{}, err
	}
	s.charge(irh, loadstats.Update)
	rec := s.getOrCreate(doc.URL, h)
	res := UpdateResult{Beacon: s.id}
	rec.mu.Lock()
	rec.updateRate.Observe(monitorHalfLife, now, 1)
	if doc.Version > rec.version {
		rec.version = doc.Version
	}
	// Filter the holder list in place: holders that no longer hold the
	// document (stale record) drop out. RemoveCache scrubs departed caches
	// from every record, so each cached handle is a live member.
	keep := rec.holders[:0]
	keepC := rec.hcaches[:0]
	for i, holder := range rec.holders {
		hc := rec.hcaches[i]
		if hc.ApplyUpdate(doc, now) {
			res.Notified = append(res.Notified, holder)
			res.FanoutBytes += doc.Size
			keep = append(keep, holder)
			keepC = append(keepC, hc)
		}
	}
	rec.holders = keep
	rec.hcaches = keepC
	rec.mu.Unlock()
	c.lastNow.Store(now)
	if t := c.tracer.Load(); t != nil && len(res.Notified) > 0 {
		t.Emit(obs.Event{Time: now, Kind: obs.EvUpdateFanout, Node: s.id, URL: doc.URL, Count: int64(len(res.Notified))})
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
	ep := c.ep.Load()
	s, _, err := ep.resolve(h)
	if err != nil {
		return 0, 0
	}
	rec := s.get(url)
	if rec == nil {
		return 0, 0
	}
	rec.mu.Lock()
	lookupRate = rec.lookupRate.Rate(monitorHalfLife, now)
	updateRate = rec.updateRate.Rate(monitorHalfLife, now)
	rec.mu.Unlock()
	return lookupRate, updateRate
}

// Rebalance runs the sub-range determination process on every beacon ring
// (end of cycle) and migrates the lookup records implied by the boundary
// moves. The shards' cycle load counters — accumulated lock-free while the
// cycle ran — are drained into the rings' per-point counters first, so
// sub-range determination sees exactly the per-point, per-IrH tallies the
// seed accumulated in-line. It returns the number of records migrated.
func (c *Cloud) Rebalance() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	migrated := 0
	for ringIdx, rg := range c.rings {
		for _, a := range rg.Assignments() {
			s := c.shards[a.ID]
			if s == nil {
				continue
			}
			lookups, updates, perIrH := s.drainCycle()
			if lookups != 0 || updates != 0 {
				// Absorb can only fail for an unknown point; a comes fresh
				// from the same ring under Cloud.mu, so it cannot.
				_ = rg.AbsorbLoad(a.ID, lookups, updates, perIrH)
			}
		}
		moves := rg.Rebalance()
		for _, mv := range moves {
			n := c.migrate(ringIdx, rg, mv)
			migrated += n
			if t := c.tracer.Load(); t != nil && n > 0 {
				t.Emit(obs.Event{Time: c.lastNow.Load(), Kind: obs.EvRecordMigrated, Node: mv.To, Count: int64(n)})
			}
		}
	}
	c.recordsMigrated.Add(int64(migrated))
	c.installEpoch()
	return migrated
}

// migrate moves the records covered by mv from mv.From to mv.To. Caller
// holds Cloud.mu; the two shards are write-locked against concurrent
// readers of the outgoing epoch.
func (c *Cloud) migrate(ringIdx int, rg *ring.Ring, mv ring.Move) int {
	src := c.shards[mv.From]
	dst := c.shards[mv.To]
	if src == nil || dst == nil {
		return 0
	}
	intraGen := rg.IntraGen()
	lockPair(src, dst)
	n := 0
	for url, rec := range src.records {
		// The record caches its document hash, so migration never re-hashes.
		if rec.hash.RingIndex(len(c.rings)) != ringIdx {
			continue
		}
		if !mv.Sub.Contains(rec.hash.IrH(intraGen)) {
			continue
		}
		dst.records[url] = rec
		delete(src.records, url)
		n++
	}
	unlockPair(src, dst)
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
	for beacon, s := range c.shards {
		rIdx, ok := c.ringOf[beacon]
		if !ok {
			continue
		}
		sib := c.rings[rIdx].Sibling(beacon)
		if sib == "" {
			continue
		}
		sibShard := c.shards[sib]
		if sibShard == nil {
			continue
		}
		s.mu.RLock()
		for url, rec := range s.records {
			sibShard.replicas[url] = rec.clone()
		}
		s.mu.RUnlock()
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
	victim := c.shards[id]
	dst := c.shards[mv.To]

	switch {
	case graceful:
		moved := int64(0)
		lockPair(victim, dst)
		for url, rec := range victim.records {
			dst.records[url] = rec
			moved++
		}
		unlockPair(victim, dst)
		c.recordsMigrated.Add(moved)
		if t := c.tracer.Load(); t != nil && moved > 0 {
			t.Emit(obs.Event{Time: c.lastNow.Load(), Kind: obs.EvRecordMigrated, Node: mv.To, Count: moved})
		}
	case c.cfg.ReplicateRecords:
		// Crash: recover records from the replicas held by the dead
		// beacon's sibling(s). Replicas were pushed to other caches, so
		// scan every replica shard for records the dead beacon owned. The
		// scan runs in sorted ID order — deterministic where the seed's
		// map-order scan was not, observable only when stale clones linger
		// at a record's pre-migration sibling.
		holderIDs := make([]string, 0, len(c.shards))
		for holderID := range c.shards {
			if holderID != id {
				holderIDs = append(holderIDs, holderID)
			}
		}
		sort.Strings(holderIDs)
		lockPair(victim, dst)
		for url := range victim.records {
			recovered := false
			for _, holderID := range holderIDs {
				if repl, ok := c.shards[holderID].replicas[url]; ok {
					dst.records[url] = repl
					c.recordsRecov.Add(1)
					recovered = true
					break
				}
			}
			if !recovered {
				c.recordsLost.Add(1)
			}
		}
		unlockPair(victim, dst)
	default:
		victim.mu.RLock()
		c.recordsLost.Add(int64(len(victim.records)))
		victim.mu.RUnlock()
	}

	delete(c.shards, id)
	delete(c.caches, id)
	delete(c.ringOf, id)

	// Drop the departed cache from every holder list — including the
	// replica snapshots, which would otherwise resurrect it as a holder
	// when a later crash promotes them. Promoted replicas may be aliased
	// by live records, so replica scrubbing locks the record too.
	for _, s := range c.shards {
		s.mu.RLock()
		for _, rec := range s.records {
			rec.mu.Lock()
			rec.removeHolder(id)
			rec.mu.Unlock()
		}
		s.mu.RUnlock()
		for _, rec := range s.replicas {
			rec.mu.Lock()
			rec.removeHolder(id)
			rec.mu.Unlock()
		}
	}
	c.installEpoch()
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
	c.shards[id] = newShard(id, c.cfg.IntraGen, c.cfg.FineGrained)
	c.ringOf[id] = best
	n := c.migrate(best, c.rings[best], mv)
	c.recordsMigrated.Add(int64(n))
	if t := c.tracer.Load(); t != nil && n > 0 {
		t.Emit(obs.Event{Time: c.lastNow.Load(), Kind: obs.EvRecordMigrated, Node: id, Count: int64(n)})
	}
	c.installEpoch()
	return nil
}

// BeaconLoads returns the cumulative lookup+update operations handled per
// cache since the cloud was created — the load metric of Figures 3-6. The
// counts are read from the current epoch without locking.
func (c *Cloud) BeaconLoads() map[string]int64 {
	ep := c.ep.Load()
	out := make(map[string]int64, len(ep.shards))
	for id, s := range ep.shards {
		out[id] = s.load.Load()
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
	// EpochInstalls counts topology snapshots published since New (the
	// initial epoch is install 1).
	EpochInstalls int64
}

// Stats returns the lifetime record-management counters. It reads atomics
// only and never blocks behind the write path.
func (c *Cloud) Stats() Stats {
	return Stats{
		RecordsMigrated:  c.recordsMigrated.Load(),
		RecordsLost:      c.recordsLost.Load(),
		RecordsRecovered: c.recordsRecov.Load(),
		EpochInstalls:    c.epochInstalls.Load(),
	}
}

// RingAssignments exposes each ring's current sub-range assignment for
// diagnostics and experiments. CycleLoad includes the shards' pending
// (not yet drained) counts, matching the seed's in-line accounting.
func (c *Cloud) RingAssignments() [][]ring.Assignment {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([][]ring.Assignment, len(c.rings))
	for i, rg := range c.rings {
		out[i] = rg.Assignments()
		for j := range out[i] {
			if s := c.shards[out[i][j].ID]; s != nil {
				out[i][j].CycleLoad += s.pendingCycle()
			}
		}
	}
	return out
}
