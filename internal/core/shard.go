package core

import (
	"sync"
	"sync/atomic"

	"cachecloud/internal/cache"
	"cachecloud/internal/document"
	"cachecloud/internal/loadstats"
)

// record is the beacon-side lookup record for one document. The document
// hash is cached here so migrations and replica management never re-hash the
// URL, and the holder list is an insertion-ordered slice: holder sets are
// small (bounded by the cloud size), membership checks are a short linear
// scan, and — unlike a map — iteration order is deterministic, which keeps
// whole simulation runs reproducible.
//
// hcaches mirrors holders position-for-position with the holders' cache
// handles, so the update fan-out pushes to every holder without a map
// lookup per holder. The invariant that every hcaches entry is a live
// member cache is maintained by RemoveCache, which scrubs departed caches
// from every record and replica before returning.
//
// Each record carries its own mutex: lookups, updates, and holder
// registration for different documents never contend.
type record struct {
	hash document.Hash

	mu         sync.Mutex
	holders    []string
	hcaches    []*cache.Cache
	version    document.Version
	lookupRate loadstats.EWRate // cloud-wide lookups for this document
	updateRate loadstats.EWRate // updates for this document
}

// hasHolder reports holder membership. Caller holds rec.mu.
func (r *record) hasHolder(id string) bool {
	for _, h := range r.holders {
		if h == id {
			return true
		}
	}
	return false
}

// addHolder appends a holder and its cache handle. Caller holds rec.mu.
func (r *record) addHolder(id string, hc *cache.Cache) {
	if !r.hasHolder(id) {
		r.holders = append(r.holders, id)
		r.hcaches = append(r.hcaches, hc)
	}
}

// removeHolder drops a holder, keeping hcaches aligned. Caller holds rec.mu
// (or the record is a replica clone reachable only under Cloud.mu).
func (r *record) removeHolder(id string) {
	for i, h := range r.holders {
		if h == id {
			r.holders = append(r.holders[:i], r.holders[i+1:]...)
			r.hcaches = append(r.hcaches[:i], r.hcaches[i+1:]...)
			return
		}
	}
}

// holderList returns a defensive copy of the holder list. Caller holds rec.mu.
func (r *record) holderList() []string {
	if len(r.holders) == 0 {
		return nil
	}
	out := make([]string, len(r.holders))
	copy(out, r.holders)
	return out
}

// clone snapshots the record for replication. It locks rec.mu itself.
func (r *record) clone() *record {
	c := &record{hash: r.hash}
	r.mu.Lock()
	c.holders = r.holderList()
	if len(r.hcaches) > 0 {
		c.hcaches = make([]*cache.Cache, len(r.hcaches))
		copy(c.hcaches, r.hcaches)
	}
	c.version = r.version
	r.mu.Unlock()
	return c
}

// shard is the per-beacon-point slice of the cloud's state: the beacon's
// lookup records, its lazy sibling replicas, and its load counters.
// Operations on documents owned by different beacon points touch different
// shards and never contend.
//
// Locking: records is guarded by shard.mu (readers RLock only long enough
// to fetch the *record; per-record state is then guarded by record.mu).
// replicas is written and read exclusively on the topology write path, under
// Cloud.mu. The load counters are atomics so the read path never writes a
// lock word shared across documents.
type shard struct {
	id string

	mu      sync.RWMutex
	records map[string]*record

	// replicas holds the lazy clones this beacon keeps for its ring
	// sibling(s). Guarded by Cloud.mu, not shard.mu.
	replicas map[string]*record

	// load is the lifetime lookup+update count (Figures 3-6). lookups and
	// updates accumulate the current cycle's load and are drained into the
	// owning ring's sub-range counters at Rebalance.
	load    atomic.Int64
	lookups atomic.Int64
	updates atomic.Int64
	// perIrH accumulates the cycle's per-IrH-value load (the paper's
	// CIrHLd) when fine-grained tracking is on; nil otherwise.
	perIrH []atomic.Int64
}

func newShard(id string, intraGen int, fineGrained bool) *shard {
	s := &shard{
		id:       id,
		records:  make(map[string]*record),
		replicas: make(map[string]*record),
	}
	if fineGrained {
		s.perIrH = make([]atomic.Int64, intraGen)
	}
	return s
}

// charge counts one operation of the given kind against the shard — the
// lock-free equivalent of the seed's ring.Record + beaconLoad++ pair.
func (s *shard) charge(irh int, kind loadstats.Kind) {
	s.load.Add(1)
	if kind == loadstats.Lookup {
		s.lookups.Add(1)
	} else {
		s.updates.Add(1)
	}
	if s.perIrH != nil && irh >= 0 && irh < len(s.perIrH) {
		s.perIrH[irh].Add(1)
	}
}

// get returns the record for url, or nil.
func (s *shard) get(url string) *record {
	s.mu.RLock()
	rec := s.records[url]
	s.mu.RUnlock()
	return rec
}

// getOrCreate returns the record for url, creating it on first contact so
// monitoring starts with the first lookup. The fast path is a read-locked
// map probe; creation double-checks under the write lock.
func (s *shard) getOrCreate(url string, h document.Hash) *record {
	s.mu.RLock()
	rec := s.records[url]
	s.mu.RUnlock()
	if rec != nil {
		return rec
	}
	s.mu.Lock()
	rec = s.records[url]
	if rec == nil {
		rec = &record{hash: h}
		s.records[url] = rec
	}
	s.mu.Unlock()
	return rec
}

// drainCycle swaps out the cycle counters, returning the pending lookup and
// update counts plus the per-IrH tallies (nil when coarse). Called under
// Cloud.mu right before sub-range determination.
func (s *shard) drainCycle() (lookups, updates int64, perIrH []int64) {
	lookups = s.lookups.Swap(0)
	updates = s.updates.Swap(0)
	if s.perIrH != nil {
		perIrH = make([]int64, len(s.perIrH))
		for i := range s.perIrH {
			perIrH[i] = s.perIrH[i].Swap(0)
		}
	}
	return lookups, updates, perIrH
}

// pendingCycle returns the not-yet-drained cycle load, read without
// disturbing the counters (for RingAssignments' mid-cycle view).
func (s *shard) pendingCycle() int64 {
	return s.lookups.Load() + s.updates.Load()
}

// lockPair write-locks two distinct shards in ID order. Only topology
// writers (serialized by Cloud.mu) ever hold two shard locks, so the order
// is hygiene rather than a deadlock requirement.
func lockPair(a, b *shard) {
	if a.id > b.id {
		a, b = b, a
	}
	a.mu.Lock()
	if a != b {
		b.mu.Lock()
	}
}

func unlockPair(a, b *shard) {
	if a == b {
		a.mu.Unlock()
		return
	}
	a.mu.Unlock()
	b.mu.Unlock()
}
