// Package cache implements the edge cache: a byte-budgeted document store
// with pluggable replacement (LRU by default, as in the paper's
// limited-disk experiments; LFU and GreedyDual-Size for the replacement
// ablation) and the per-document access monitoring that feeds the
// utility-based placement scheme.
package cache

import (
	"errors"
	"fmt"
	"hash/maphash"
	"sync"

	"cachecloud/internal/document"
	"cachecloud/internal/durable"
	"cachecloud/internal/loadstats"
)

// ErrTooLarge is returned when a document exceeds the cache's total
// capacity and can never be stored.
var ErrTooLarge = errors.New("cache: document larger than cache capacity")

// accessHalfLife is the half-life (in time units) every exponentially
// weighted access/eviction monitor shares. One hour of trace time.
var accessHalfLife = loadstats.NewHalfLife(60)

// monitorSeed keys every cache's monitors of documents not stored. It is
// drawn once per process and never leaves it, so no client can choose two
// URLs that share a key.
var monitorSeed = maphash.MakeSeed()

// monitorKey is url's key in monitors.
func monitorKey(url string) uint64 { return maphash.String(monitorSeed, url) }

// Cache is one edge cache. All methods are safe for concurrent use.
type Cache struct {
	mu       sync.Mutex
	id       string
	capacity int64 // bytes; 0 means unlimited
	used     int64
	// entries finds a stored document's slot: the copy, its access monitor
	// and its place in the replacement order, behind one hashed lookup.
	entries map[string]*slot
	// spare is the slot the last eviction or removal emptied; the next
	// document stored takes it, so a store that evicts allocates no slot.
	spare  *slot
	policy replacementPolicy
	kind   ReplacementKind

	// Multi-tenant residency: resident bytes per tenant (derived from the
	// tenant-folded keys) and the optional quota table enforced on every
	// Put/ApplyUpdate. A tenant over its cap evicts only its own entries.
	tenantUsed     map[string]int64
	quotas         TenantQuotas
	quotaEvictions map[string]int64 // documents evicted per tenant by its byte quota

	// monitors tracks access rates of the documents that have been asked
	// for and are not currently stored, by value and under monitorKey of the
	// URL (a URL only ever seen costs a map slot and keeps no string) — the
	// paper's placement scheme decides using patterns "collected through
	// continued monitoring". A stored document's monitor is in its slot: a
	// URL is here or there, never both. Two URLs sharing a key share one
	// rate estimate and nothing else; a copy is only ever found by its URL.
	monitors   map[uint64]loadstats.EWRate
	totalRate  loadstats.EWRate // all accesses at this cache
	evictBytes loadstats.EWRate // bytes evicted per unit (disk contention)

	// durable mirrors the stored copies onto disk when attached (nil:
	// memory-only). Mutating methods queue under mu, so the disk sees the
	// commit order, and drain after releasing it (unlock).
	durable *durable.Queue
}

// New creates an edge cache with LRU replacement. capacity is the disk
// budget in bytes; 0 means unlimited (the paper's Figures 7 and 8 setup).
func New(id string, capacity int64) *Cache {
	return NewWithReplacement(id, capacity, LRU)
}

// NewWithReplacement creates an edge cache with an explicit replacement
// policy.
func NewWithReplacement(id string, capacity int64, kind ReplacementKind) *Cache {
	return &Cache{
		id:             id,
		capacity:       capacity,
		entries:        make(map[string]*slot),
		policy:         newReplacementPolicy(kind),
		kind:           kind,
		quotaEvictions: make(map[string]int64),
		monitors:       make(map[uint64]loadstats.EWRate),
	}
}

// ID returns the cache identifier.
func (c *Cache) ID() string { return c.id }

// Capacity returns the byte budget (0 = unlimited).
func (c *Cache) Capacity() int64 { return c.capacity }

// Replacement returns the replacement policy kind.
func (c *Cache) Replacement() ReplacementKind { return c.kind }

// SetDurable attaches the disk tier: every admission and refresh is
// persisted through q and every removal — capacity evictions included — is
// tombstoned, so a restart recovers exactly the set that was resident.
// Attach it after any warm-boot load (and after compacting the log to the
// surviving set), so recovery itself is not re-appended. Pass nil to
// detach; what q already holds stays queued for its owner to drain.
func (c *Cache) SetDurable(q *durable.Queue) {
	c.mu.Lock()
	c.durable = q
	c.mu.Unlock()
}

// unlock releases mu and then writes what the critical section queued for
// the disk tier.
func (c *Cache) unlock() {
	q := c.durable
	c.mu.Unlock()
	q.Drain()
}

// Used returns the bytes currently stored.
func (c *Cache) Used() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used
}

// Len returns the number of stored documents.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Get looks up a document and, when present, refreshes its replacement
// priority. It always records the access in the monitoring state (hit or
// miss), so utility decisions can use the access history of documents the
// cache does not hold.
func (c *Cache) Get(url string, now int64) (document.Copy, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.totalRate.Observe(accessHalfLife, now, 1)
	s, ok := c.entries[url]
	if !ok {
		k := monitorKey(url)
		m := c.monitors[k]
		m.Observe(accessHalfLife, now, 1)
		c.monitors[k] = m
		return document.Copy{}, false
	}
	s.monitor.Observe(accessHalfLife, now, 1)
	c.policy.onAccess(s)
	return s.cp, true
}

// Peek returns the stored copy without touching replacement state or
// monitors.
func (c *Cache) Peek(url string) (document.Copy, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if s, ok := c.entries[url]; ok {
		return s.cp, true
	}
	return document.Copy{}, false
}

// Has reports whether the document is stored.
func (c *Cache) Has(url string) bool {
	_, ok := c.Peek(url)
	return ok
}

// Put stores a copy, evicting documents chosen by the replacement policy
// as needed to fit the byte budget. It returns the evicted documents (so
// the caller can deregister them from their beacon points). Storing a
// document already present replaces it in place. Documents larger than the
// whole capacity are rejected with ErrTooLarge.
func (c *Cache) Put(cp document.Copy, now int64) ([]document.Document, error) {
	c.mu.Lock()
	size := cp.Doc.Size
	if c.capacity > 0 && size > c.capacity {
		c.mu.Unlock()
		return nil, fmt.Errorf("%w: %q is %dB, capacity %dB", ErrTooLarge, cp.Doc.URL, size, c.capacity)
	}
	tenant := tenantOf(cp.Doc.URL)
	if err := c.checkTenantFit(tenant, size); err != nil {
		c.mu.Unlock()
		return nil, err
	}
	s, again := c.entries[cp.Doc.URL]
	grown := size
	if again {
		grown -= s.cp.Doc.Size
		cp.Doc.URL = s.cp.Doc.URL // the string the map key already pins
		s.cp = cp
	} else {
		s = c.newSlot(cp)
		c.entries[cp.Doc.URL] = s
	}
	c.used += grown
	c.noteTenantBytes(tenant, grown)
	c.policy.onStore(s, again)
	c.durable.Persist(cp, again)
	evicted := c.makeTenantRoom(tenant, c.tenantQuotaOf(tenant), s, now)
	evicted = c.makeRoom(evicted, s, now)
	c.unlock()
	return evicted, nil
}

// newSlot returns the slot for a document about to be stored, taking over
// the monitor the URL has had while it was not. Caller holds the lock.
func (c *Cache) newSlot(cp document.Copy) *slot {
	s := c.spare
	if s == nil {
		s = new(slot)
	}
	c.spare = nil
	s.cp = cp
	k := monitorKey(cp.Doc.URL)
	if m, seen := c.monitors[k]; seen {
		s.monitor = m
		delete(c.monitors, k)
	}
	return s
}

// makeRoom evicts policy victims (never the protected slot) until used fits
// capacity, appending them to evicted. Caller holds the lock.
func (c *Cache) makeRoom(evicted []document.Document, protect *slot, now int64) []document.Document {
	for c.capacity > 0 && c.used > c.capacity {
		victim := c.policy.victim(protect)
		if victim == nil {
			break
		}
		evicted = append(evicted, c.evict(victim, now))
	}
	return evicted
}

// evict removes a victim the policy chose and counts its bytes as disk
// contention. Caller holds the lock.
func (c *Cache) evict(victim *slot, now int64) document.Document {
	doc := c.removeLocked(victim)
	c.evictBytes.Observe(accessHalfLife, now, float64(doc.Size))
	return doc
}

// Remove drops a document, returning whether it was present.
func (c *Cache) Remove(url string) bool {
	c.mu.Lock()
	s, ok := c.entries[url]
	if ok {
		c.removeLocked(s)
	}
	c.unlock()
	return ok
}

// removeLocked takes s's document out of the store and returns it: the
// monitor goes back to monitors if it has seen an access, and the emptied
// slot becomes the spare.
func (c *Cache) removeLocked(s *slot) document.Document {
	doc := s.cp.Doc
	c.policy.onRemove(s)
	c.used -= doc.Size
	c.noteTenantBytes(tenantOf(doc.URL), -doc.Size)
	delete(c.entries, doc.URL)
	if s.monitor != (loadstats.EWRate{}) {
		c.monitors[monitorKey(doc.URL)] = s.monitor
	}
	c.durable.Tombstone(doc.URL)
	*s = slot{}
	c.spare = s
	return doc
}

// ApplyUpdate refreshes the stored copy to the new document version if the
// cache holds the document. It reports whether the document was held. The
// updated copy keeps its replacement priority: an update is not a client
// access.
func (c *Cache) ApplyUpdate(doc document.Document, now int64) bool {
	c.mu.Lock()
	s, ok := c.entries[doc.URL]
	if !ok || s.cp.Doc.Version >= doc.Version {
		c.mu.Unlock()
		return ok // absent, or already fresh
	}
	tenant := tenantOf(doc.URL)
	if c.checkTenantFit(tenant, doc.Size) != nil {
		// The update grew the document past its tenant's whole quota: the
		// copy can no longer be resident, so drop it and report not-held
		// (the core then prunes this cache from the holder list).
		c.removeLocked(s)
		c.unlock()
		return false
	}
	c.used += doc.Size - s.cp.Doc.Size
	c.noteTenantBytes(tenant, doc.Size-s.cp.Doc.Size)
	doc.URL = s.cp.Doc.URL // the string the map key already pins
	s.cp = document.Copy{Doc: doc, FetchedAt: now}
	c.durable.Persist(s.cp, true)
	// A grown update can overflow the tenant quota or the byte budget.
	c.makeTenantRoom(tenant, c.tenantQuotaOf(tenant), s, now)
	c.makeRoom(nil, s, now)
	c.unlock()
	return true
}

// Documents returns the URLs currently stored in decreasing keep-priority
// (most recently used first under LRU).
func (c *Cache) Documents() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.policy.ordered()
}

// AccessRate estimates the document's local accesses per time unit.
func (c *Cache) AccessRate(url string, now int64) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if s, ok := c.entries[url]; ok {
		if s.monitor == (loadstats.EWRate{}) {
			return 0 // stored and never asked for
		}
		return s.monitor.Rate(accessHalfLife, now)
	}
	k := monitorKey(url)
	m, ok := c.monitors[k]
	if !ok {
		return 0
	}
	rate := m.Rate(accessHalfLife, now)
	c.monitors[k] = m // Rate decayed it to now
	return rate
}

// Forget drops the access history of a document that is not stored: the
// caller has learned that the URL names nothing, so no placement decision
// is left for its monitor to inform.
func (c *Cache) Forget(url string) {
	k := monitorKey(url)
	c.mu.Lock()
	delete(c.monitors, k)
	c.mu.Unlock()
}

// MeanAccessRate estimates the mean per-document access rate over the
// documents currently stored (total cache access rate divided by the store
// size). The utility scheme's access-frequency component compares a
// document against this baseline.
func (c *Cache) MeanAccessRate(now int64) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.entries)
	if n == 0 {
		n = 1
	}
	return c.totalRate.Rate(accessHalfLife, now) / float64(n)
}

// EvictionByteRate estimates bytes evicted per time unit — the cache's
// disk-space contention signal.
func (c *Cache) EvictionByteRate(now int64) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictBytes.Rate(accessHalfLife, now)
}
