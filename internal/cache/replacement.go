package cache

import (
	"cmp"
	"container/heap"
	"fmt"
	"slices"

	"cachecloud/internal/document"
	"cachecloud/internal/loadstats"
)

// ReplacementKind selects the document replacement policy an edge cache
// uses when its disk fills. The paper's limited-disk experiments use LRU;
// LFU and GreedyDual-Size (Cao & Irani, the paper's reference [3]) are
// provided for the replacement-policy ablation.
type ReplacementKind int

const (
	// LRU evicts the least recently used document.
	LRU ReplacementKind = iota + 1
	// LFU evicts the least frequently used document (ties broken by
	// recency).
	LFU
	// GreedyDualSize evicts the document with the lowest H value, where
	// H = L + 1/size: small cost-per-byte documents with stale credit go
	// first and the clock L inflates to the evicted H.
	GreedyDualSize
)

// String implements fmt.Stringer.
func (k ReplacementKind) String() string {
	switch k {
	case LRU:
		return "lru"
	case LFU:
		return "lfu"
	case GreedyDualSize:
		return "gds"
	default:
		return fmt.Sprintf("replacement(%d)", int(k))
	}
}

// slot is everything the cache keeps for one stored document, behind the
// one map entry that finds it: the copy, the document's access monitor
// (moved in from Cache.monitors when the document is stored and back out
// when it leaves) and the document's place in the replacement order and in
// its tenant's sub-order. The order's state sits in the slot and not in
// tables of the policy's own, so a hit hashes the URL once.
type slot struct {
	cp      document.Copy
	monitor loadstats.EWRate
	// prev and next are lruPolicy's recency list.
	prev, next *slot
	// key is keyedPolicy's priority (LRU leaves it 0); seq is stamped at
	// every store and hit, so it breaks key ties by recency (older first)
	// and on its own orders an LRU tenant's sub-order.
	key float64
	seq uint64
	// size is the document's size at its last store, which is what GDS
	// prices a hit by: an update in between does not re-price the copy.
	size int64
	// pos is the slot's index in keyedPolicy's heap and in its tenant's
	// sub-order.
	pos [2]int32
}

// replacementPolicy tracks stored documents and nominates eviction victims.
// Implementations are not safe for concurrent use; Cache serialises calls
// under its own lock.
type replacementPolicy interface {
	// onStore registers a newly stored document, or with again set a
	// document stored over its own copy.
	onStore(s *slot, again bool)
	// onAccess records a hit on a stored document.
	onAccess(s *slot)
	// onRemove deregisters a document (eviction or explicit removal).
	onRemove(s *slot)
	// victim nominates the next document to evict, skipping exclude.
	// It returns nil when no evictable document remains.
	victim(exclude *slot) *slot
	// tenantVictim nominates the next document to evict among the keys
	// folded with one tenant, skipping exclude: the document victim would
	// reach first if it passed over every other tenant's. It only reads
	// the order (a quota eviction does not inflate the GDS clock), costs
	// O(1) and allocates nothing once the tenant has a sub-order.
	tenantVictim(tenant string, exclude *slot) *slot
	// ordered returns the stored URLs in decreasing keep-priority
	// (the document evicted last comes first).
	ordered() []string
}

// newReplacementPolicy constructs the policy for a kind (LRU by default).
func newReplacementPolicy(kind ReplacementKind) replacementPolicy {
	switch kind {
	case LFU, GreedyDualSize:
		return &keyedPolicy{subs: make(tenantOrders), gds: kind == GreedyDualSize}
	default:
		return &lruPolicy{subs: make(tenantOrders)}
	}
}

// slotHeap is a min-heap of slots by (key, seq): the lowest pair is the
// next victim. It files each slot's index under pos[which], so one slot
// sits in the policy's heap (which 0) and in its tenant's (which 1) at once.
type slotHeap struct {
	slots []*slot
	which int
}

func (h *slotHeap) Len() int { return len(h.slots) }
func (h *slotHeap) Less(i, j int) bool {
	a, b := h.slots[i], h.slots[j]
	if a.key != b.key {
		return a.key < b.key
	}
	return a.seq < b.seq
}
func (h *slotHeap) Swap(i, j int) {
	h.slots[i], h.slots[j] = h.slots[j], h.slots[i]
	h.slots[i].pos[h.which], h.slots[j].pos[h.which] = int32(i), int32(j)
}
func (h *slotHeap) Push(x any) {
	s, ok := x.(*slot)
	if !ok {
		return
	}
	s.pos[h.which] = int32(len(h.slots))
	h.slots = append(h.slots, s)
}
func (h *slotHeap) Pop() any {
	n := len(h.slots) - 1
	s := h.slots[n]
	h.slots[n] = nil
	h.slots = h.slots[:n]
	return s
}

// fix restores the heap after s's (key, seq) changed.
func (h *slotHeap) fix(s *slot) { heap.Fix(h, int(s.pos[h.which])) }

func (h *slotHeap) remove(s *slot) { heap.Remove(h, int(s.pos[h.which])) }

// lowest returns the slot with the lowest (key, seq) other than exclude.
func (h *slotHeap) lowest(exclude *slot) *slot {
	if len(h.slots) == 0 {
		return nil
	}
	if top := h.slots[0]; top != exclude {
		return top
	}
	// The excluded slot is at the top: check the better of its children.
	best := -1
	for c := 1; c <= 2 && c < len(h.slots); c++ {
		if best == -1 || h.Less(c, best) {
			best = c
		}
	}
	if best == -1 {
		return nil
	}
	return h.slots[best]
}

func (h *slotHeap) ordered() []string {
	// Decreasing keep-priority = (key desc, seq desc); seq is unique, so
	// the order is total.
	sorted := slices.Clone(h.slots)
	slices.SortFunc(sorted, func(a, b *slot) int {
		if c := cmp.Compare(b.key, a.key); c != 0 {
			return c
		}
		return cmp.Compare(b.seq, a.seq)
	})
	urls := make([]string, len(sorted))
	for i, s := range sorted {
		urls[i] = s.cp.Doc.URL
	}
	return urls
}

// Tenant sub-orders. Each policy keeps, beside its order over every stored
// document, one sub-order per tenant that has had to evict under a byte
// quota and still stores something: the same order restricted to that
// tenant's slots, so the tenant's victim is the sub-order's cold end
// instead of a search through everybody's documents (one LRU list per
// tenant, as Kesidis et al. model a shared cache). A sub-order is a
// slotHeap over the slots themselves — under LRU the key is 0 and seq alone
// is the recency order — so it costs a tenant's document four bytes of its
// slot and no second URL-keyed table. victim builds a sub-order by one pass
// over the stored documents the first time it is asked for the tenant; from
// then on the store, access and remove events that move the full order move
// the sub-order too, and removing the tenant's last document frees it.
// Documents of tenants that never evict under a quota are in no sub-order,
// and while no sub-order exists no event splits a key.
type tenantOrders map[string]*slotHeap

// of returns the sub-order that tracks s's tenant, if one exists.
func (t tenantOrders) of(s *slot) (string, *slotHeap) {
	if len(t) == 0 {
		return "", nil
	}
	tenant := tenantOf(s.cp.Doc.URL)
	return tenant, t[tenant]
}

func (t tenantOrders) add(s *slot) {
	if _, sub := t.of(s); sub != nil {
		heap.Push(sub, s)
	}
}

func (t tenantOrders) fix(s *slot) {
	if _, sub := t.of(s); sub != nil {
		sub.fix(s)
	}
}

func (t tenantOrders) remove(s *slot) {
	if tenant, sub := t.of(s); sub != nil {
		sub.remove(s)
		if len(sub.slots) == 0 {
			delete(t, tenant)
		}
	}
}

// victim returns the tenant's coldest slot other than exclude; stored
// visits every stored slot, for the pass that builds the sub-order.
func (t tenantOrders) victim(tenant string, exclude *slot, stored func(visit func(*slot))) *slot {
	sub, ok := t[tenant]
	if !ok {
		sub = &slotHeap{which: 1}
		stored(func(s *slot) {
			if tenantOf(s.cp.Doc.URL) == tenant {
				heap.Push(sub, s)
			}
		})
		if len(sub.slots) == 0 {
			return nil
		}
		t[tenant] = sub
	}
	return sub.lowest(exclude)
}

// --- LRU ---

// lruPolicy is a recency list threaded through the slots.
type lruPolicy struct {
	front, back *slot // most and least recently used
	n           int
	seq         uint64
	subs        tenantOrders
}

// touch makes s, which is in no list, the most recently used slot.
func (p *lruPolicy) touch(s *slot) {
	p.seq++
	s.seq = p.seq
	s.prev, s.next = nil, p.front
	if p.front != nil {
		p.front.prev = s
	} else {
		p.back = s
	}
	p.front = s
}

func (p *lruPolicy) unlink(s *slot) {
	if s.prev != nil {
		s.prev.next = s.next
	} else {
		p.front = s.next
	}
	if s.next != nil {
		s.next.prev = s.prev
	} else {
		p.back = s.prev
	}
}

func (p *lruPolicy) onStore(s *slot, again bool) {
	if again {
		p.onAccess(s)
		return
	}
	p.n++
	p.touch(s)
	p.subs.add(s)
}

func (p *lruPolicy) onAccess(s *slot) {
	p.unlink(s)
	p.touch(s)
	p.subs.fix(s)
}

func (p *lruPolicy) onRemove(s *slot) {
	p.n--
	p.unlink(s)
	p.subs.remove(s)
}

func (p *lruPolicy) victim(exclude *slot) *slot {
	if p.back != nil && p.back == exclude {
		return exclude.prev
	}
	return p.back
}

func (p *lruPolicy) tenantVictim(tenant string, exclude *slot) *slot {
	return p.subs.victim(tenant, exclude, func(visit func(*slot)) {
		for s := p.back; s != nil; s = s.prev {
			visit(s)
		}
	})
}

func (p *lruPolicy) ordered() []string {
	out := make([]string, 0, p.n)
	for s := p.front; s != nil; s = s.next {
		out = append(out, s.cp.Doc.URL)
	}
	return out
}

// --- LFU and GDS ---

// keyedPolicy is LFU or, with gds set, GreedyDual-Size: one slotHeap by a
// priority key the policy re-prices at every store and hit.
type keyedPolicy struct {
	slotHeap
	subs  tenantOrders
	seq   uint64
	gds   bool
	clock float64 // GDS's L: the highest H evicted under the byte budget
}

// rekey prices s at its first store (fresh) or at a later store or hit: LFU
// counts them; GDS sets H = L + 1/size, a uniform miss cost of 1 per
// document, so large documents with no recent credit are evicted first.
func (p *keyedPolicy) rekey(s *slot, fresh bool) {
	switch {
	case p.gds:
		s.key = p.clock + 1/float64(max(s.size, 1))
	case fresh:
		s.key = 1
	default:
		s.key++
	}
	p.seq++
	s.seq = p.seq
}

func (p *keyedPolicy) onStore(s *slot, again bool) {
	s.size = s.cp.Doc.Size
	if again {
		p.onAccess(s)
		return
	}
	p.rekey(s, true)
	heap.Push(&p.slotHeap, s)
	p.subs.add(s)
}

func (p *keyedPolicy) onAccess(s *slot) {
	p.rekey(s, false)
	p.fix(s)
	p.subs.fix(s)
}

func (p *keyedPolicy) onRemove(s *slot) {
	p.remove(s)
	p.subs.remove(s)
}

func (p *keyedPolicy) victim(exclude *slot) *slot {
	s := p.lowest(exclude)
	if s != nil && p.gds && s.key > p.clock {
		p.clock = s.key // the clock inflates to the evicted H
	}
	return s
}

func (p *keyedPolicy) tenantVictim(tenant string, exclude *slot) *slot {
	return p.subs.victim(tenant, exclude, func(visit func(*slot)) {
		for _, s := range p.slots {
			visit(s)
		}
	})
}
