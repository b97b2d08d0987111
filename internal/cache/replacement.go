package cache

import (
	"cmp"
	"container/heap"
	"container/list"
	"fmt"
	"slices"
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

// replacementPolicy tracks stored documents and nominates eviction victims.
// Implementations are not safe for concurrent use; Cache serialises calls
// under its own lock.
type replacementPolicy interface {
	// onInsert registers a newly stored document.
	onInsert(url string, size int64)
	// onAccess records a hit on a stored document.
	onAccess(url string)
	// onRemove deregisters a document (eviction or explicit removal).
	onRemove(url string)
	// victim nominates the next document to evict, skipping exclude.
	// It returns false when no evictable document remains.
	victim(exclude string) (string, bool)
	// tenantVictim nominates the next document to evict among the keys
	// folded with one tenant, skipping exclude: the document victim would
	// reach first if it passed over every other tenant's. It only reads
	// the order (a quota eviction does not inflate the GDS clock), costs
	// O(1) and allocates nothing once the tenant has a sub-order.
	tenantVictim(tenant, exclude string) (string, bool)
	// ordered returns the stored URLs in decreasing keep-priority
	// (the document evicted last comes first).
	ordered() []string
}

// newReplacementPolicy constructs the policy for a kind (LRU by default).
func newReplacementPolicy(kind ReplacementKind) replacementPolicy {
	switch kind {
	case LFU:
		return newLFUPolicy()
	case GreedyDualSize:
		return newGDSPolicy()
	default:
		return newLRUPolicy()
	}
}

// Tenant sub-orders. Each policy keeps, beside its order over every stored
// document, one sub-order per tenant that has had to evict under a byte
// quota and still stores something: the same order restricted to that
// tenant's keys, so the tenant's victim is the sub-order's cold end
// instead of a search through everybody's documents (one LRU list per
// tenant, as Kesidis et al. model a shared cache). tenantVictim builds a
// sub-order by one pass over the stored documents the first time it is
// asked for the tenant; from then on the insert, access and remove events
// that move the full order move the sub-order too, and removing the
// tenant's last document frees it. Documents of tenants that never evict
// under a quota are in no sub-order, and while no sub-order exists no
// event splits a key.

// tenantSub returns the sub-order that tracks url's tenant, if one exists.
func tenantSub[O any](subs map[string]O, url string) (tenant string, sub O, ok bool) {
	if len(subs) == 0 {
		return "", sub, false
	}
	tenant = tenantOf(url)
	sub, ok = subs[tenant]
	return tenant, sub, ok
}

// --- LRU ---

// lruOrder is a recency order over a set of URLs.
type lruOrder struct {
	order *list.List // front = most recently used; values are string URLs
	elems map[string]*list.Element
}

func newLRUOrder() *lruOrder {
	return &lruOrder{order: list.New(), elems: make(map[string]*list.Element)}
}

// touch makes url the most recently used entry, adding it if absent.
func (o *lruOrder) touch(url string) {
	if el, ok := o.elems[url]; ok {
		o.order.MoveToFront(el)
		return
	}
	o.elems[url] = o.order.PushFront(url)
}

func (o *lruOrder) remove(url string) {
	if el, ok := o.elems[url]; ok {
		o.order.Remove(el)
		delete(o.elems, url)
	}
}

// coldest returns the least recently used URL other than exclude.
func (o *lruOrder) coldest(exclude string) (string, bool) {
	for el := o.order.Back(); el != nil; el = el.Prev() {
		url, ok := el.Value.(string)
		if !ok {
			continue
		}
		if url != exclude {
			return url, true
		}
	}
	return "", false
}

func (o *lruOrder) ordered() []string {
	out := make([]string, 0, o.order.Len())
	for el := o.order.Front(); el != nil; el = el.Next() {
		if url, ok := el.Value.(string); ok {
			out = append(out, url)
		}
	}
	return out
}

type lruPolicy struct {
	lruOrder
	tenants map[string]*lruOrder // see "Tenant sub-orders"
}

func newLRUPolicy() *lruPolicy {
	return &lruPolicy{lruOrder: *newLRUOrder(), tenants: make(map[string]*lruOrder)}
}

func (p *lruPolicy) onInsert(url string, _ int64) {
	p.touch(url)
	if _, sub, ok := tenantSub(p.tenants, url); ok {
		sub.touch(url)
	}
}

func (p *lruPolicy) onAccess(url string) {
	el, ok := p.elems[url]
	if !ok {
		return
	}
	p.order.MoveToFront(el)
	if _, sub, ok := tenantSub(p.tenants, url); ok {
		sub.touch(url)
	}
}

func (p *lruPolicy) onRemove(url string) {
	p.remove(url)
	if tenant, sub, ok := tenantSub(p.tenants, url); ok {
		sub.remove(url)
		if sub.order.Len() == 0 {
			delete(p.tenants, tenant)
		}
	}
}

func (p *lruPolicy) victim(exclude string) (string, bool) {
	return p.coldest(exclude)
}

func (p *lruPolicy) tenantVictim(tenant, exclude string) (string, bool) {
	sub, ok := p.tenants[tenant]
	if !ok {
		sub = newLRUOrder()
		for el := p.order.Back(); el != nil; el = el.Prev() {
			if url, ok := el.Value.(string); ok && tenantOf(url) == tenant {
				sub.touch(url)
			}
		}
		if sub.order.Len() == 0 {
			return "", false
		}
		p.tenants[tenant] = sub
	}
	return sub.coldest(exclude)
}

// --- priority-heap base shared by LFU and GDS ---

// heapEntry is one document in a keyed min-heap: the lowest (key, seq)
// pair is the next victim; seq breaks ties by insertion/access recency
// (older first).
type heapEntry struct {
	url  string
	key  float64
	seq  uint64
	idx  int
	size int64
}

type entryHeap []*heapEntry

func (h entryHeap) Len() int { return len(h) }
func (h entryHeap) Less(i, j int) bool {
	if h[i].key != h[j].key {
		return h[i].key < h[j].key
	}
	return h[i].seq < h[j].seq
}
func (h entryHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx, h[j].idx = i, j
}
func (h *entryHeap) Push(x any) {
	e, ok := x.(*heapEntry)
	if !ok {
		return
	}
	e.idx = len(*h)
	*h = append(*h, e)
}
func (h *entryHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// keyedOrder is a min-heap of documents by (key, seq), indexed by URL.
type keyedOrder struct {
	heap    entryHeap
	entries map[string]*heapEntry
}

func (o *keyedOrder) remove(url string) {
	if e, ok := o.entries[url]; ok {
		heap.Remove(&o.heap, e.idx)
		delete(o.entries, url)
	}
}

// lowest returns the entry with the lowest (key, seq) other than exclude's.
func (o *keyedOrder) lowest(exclude string) (*heapEntry, bool) {
	if len(o.heap) == 0 {
		return nil, false
	}
	if top := o.heap[0]; top.url != exclude {
		return top, true
	}
	// The excluded entry is at the top: check the better of its children.
	best := -1
	for c := 1; c <= 2 && c < len(o.heap); c++ {
		if best == -1 || o.heap.Less(c, best) {
			best = c
		}
	}
	if best == -1 {
		return nil, false
	}
	return o.heap[best], true
}

// mirror files e's (key, seq) under e's URL in a tenant sub-order.
func (o *keyedOrder) mirror(e *heapEntry) {
	m, ok := o.entries[e.url]
	if !ok {
		m = &heapEntry{url: e.url, key: e.key, seq: e.seq}
		heap.Push(&o.heap, m)
		o.entries[e.url] = m
		return
	}
	m.key, m.seq = e.key, e.seq
	heap.Fix(&o.heap, m.idx)
}

func (o *keyedOrder) ordered() []string {
	// Decreasing keep-priority = (key desc, seq desc); seq is unique, so
	// the order is total.
	sorted := slices.Clone(o.heap)
	slices.SortFunc(sorted, func(a, b *heapEntry) int {
		if c := cmp.Compare(b.key, a.key); c != 0 {
			return c
		}
		return cmp.Compare(b.seq, a.seq)
	})
	urls := make([]string, len(sorted))
	for i, e := range sorted {
		urls[i] = e.url
	}
	return urls
}

type keyedPolicy struct {
	keyedOrder
	tenants map[string]*keyedOrder // see "Tenant sub-orders"
	seq     uint64
	// rekeyInsert and rekeyAccess compute the new priority key.
	rekeyInsert func(p *keyedPolicy, e *heapEntry)
	rekeyAccess func(p *keyedPolicy, e *heapEntry)
	// onEvict lets GDS inflate its clock with the victim's key.
	onEvict func(p *keyedPolicy, e *heapEntry)
	clock   float64 // GDS L value
}

func newKeyedPolicy() *keyedPolicy {
	return &keyedPolicy{
		keyedOrder: keyedOrder{entries: make(map[string]*heapEntry)},
		tenants:    make(map[string]*keyedOrder),
	}
}

func (p *keyedPolicy) nextSeq() uint64 {
	p.seq++
	return p.seq
}

func (p *keyedPolicy) onInsert(url string, size int64) {
	e, ok := p.entries[url]
	if ok {
		e.size = size
		p.rekeyAccess(p, e)
		e.seq = p.nextSeq()
		heap.Fix(&p.heap, e.idx)
	} else {
		e = &heapEntry{url: url, size: size, seq: p.nextSeq()}
		p.rekeyInsert(p, e)
		heap.Push(&p.heap, e)
		p.entries[url] = e
	}
	p.mirrorTenant(e)
}

func (p *keyedPolicy) onAccess(url string) {
	e, ok := p.entries[url]
	if !ok {
		return
	}
	p.rekeyAccess(p, e)
	e.seq = p.nextSeq()
	heap.Fix(&p.heap, e.idx)
	p.mirrorTenant(e)
}

func (p *keyedPolicy) mirrorTenant(e *heapEntry) {
	if _, sub, ok := tenantSub(p.tenants, e.url); ok {
		sub.mirror(e)
	}
}

func (p *keyedPolicy) onRemove(url string) {
	p.remove(url)
	if tenant, sub, ok := tenantSub(p.tenants, url); ok {
		sub.remove(url)
		if len(sub.heap) == 0 {
			delete(p.tenants, tenant)
		}
	}
}

func (p *keyedPolicy) victim(exclude string) (string, bool) {
	e, ok := p.lowest(exclude)
	if !ok {
		return "", false
	}
	if p.onEvict != nil {
		p.onEvict(p, e)
	}
	return e.url, true
}

func (p *keyedPolicy) tenantVictim(tenant, exclude string) (string, bool) {
	sub, ok := p.tenants[tenant]
	if !ok {
		sub = &keyedOrder{entries: make(map[string]*heapEntry)}
		for _, e := range p.heap {
			if tenantOf(e.url) == tenant {
				sub.mirror(e)
			}
		}
		if len(sub.heap) == 0 {
			return "", false
		}
		p.tenants[tenant] = sub
	}
	e, ok := sub.lowest(exclude)
	if !ok {
		return "", false
	}
	return e.url, true
}

func newLFUPolicy() *keyedPolicy {
	p := newKeyedPolicy()
	p.rekeyInsert = func(_ *keyedPolicy, e *heapEntry) { e.key = 1 }
	p.rekeyAccess = func(_ *keyedPolicy, e *heapEntry) { e.key++ }
	return p
}

func newGDSPolicy() *keyedPolicy {
	p := newKeyedPolicy()
	h := func(p *keyedPolicy, e *heapEntry) {
		size := e.size
		if size < 1 {
			size = 1
		}
		// Uniform miss cost of 1 per document: H = L + 1/size, so large
		// documents with no recent credit are evicted first.
		e.key = p.clock + 1/float64(size)
	}
	p.rekeyInsert = h
	p.rekeyAccess = h
	p.onEvict = func(p *keyedPolicy, e *heapEntry) {
		if e.key > p.clock {
			p.clock = e.key
		}
	}
	return p
}
