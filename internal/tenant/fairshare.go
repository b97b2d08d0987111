package tenant

import "sync"

// FairShare is the weighted-fair admission layer that sits above
// internal/admit's class-weighted Gate: where the Gate divides a node's
// capacity between work classes (hit/lookup/miss), FairShare divides the
// same capacity between tenants, in proportion to their registered
// weights. Each in-flight request holds one unit against its tenant's
// share; a tenant at its share is shed immediately (no queueing — the
// caller converts the refusal into a typed 429 carrying the tenant), so
// a noisy neighbor saturates only its own slice of the node.
//
// Unregistered tenants — including the default tenant — are
// unconstrained: they bypass the share check entirely. A registered
// tenant with weight 0 is admitted nothing.
type FairShare struct {
	reg      *Registry
	capacity int

	mu       sync.Mutex
	inflight map[string]int
}

// NewFairShare builds the admission layer over a registry; capacity is
// the node-wide in-flight request budget the weights divide (typically
// the admission gate's capacity).
func NewFairShare(reg *Registry, capacity int) *FairShare {
	if capacity < 1 {
		capacity = 1
	}
	return &FairShare{
		reg:      reg,
		capacity: capacity,
		inflight: make(map[string]int),
	}
}

// Share returns the tenant's in-flight budget: floor(capacity·w/Σw),
// but never below 1 for a positive weight (every weighted tenant can
// always make progress), capacity for unregistered tenants, and 0 for a
// registered tenant with weight 0.
func (f *FairShare) Share(id string) int {
	q, ok := f.reg.Get(id)
	if !ok {
		return f.capacity
	}
	if q.Weight <= 0 {
		return 0
	}
	total := f.reg.TotalWeight()
	if total <= 0 {
		return f.capacity
	}
	share := f.capacity * q.Weight / total
	if share < 1 {
		share = 1
	}
	return share
}

// TryAcquire claims one in-flight unit for the tenant. ok=false means
// the tenant is at (or over) its weighted share and must be shed; the
// returned release is non-nil only on success and must be called exactly
// once when the request finishes.
func (f *FairShare) TryAcquire(id string) (release func(), ok bool) {
	share := f.Share(id)
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.inflight[id] >= share {
		return nil, false
	}
	f.inflight[id]++
	var once sync.Once
	return func() {
		once.Do(func() {
			f.mu.Lock()
			f.inflight[id]--
			f.mu.Unlock()
		})
	}, true
}

// Capacity returns the total budget the weights divide.
func (f *FairShare) Capacity() int { return f.capacity }

// InFlight returns the tenant's current in-flight units.
func (f *FairShare) InFlight(id string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.inflight[id]
}
