package admit

import (
	"context"
	"sync"
	"time"
)

// Gate defaults (selected by zero-valued GateOptions fields).
const (
	DefaultCapacity = 64
)

// weights is the admission cost per class: a miss occupies four times the
// capacity of a hit, so even a full complement of misses leaves room for
// many hits.
var weights = [numClasses]int{Hit: 1, Lookup: 2, Miss: 4}

// Weight returns the admission cost of one unit of class-c work: a gate
// whose capacity is below Miss.Weight() can never admit a miss.
func (c Class) Weight() int { return weights[c] }

// queueDeadline is the queue-time budget per class. Hits wait the least: a
// hit that cannot be admitted quickly is better shed (the client retries
// another replica) than served late.
var queueDeadline = [numClasses]time.Duration{
	Hit:    100 * time.Millisecond,
	Lookup: 250 * time.Millisecond,
	Miss:   500 * time.Millisecond,
}

// GateOptions tunes a Gate. Zero values select the documented defaults;
// the per-class weights and queue deadlines are the tables above.
type GateOptions struct {
	// Capacity is the total concurrent weight admitted (default 64).
	Capacity int
	// QueueCap bounds the number of queued waiters per class (defaults:
	// hit and lookup = Capacity, miss = Capacity/2). A class whose queue
	// is full sheds new arrivals immediately.
	QueueCap [numClasses]int
	// Clock is the deadline time source (nil = wall clock).
	Clock Clock
}

// gateWaiter is one queued acquisition.
type gateWaiter struct {
	class Class
	grant chan struct{} // closed exactly once, under the gate lock
	done  bool          // granted or abandoned (guarded by Gate.mu)
}

// Gate is a weighted semaphore shared by the three work classes, with
// strict class priority on admission: whenever capacity frees, queued
// hits are admitted before queued lookups before queued misses (FIFO
// within a class). Queues are bounded and every waiter carries a
// queue-time deadline; both refusals surface as *ShedError so callers
// can distinguish deliberate shedding from failure.
type Gate struct {
	opts GateOptions

	mu       sync.Mutex
	inflight int // admitted weight currently held
	queues   [numClasses][]*gateWaiter
}

// NewGate builds a gate, applying defaults for zero-valued options.
func NewGate(opts GateOptions) *Gate {
	if opts.Capacity <= 0 {
		opts.Capacity = DefaultCapacity
	}
	for c := Class(0); c < numClasses; c++ {
		if opts.QueueCap[c] <= 0 {
			if c == Miss {
				opts.QueueCap[c] = opts.Capacity / 2
			} else {
				opts.QueueCap[c] = opts.Capacity
			}
			if opts.QueueCap[c] < 1 {
				opts.QueueCap[c] = 1
			}
		}
	}
	opts.Clock = clockOrReal(opts.Clock)
	return &Gate{opts: opts}
}

// Acquire admits one unit of class-c work, blocking in the class queue
// while the gate is full. On success it returns an idempotent release
// function. Refusals are *ShedError — immediately when the class queue
// is at its cap, or once the queue deadline passes. A caller whose ctx
// ends first gets ctx.Err() and stops consuming its queue slot (this is
// how propagated client deadlines free queue space).
func (g *Gate) Acquire(ctx context.Context, c Class) (release func(), err error) {
	g.mu.Lock()
	if g.canAdmitLocked(c) {
		g.inflight += weights[c]
		g.mu.Unlock()
		return g.releaser(c), nil
	}
	if len(g.queues[c]) >= g.opts.QueueCap[c] {
		g.mu.Unlock()
		return nil, &ShedError{Class: c, Reason: ReasonQueueFull, RetryAfter: queueDeadline[c]}
	}
	w := &gateWaiter{class: c, grant: make(chan struct{})}
	g.queues[c] = append(g.queues[c], w)
	g.mu.Unlock()

	expired := make(chan struct{})
	timer := g.opts.Clock.AfterFunc(queueDeadline[c], func() { close(expired) })
	defer timer.Stop()

	select {
	case <-w.grant:
		return g.releaser(c), nil
	case <-expired:
		if g.abandon(w) {
			return nil, &ShedError{Class: c, Reason: ReasonQueueDeadline, RetryAfter: queueDeadline[c]}
		}
		// Granted concurrently with expiry: the slot is ours, keep it.
		<-w.grant
		return g.releaser(c), nil
	case <-ctx.Done():
		if g.abandon(w) {
			return nil, ctx.Err()
		}
		<-w.grant
		return g.releaser(c), nil
	}
}

// TryAcquire is the non-blocking variant: it admits or refuses without
// queueing (used by the deterministic models, which manage their own
// queues in simulated time).
func (g *Gate) TryAcquire(c Class) (release func(), ok bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.canAdmitLocked(c) {
		return nil, false
	}
	g.inflight += weights[c]
	return g.releaser(c), true
}

// canAdmitLocked reports whether class-c work may be admitted right now:
// there must be capacity, and no queued waiter of the same or higher
// priority (a new hit may overtake queued misses, never queued hits).
func (g *Gate) canAdmitLocked(c Class) bool {
	if g.inflight+weights[c] > g.opts.Capacity {
		return false
	}
	for cc := Class(0); cc <= c; cc++ {
		if len(g.queues[cc]) > 0 {
			return false
		}
	}
	return true
}

// abandon removes a still-pending waiter from its queue. It reports false
// when the waiter was already granted (the caller must then consume the
// grant).
func (g *Gate) abandon(w *gateWaiter) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if w.done {
		return false
	}
	w.done = true
	q := g.queues[w.class]
	for i, qw := range q {
		if qw == w {
			g.queues[w.class] = append(q[:i], q[i+1:]...)
			break
		}
	}
	return true
}

// releaser builds the idempotent release function for one admission.
func (g *Gate) releaser(c Class) func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			g.mu.Lock()
			g.inflight -= weights[c]
			g.pumpLocked()
			g.mu.Unlock()
		})
	}
}

// pumpLocked grants queued waiters in strict class-priority order while
// capacity allows.
func (g *Gate) pumpLocked() {
	for c := Class(0); c < numClasses; c++ {
		w := weights[c]
		for len(g.queues[c]) > 0 && g.inflight+w <= g.opts.Capacity {
			qw := g.queues[c][0]
			g.queues[c] = g.queues[c][1:]
			qw.done = true
			g.inflight += w
			close(qw.grant)
		}
	}
}

// Capacity returns the configured total weight.
func (g *Gate) Capacity() int { return g.opts.Capacity }

// InFlight returns the admitted weight currently held.
func (g *Gate) InFlight() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.inflight
}

// Queued returns the number of waiters queued for class c.
func (g *Gate) Queued(c Class) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.queues[c])
}

// QueuedTotal returns the number of queued waiters across all classes.
func (g *Gate) QueuedTotal() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := 0
	for c := Class(0); c < numClasses; c++ {
		n += len(g.queues[c])
	}
	return n
}
