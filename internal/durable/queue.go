package durable

import (
	"sync"
	"sync/atomic"

	"cachecloud/internal/document"
)

// Mutator is the write half of a Store: what a Queue writes into.
type Mutator interface {
	Apply(op Op) error
}

// Op is one mutation on its way to the log: a tombstone of Copy.Doc.URL
// when Delete is set, otherwise a put of Copy. Held says whether the tier
// held the URL before it, so whether the log has a live record to supersede.
type Op struct {
	Copy   document.Copy
	Delete bool
	Held   bool
}

// Queue is the ordered, off-lock writer a tier mirrors its copies through.
// The tier enqueues under its own lock (Persist, Tombstone), so the disk
// sees mutations in the order the tier committed them, and drains after
// releasing that lock (Drain): a slow store operation — a segment seal, a
// compaction — then blocks only the goroutine draining, never the serving
// path. Write errors are counted, never surfaced: the tier keeps serving
// from memory while durability degrades. A nil *Queue is a memory-only
// tier, on which every method is a no-op.
type Queue struct {
	dst Mutator

	mu       sync.Mutex
	idle     sync.Cond // broadcast when a drain ends
	ops      []Op
	draining bool
	closed   bool
	errs     atomic.Int64
}

// NewQueue returns an empty queue in front of dst.
func NewQueue(dst Mutator) *Queue {
	q := &Queue{dst: dst}
	q.idle.L = &q.mu
	return q
}

// Persist queues an admission (held false) or a refresh (held true) of cp.
func (q *Queue) Persist(cp document.Copy, held bool) { q.push(Op{Copy: cp, Held: held}) }

// Tombstone queues the removal of url, which the tier held.
func (q *Queue) Tombstone(url string) {
	q.push(Op{Copy: document.Copy{Doc: document.Document{URL: url}}, Delete: true, Held: true})
}

func (q *Queue) push(o Op) {
	if q == nil {
		return
	}
	q.mu.Lock()
	if !q.closed {
		q.ops = append(q.ops, o)
	}
	q.mu.Unlock()
}

// Drain writes the queued mutations in order. When another goroutine is
// already draining it returns at once: that drainer re-checks the queue
// after each batch, so nothing queued is stranded.
func (q *Queue) Drain() {
	if q == nil {
		return
	}
	q.mu.Lock()
	q.drainLocked()
	q.mu.Unlock()
}

// drainLocked is Drain with q.mu held; it releases q.mu while it writes.
func (q *Queue) drainLocked() {
	for !q.draining && len(q.ops) > 0 {
		q.draining = true
		batch := q.ops
		q.ops = nil
		q.mu.Unlock()
		for _, o := range batch {
			if q.dst.Apply(o) != nil {
				q.errs.Add(1)
			}
		}
		q.mu.Lock()
		q.draining = false
		q.idle.Broadcast()
	}
}

// Pending reports whether a mutation is queued or being written: while it
// is, the disk may not yet agree with what the tier holds in memory.
func (q *Queue) Pending() bool {
	if q == nil {
		return false
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.draining || len(q.ops) > 0
}

// Errors returns how many mutations the store refused.
func (q *Queue) Errors() int64 {
	if q == nil {
		return 0
	}
	return q.errs.Load()
}

// Close writes everything queued — after a drain another goroutine has in
// progress ends — and stops queueing: later mutations are dropped. Call it
// before closing the store underneath.
func (q *Queue) Close() {
	if q == nil {
		return
	}
	q.mu.Lock()
	q.closed = true
	for q.draining {
		q.idle.Wait()
	}
	q.drainLocked()
	q.mu.Unlock()
}
