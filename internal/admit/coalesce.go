package admit

import (
	"context"
	"sync"
)

// flight is one in-progress leader call.
type flight[V any] struct {
	done chan struct{} // closed when val/err are final
	val  V
	err  error
}

// Coalescer collapses concurrent calls for the same key into a single
// execution (singleflight): the first caller becomes the leader and
// runs fn; every concurrent duplicate waits for the leader's result
// instead of issuing its own call. Keyed on (document hash, version) by
// the node layer, this turns an N-request hot-document miss storm into
// one origin fetch plus N−1 waiters.
//
// Unlike x/sync/singleflight, waiters carry deadlines: a waiter whose
// ctx ends returns ctx.Err() immediately without cancelling the leader,
// so abandoned clients stop consuming resources while the fetch still
// completes for everyone else. Results are not cached — once the leader
// finishes, the next call starts a fresh flight.
type Coalescer[K comparable, V any] struct {
	mu      sync.Mutex
	flights map[K]*flight[V]
}

// NewCoalescer builds an empty coalescer.
func NewCoalescer[K comparable, V any]() *Coalescer[K, V] {
	return &Coalescer[K, V]{flights: make(map[K]*flight[V])}
}

// Do returns fn's result for key, executing fn at most once per
// concurrent group. shared reports whether the result came from another
// caller's flight (true for waiters, false for the leader — even when
// the leader's result was handed to waiters).
func (c *Coalescer[K, V]) Do(ctx context.Context, key K, fn func() (V, error)) (v V, shared bool, err error) {
	c.mu.Lock()
	if f, ok := c.flights[key]; ok {
		c.mu.Unlock()
		select {
		case <-f.done:
			return f.val, true, f.err
		case <-ctx.Done():
			var zero V
			return zero, true, ctx.Err()
		}
	}
	f := &flight[V]{done: make(chan struct{})}
	c.flights[key] = f
	c.mu.Unlock()

	f.val, f.err = fn()

	c.mu.Lock()
	delete(c.flights, key)
	c.mu.Unlock()
	close(f.done)
	return f.val, false, f.err
}

// Active returns the number of flights currently in progress.
func (c *Coalescer[K, V]) Active() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.flights)
}
