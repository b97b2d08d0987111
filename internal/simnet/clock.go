// Package simnet is a deterministic simulation harness for the live
// cache-cloud cluster: the production internal/node code — origin, cache
// nodes, beacon duties, heartbeats, failure detection, reconcile passes —
// runs unmodified over a virtual clock and an in-memory transport, so a
// complete multi-node fault scenario executes in milliseconds of real
// time with zero sockets and zero real sleeps. Fault schedules are
// generated from a seed and replayed byte-identically; invariant checkers
// run between events and a failing seed's schedule can be minimized to a
// short reproducer.
package simnet

import (
	"container/heap"
	"sync"
	"time"

	"cachecloud/internal/node"
)

// VirtualClock implements node.Clock over simulated time. Timers are kept
// in a deterministic priority queue ordered by (deadline, registration
// sequence); Advance and RunUntil pop due timers one at a time and run
// their callbacks synchronously on the calling goroutine, so the entire
// cluster's periodic machinery executes single-threaded in a reproducible
// order.
type VirtualClock struct {
	mu    sync.Mutex
	now   time.Time
	seq   int64
	queue timerQueue
}

// NewVirtualClock starts a virtual clock at a fixed base instant (the
// concrete value is arbitrary; only durations matter).
func NewVirtualClock() *VirtualClock {
	return &VirtualClock{now: time.Unix(1_000_000_000, 0)}
}

// Now implements node.Clock.
func (c *VirtualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Since implements node.Clock.
func (c *VirtualClock) Since(t time.Time) time.Duration {
	return c.Now().Sub(t)
}

// AfterFunc implements node.Clock: f runs synchronously inside a later
// Advance/RunUntil call once simulated time reaches the deadline.
func (c *VirtualClock) AfterFunc(d time.Duration, f func()) node.Timer {
	if d < 0 {
		d = 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++
	vt := &vtimer{when: c.now.Add(d), seq: c.seq, f: f}
	heap.Push(&c.queue, vt)
	return &vtimerHandle{clock: c, t: vt}
}

// Advance moves simulated time forward by d, firing due timers in order.
func (c *VirtualClock) Advance(d time.Duration) {
	c.RunUntil(c.Now().Add(d))
}

// RunUntil fires every timer with a deadline at or before t (in deadline
// order, callbacks run synchronously and may schedule further timers,
// which also fire if due), then sets the clock to t. A target in the past
// is a no-op.
func (c *VirtualClock) RunUntil(t time.Time) {
	for {
		c.mu.Lock()
		if len(c.queue) == 0 || c.queue[0].when.After(t) {
			if t.After(c.now) {
				c.now = t
			}
			c.mu.Unlock()
			return
		}
		vt := heap.Pop(&c.queue).(*vtimer)
		if vt.stopped {
			c.mu.Unlock()
			continue
		}
		if vt.when.After(c.now) {
			c.now = vt.when
		}
		c.mu.Unlock()
		vt.f()
	}
}

// vtimer is one scheduled callback.
type vtimer struct {
	when    time.Time
	seq     int64
	f       func()
	stopped bool
	index   int
}

// vtimerHandle implements node.Timer.
type vtimerHandle struct {
	clock *VirtualClock
	t     *vtimer
}

func (h *vtimerHandle) Stop() bool {
	h.clock.mu.Lock()
	defer h.clock.mu.Unlock()
	was := !h.t.stopped
	h.t.stopped = true
	return was
}

// timerQueue is a heap ordered by (deadline, registration sequence) so
// same-instant timers fire in the order they were created.
type timerQueue []*vtimer

func (q timerQueue) Len() int { return len(q) }
func (q timerQueue) Less(i, j int) bool {
	if !q[i].when.Equal(q[j].when) {
		return q[i].when.Before(q[j].when)
	}
	return q[i].seq < q[j].seq
}
func (q timerQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *timerQueue) Push(x any) {
	vt := x.(*vtimer)
	vt.index = len(*q)
	*q = append(*q, vt)
}
func (q *timerQueue) Pop() any {
	old := *q
	n := len(old)
	vt := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return vt
}
