package durable

import (
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"cachecloud/internal/document"
)

// recorder is a Mutator that records what it is asked to write; once armed
// its next write parks until release is closed, as a store inside a seal or
// a compaction does.
type recorder struct {
	mu      sync.Mutex
	ops     []string
	fail    error
	armed   bool
	entered chan struct{}
	release chan struct{}
}

func newRecorder(armed bool) *recorder {
	return &recorder{armed: armed, entered: make(chan struct{}), release: make(chan struct{})}
}

func (r *recorder) write(op string) error {
	r.mu.Lock()
	park := r.armed
	r.armed = false
	r.mu.Unlock()
	if park {
		close(r.entered)
		<-r.release
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops = append(r.ops, op)
	return r.fail
}

func (r *recorder) Put(cp document.Copy) error { return r.write("put:" + cp.Doc.URL) }
func (r *recorder) Delete(url string) error    { return r.write("del:" + url) }

func (r *recorder) written() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.ops)
}

func qcopy(url string) document.Copy {
	return document.Copy{Doc: document.Document{URL: url, Size: 1, Version: 1}}
}

// TestQueueWritesInQueueOrder: mutations reach the store in the order they
// were queued, including those queued while another goroutine's drain is
// parked in the store, which that drain picks up.
func TestQueueWritesInQueueOrder(t *testing.T) {
	r := newRecorder(true)
	q := NewQueue(r)
	q.Persist(qcopy("/a"))
	done := make(chan struct{})
	go func() {
		q.Drain()
		close(done)
	}()
	<-r.entered
	q.Tombstone("/a")
	q.Persist(qcopy("/b"))
	q.Drain() // returns at once: the parked drain owns the queue
	if !q.Pending() {
		t.Fatal("Pending is false while a write is parked in the store")
	}
	close(r.release)
	<-done
	want := []string{"put:/a", "del:/a", "put:/b"}
	if got := r.written(); !slices.Equal(got, want) {
		t.Fatalf("written %v, want %v", got, want)
	}
	if q.Pending() || q.Errors() != 0 {
		t.Fatalf("after the drain: pending %v, %d errors", q.Pending(), q.Errors())
	}
}

// TestQueueCloseWaitsForDrain: Close returns only once everything queued
// before it is written — a drain in progress elsewhere included — and drops
// what is queued after it.
func TestQueueCloseWaitsForDrain(t *testing.T) {
	r := newRecorder(true)
	q := NewQueue(r)
	q.Persist(qcopy("/held"))
	go q.Drain()
	<-r.entered
	q.Persist(qcopy("/queued"))
	closed := make(chan struct{})
	go func() {
		q.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while a write was parked in the store")
	case <-time.After(20 * time.Millisecond):
	}
	close(r.release)
	<-closed
	if got, want := r.written(), []string{"put:/held", "put:/queued"}; !slices.Equal(got, want) {
		t.Fatalf("written %v, want %v", got, want)
	}
	q.Persist(qcopy("/late"))
	q.Drain()
	if got := r.written(); len(got) != 2 || q.Pending() {
		t.Fatalf("a closed queue wrote %v (pending %v)", got, q.Pending())
	}
}

// TestQueueCountsErrors: a store that refuses writes is counted, never
// surfaced, and a nil queue — a memory-only tier — does nothing.
func TestQueueCountsErrors(t *testing.T) {
	r := newRecorder(false)
	r.fail = errors.New("disk full")
	q := NewQueue(r)
	q.Persist(qcopy("/a"))
	q.Tombstone("/a")
	q.Drain()
	if q.Errors() != 2 {
		t.Fatalf("Errors = %d, want 2", q.Errors())
	}
	var none *Queue
	none.Persist(qcopy("/a"))
	none.Tombstone("/a")
	none.Drain()
	none.Close()
	if none.Pending() || none.Errors() != 0 {
		t.Fatal("a nil queue reports work")
	}
}
