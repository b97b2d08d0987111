package admit

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// joinCtx counts the calls that wait on another caller's flight: only a
// waiter watches its ctx, so each Done call is one caller that joined.
type joinCtx struct {
	context.Context
	joined *atomic.Int64
}

func (c joinCtx) Done() <-chan struct{} {
	c.joined.Add(1)
	return c.Context.Done()
}

func TestCoalescerCollapsesConcurrentCalls(t *testing.T) {
	c := NewCoalescer[string, int]()
	const waiters = 8

	var calls, joined atomic.Int64
	ctx := joinCtx{context.Background(), &joined}
	gate := make(chan struct{})
	leaderIn := make(chan struct{})

	var wg sync.WaitGroup
	var sharedCount atomic.Int64
	results := make([]int, waiters+1)
	errs := make([]error, waiters+1)

	run := func(i int) {
		defer wg.Done()
		v, shared, err := c.Do(ctx, "doc", func() (int, error) {
			calls.Add(1)
			close(leaderIn)
			<-gate
			return 42, nil
		})
		results[i], errs[i] = v, err
		if shared {
			sharedCount.Add(1)
		}
	}

	wg.Add(1)
	go run(0)
	<-leaderIn // leader is inside fn
	for i := 1; i <= waiters; i++ {
		wg.Add(1)
		go run(i)
	}
	waitUntil(t, func() bool { return joined.Load() == waiters }, "waiters joined")
	close(gate)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("fn ran %d times, want 1", got)
	}
	for i := range results {
		if errs[i] != nil || results[i] != 42 {
			t.Fatalf("caller %d: (%d, %v), want (42, nil)", i, results[i], errs[i])
		}
	}
	if got := sharedCount.Load(); got != waiters {
		t.Fatalf("shared callers = %d, want %d", got, waiters)
	}
	if c.Active() != 0 {
		t.Fatalf("Active = %d after completion, want 0", c.Active())
	}
}

func TestCoalescerSequentialCallsAreSeparateFlights(t *testing.T) {
	c := NewCoalescer[string, int]()
	calls := 0
	for i := 0; i < 3; i++ {
		v, shared, err := c.Do(context.Background(), "doc", func() (int, error) { calls++; return i, nil })
		if err != nil || shared || v != i {
			t.Fatalf("call %d: (%d, %v, %v)", i, v, shared, err)
		}
	}
	if calls != 3 {
		t.Fatalf("fn ran %d times, want 3 (no caching)", calls)
	}
}

func TestCoalescerWaiterDeadline(t *testing.T) {
	c := NewCoalescer[string, int]()
	gate := make(chan struct{})
	leaderIn := make(chan struct{})
	defer close(gate)

	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := c.Do(context.Background(), "doc", func() (int, error) {
			close(leaderIn)
			<-gate
			return 1, nil
		})
		leaderDone <- err
	}()
	<-leaderIn

	// A waiter whose ctx is already cancelled returns promptly without
	// cancelling the leader.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, shared, err := c.Do(ctx, "doc", func() (int, error) { return 2, nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !shared {
		t.Fatal("abandoning waiter not marked shared")
	}
	if time.Since(start) > time.Second {
		t.Fatal("cancelled waiter blocked on the leader")
	}

	gate <- struct{}{}
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader: %v", err)
	}
}

func TestCoalescerErrorSharedByGroup(t *testing.T) {
	c := NewCoalescer[int, string]()
	boom := errors.New("boom")
	gate := make(chan struct{})
	leaderIn := make(chan struct{})

	var wg sync.WaitGroup
	var joined atomic.Int64
	errCh := make(chan error, 2)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, err := c.Do(context.Background(), 1, func() (string, error) {
			close(leaderIn)
			<-gate
			return "", boom
		})
		errCh <- err
	}()
	<-leaderIn
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, err := c.Do(joinCtx{context.Background(), &joined}, 1, func() (string, error) { return "other", nil })
		errCh <- err
	}()
	waitUntil(t, func() bool { return joined.Load() == 1 }, "waiter joined")
	close(gate)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if !errors.Is(err, boom) {
			t.Fatalf("err = %v, want boom shared by the whole group", err)
		}
	}
}

func TestCoalescerDistinctKeysRunConcurrently(t *testing.T) {
	c := NewCoalescer[int, int]()
	var calls atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < 4; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			v, _, err := c.Do(context.Background(), k, func() (int, error) {
				calls.Add(1)
				return k * 10, nil
			})
			if err != nil || v != k*10 {
				t.Errorf("key %d: (%d, %v)", k, v, err)
			}
		}(k)
	}
	wg.Wait()
	if got := calls.Load(); got != 4 {
		t.Fatalf("calls = %d, want 4 (distinct keys never coalesce)", got)
	}
}
