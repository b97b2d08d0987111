package admit

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"
)

// feed pushes n identical samples through the limiter.
func feed(l *Limiter, n int, latency time.Duration, ok bool) {
	for i := 0; i < n; i++ {
		if l.TryAcquire() {
			l.Release(latency, ok)
		}
	}
}

func TestLimiterAIMDGrowsWhenHealthy(t *testing.T) {
	l := NewLimiter(LimiterOptions{Max: 16, Initial: 2})
	for i := 0; i < 200; i++ {
		last := l.Limit()
		feed(l, 1, 10*time.Millisecond, true)
		if got := l.Limit(); got < last {
			t.Fatalf("Limit %d -> %d on healthy sample %d, want no decrease", last, got, i)
		}
	}
	if got := l.Limit(); got != 16 {
		t.Fatalf("Limit = %d after healthy samples, want 16 (ceiling)", got)
	}
}

func TestLimiterAIMDShrinksWhenOriginSlows(t *testing.T) {
	l := NewLimiter(LimiterOptions{Max: 16, Initial: 16})
	feed(l, 20, 10*time.Millisecond, true) // establish ~10ms baseline
	before := l.Limit()
	// Origin slowed 5×: every sample is past SlowFactor × baseline, and
	// the first one halves the limit.
	feed(l, 1, 50*time.Millisecond, true)
	if got := l.Limit(); got != before/2 {
		t.Fatalf("Limit %d -> %d on the first slow sample, want %d (halved)", before, got, before/2)
	}
	feed(l, 19, 50*time.Millisecond, true)
	if after := l.Limit(); after != 1 {
		t.Fatalf("Limit = %d after sustained slowdown, want floor 1", after)
	}
	// The slow samples must not have become the new baseline instantly.
	if b := l.Baseline(); b > 25 {
		t.Fatalf("Baseline = %.1fms after slowdown, want < 25ms (slow creep only)", b)
	}
}

func TestLimiterFailuresShrink(t *testing.T) {
	l := NewLimiter(LimiterOptions{Max: 16, Initial: 8})
	feed(l, 10, 10*time.Millisecond, true)
	feed(l, 10, 10*time.Millisecond, false)
	if got := l.Limit(); got != 1 {
		t.Fatalf("Limit = %d after failures, want 1", got)
	}
}

func TestLimiterFixedModeNeverAdapts(t *testing.T) {
	l := NewLimiter(LimiterOptions{Mode: LimitFixed, Max: 16, Initial: 8})
	feed(l, 50, 10*time.Millisecond, true)
	feed(l, 50, 500*time.Millisecond, true)
	feed(l, 10, time.Millisecond, false)
	if got := l.Limit(); got != 8 {
		t.Fatalf("fixed Limit = %d, want 8", got)
	}
}

// TestLimitModeCensus pins the adaptation laws: aimd and fixed, with any
// other Mode running the default aimd. A third law is a visible edit here.
func TestLimitModeCensus(t *testing.T) {
	if LimitAIMD != "aimd" || LimitFixed != "fixed" {
		t.Fatalf("modes = %q, %q; want aimd, fixed", LimitAIMD, LimitFixed)
	}
	trajectory := func(m LimitMode) []int {
		l := NewLimiter(LimiterOptions{Mode: m, Max: 16, Initial: 16})
		var limits []int
		for _, lat := range []time.Duration{10, 10, 10, 50, 50, 50, 50, 10, 10, 10} {
			feed(l, 10, lat*time.Millisecond, true)
			limits = append(limits, l.Limit())
		}
		return limits
	}
	aimd, fixed := trajectory(LimitAIMD), trajectory(LimitFixed)
	if slices.Equal(aimd, fixed) {
		t.Fatalf("aimd and fixed ran the same law: %v", aimd)
	}
	for _, m := range []LimitMode{"", "gradient", "vegas"} {
		if got := trajectory(m); !slices.Equal(got, aimd) {
			t.Errorf("Mode %q: limits %v, want aimd's %v", m, got, aimd)
		}
	}
}

// TestLimiterDeterministic: identical sample sequences produce identical
// limiter state — the property the stormsweep golden test rests on.
func TestLimiterDeterministic(t *testing.T) {
	mk := func() *Limiter {
		l := NewLimiter(LimiterOptions{Max: 32, Initial: 4})
		feed(l, 30, 8*time.Millisecond, true)
		feed(l, 10, 40*time.Millisecond, true)
		feed(l, 5, 8*time.Millisecond, false)
		feed(l, 30, 8*time.Millisecond, true)
		return l
	}
	a, b := mk(), mk()
	if a.Limit() != b.Limit() || a.Baseline() != b.Baseline() {
		t.Fatalf("diverged: limit %d/%d baseline %v/%v", a.Limit(), b.Limit(), a.Baseline(), b.Baseline())
	}
}

func TestLimiterTryAcquireBounds(t *testing.T) {
	l := NewLimiter(LimiterOptions{Mode: LimitFixed, Max: 3, Initial: 3})
	for i := 0; i < 3; i++ {
		if !l.TryAcquire() {
			t.Fatalf("TryAcquire %d refused under the limit", i)
		}
	}
	if l.TryAcquire() {
		t.Fatal("TryAcquire admitted past the limit")
	}
	if got := l.InFlight(); got != 3 {
		t.Fatalf("InFlight = %d, want 3", got)
	}
	l.Release(time.Millisecond, true)
	if !l.TryAcquire() {
		t.Fatal("TryAcquire refused after a release")
	}
}

func TestLimiterQueueShedAndPump(t *testing.T) {
	l := NewLimiter(LimiterOptions{Mode: LimitFixed, Max: 1, Initial: 1, QueueCap: 1})
	rel, err := l.Acquire(context.Background())
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}

	queued := make(chan error, 1)
	go func() {
		r, err := l.Acquire(context.Background())
		if r != nil {
			defer r(time.Millisecond, true)
		}
		queued <- err
	}()
	waitUntil(t, func() bool { return l.Queued() == 1 }, "limiter waiter queued")

	// Queue at cap: immediate typed shed.
	_, err = l.Acquire(context.Background())
	var se *ShedError
	if !errors.As(err, &se) || se.Reason != ReasonLimit {
		t.Fatalf("err = %v, want *ShedError limit", err)
	}

	// Releasing pumps the queued waiter.
	rel(time.Millisecond, true)
	if err := <-queued; err != nil {
		t.Fatalf("queued waiter: %v", err)
	}
}

func TestLimiterQueueDeadlineSheds(t *testing.T) {
	mc := newManualClock()
	l := NewLimiter(LimiterOptions{
		Mode: LimitFixed, Max: 1, Initial: 1, Clock: mc,
	})
	rel, err := l.Acquire(context.Background())
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	defer rel(time.Millisecond, true)

	got := make(chan error, 1)
	go func() {
		r, err := l.Acquire(context.Background())
		if r != nil {
			defer r(time.Millisecond, true)
		}
		got <- err
	}()
	waitUntil(t, func() bool { return l.Queued() == 1 }, "limiter waiter queued")
	mc.advance(limiterQueueDeadline + time.Millisecond)
	err = <-got
	var se *ShedError
	if !errors.As(err, &se) || se.Reason != ReasonQueueDeadline {
		t.Fatalf("err = %v, want queue-deadline *ShedError", err)
	}
	if got := l.Queued(); got != 0 {
		t.Fatalf("Queued = %d after shed, want 0", got)
	}
}
