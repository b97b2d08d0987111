package admit

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"
)

func TestGateImmediateAdmission(t *testing.T) {
	g := NewGate(GateOptions{Capacity: 8})
	rel, err := g.Acquire(context.Background(), Hit)
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	if got := g.InFlight(); got != 1 {
		t.Fatalf("InFlight = %d, want 1 (hit weight)", got)
	}
	rel()
	rel() // idempotent
	if got := g.InFlight(); got != 0 {
		t.Fatalf("InFlight after release = %d, want 0", got)
	}
}

func TestGateWeights(t *testing.T) {
	g := NewGate(GateOptions{Capacity: 8})
	relM, err := g.Acquire(context.Background(), Miss)
	if err != nil {
		t.Fatalf("Acquire(Miss): %v", err)
	}
	if got := g.InFlight(); got != 4 {
		t.Fatalf("InFlight = %d, want 4 (default miss weight)", got)
	}
	relL, err := g.Acquire(context.Background(), Lookup)
	if err != nil {
		t.Fatalf("Acquire(Lookup): %v", err)
	}
	if got := g.InFlight(); got != 6 {
		t.Fatalf("InFlight = %d, want 6", got)
	}
	relM()
	relL()
}

// TestGateQueueFullSheds checks the immediate-shed path: a class whose
// queue is at cap refuses new arrivals with a typed queue-full shed.
func TestGateQueueFullSheds(t *testing.T) {
	g := NewGate(GateOptions{Capacity: 4, QueueCap: [3]int{1, 1, 1}})
	rel, err := g.Acquire(context.Background(), Miss)
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	defer rel()

	// One waiter occupies the queue slot.
	queued := make(chan error, 1)
	go func() {
		r, err := g.Acquire(context.Background(), Miss)
		if r != nil {
			defer r()
		}
		queued <- err
	}()
	waitUntil(t, func() bool { return g.Queued(Miss) == 1 }, "miss waiter queued")

	_, err = g.Acquire(context.Background(), Miss)
	var se *ShedError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *ShedError", err)
	}
	if se.Reason != ReasonQueueFull || se.Class != Miss {
		t.Fatalf("shed = %+v, want miss/queue-full", se)
	}
	if !errors.Is(err, ErrShed) {
		t.Fatalf("errors.Is(err, ErrShed) = false")
	}
	if se.RetryAfter <= 0 {
		t.Fatalf("RetryAfter = %v, want > 0", se.RetryAfter)
	}
	rel() // drain the queued waiter
	if err := <-queued; err != nil {
		t.Fatalf("queued waiter: %v", err)
	}
}

// TestGateQueueDeadlineShedsNotTimeout is the satellite property: a
// waiter that exhausts its queue-time budget gets a typed shed — not a
// context deadline error — and leaves the queue.
func TestGateQueueDeadlineShedsNotTimeout(t *testing.T) {
	mc := newManualClock()
	g := NewGate(GateOptions{Capacity: 4, Clock: mc})
	rel, err := g.Acquire(context.Background(), Hit)
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	defer rel()

	got := make(chan error, 1)
	go func() {
		r, err := g.Acquire(context.Background(), Miss)
		if r != nil {
			defer r()
		}
		got <- err
	}()
	waitUntil(t, func() bool { return g.Queued(Miss) == 1 }, "miss waiter queued")

	mc.advance(queueDeadline[Miss] + time.Millisecond)
	err = <-got
	var se *ShedError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v (%T), want *ShedError", err, err)
	}
	if se.Reason != ReasonQueueDeadline {
		t.Fatalf("Reason = %q, want %q", se.Reason, ReasonQueueDeadline)
	}
	if errors.Is(err, context.DeadlineExceeded) {
		t.Fatal("queue-deadline expiry surfaced as a context timeout")
	}
	if got := g.Queued(Miss); got != 0 {
		t.Fatalf("Queued(Miss) = %d after shed, want 0", got)
	}
}

// TestGateCallerDeadlineFreesSlot: a waiter whose own ctx ends gets
// ctx.Err() (the caller gave up — that is not a shed) and stops
// consuming its queue slot.
func TestGateCallerDeadlineFreesSlot(t *testing.T) {
	g := NewGate(GateOptions{Capacity: 2})
	rel, err := g.Acquire(context.Background(), Hit)
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	defer rel()

	ctx, cancel := context.WithCancel(context.Background())
	got := make(chan error, 1)
	go func() {
		r, err := g.Acquire(ctx, Lookup)
		if r != nil {
			defer r()
		}
		got <- err
	}()
	waitUntil(t, func() bool { return g.Queued(Lookup) == 1 }, "lookup waiter queued")
	cancel()
	err = <-got
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if errors.Is(err, ErrShed) {
		t.Fatal("caller cancellation mis-reported as a shed")
	}
	if got := g.Queued(Lookup); got != 0 {
		t.Fatalf("Queued(Lookup) = %d after cancel, want 0 (slot freed)", got)
	}
}

// TestGatePriorityHitsBeforeMisses is the satellite property test:
// under saturation, queued hit-class work is always admitted before
// queued miss-class work, across randomized queue mixes. A release grants
// its waiters before it returns, and no waiter leaves a queue any other
// way (the clock never moves, so no queue deadline expires), so what each
// release took off the queues is what it granted: the test records that
// grant order and checks that no hit follows a miss.
func TestGatePriorityHitsBeforeMisses(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 10; round++ {
		nHits := 1 + rng.Intn(6)
		nMisses := 1 + rng.Intn(5)
		g := NewGate(GateOptions{Capacity: 4, QueueCap: [3]int{16, 16, 16}, Clock: newManualClock()})

		// Saturate the gate with one miss.
		held, err := g.Acquire(context.Background(), Miss)
		if err != nil {
			t.Fatalf("saturate: %v", err)
		}
		holders := []func(){held}

		// Queue misses first, then hits — the adversarial order.
		rels := make(chan func(), nHits+nMisses)
		spawn := func(c Class) {
			go func() {
				rel, err := g.Acquire(context.Background(), c)
				if err != nil {
					t.Errorf("waiter %v: %v", c, err)
					return
				}
				rels <- rel
			}()
		}
		for i := 0; i < nMisses; i++ {
			spawn(Miss)
		}
		waitUntil(t, func() bool { return g.Queued(Miss) == nMisses }, "misses queued")
		for i := 0; i < nHits; i++ {
			spawn(Hit)
		}
		waitUntil(t, func() bool { return g.Queued(Hit) == nHits }, "hits queued")

		// Release the holders one at a time, recording each release's grants
		// (hits before misses, as one release grants them) and collecting
		// their releases.
		var order string
		for len(holders) > 0 {
			hits, misses := g.Queued(Hit), g.Queued(Miss)
			holders[0]()
			holders = holders[1:]
			hits -= g.Queued(Hit)
			misses -= g.Queued(Miss)
			order += strings.Repeat("h", hits) + strings.Repeat("m", misses)
			for i := 0; i < hits+misses; i++ {
				select {
				case rel := <-rels:
					holders = append(holders, rel)
				case <-time.After(5 * time.Second):
					t.Fatalf("round %d: a granted waiter never returned", round)
				}
			}
		}
		want := strings.Repeat("h", nHits) + strings.Repeat("m", nMisses)
		if order != want || g.QueuedTotal() != 0 {
			t.Fatalf("round %d: grant order %q with %d queued; want %q and 0", round, order, g.QueuedTotal(), want)
		}
	}
}

func TestGateTryAcquire(t *testing.T) {
	g := NewGate(GateOptions{Capacity: 4})
	rel, ok := g.TryAcquire(Miss)
	if !ok {
		t.Fatal("TryAcquire(Miss) refused on an empty gate")
	}
	if _, ok := g.TryAcquire(Hit); ok {
		t.Fatal("TryAcquire(Hit) admitted past capacity")
	}
	rel()
	if got := g.InFlight(); got != 0 {
		t.Fatalf("InFlight = %d, want 0", got)
	}
}

func TestGateDefaults(t *testing.T) {
	g := NewGate(GateOptions{})
	if got := g.Capacity(); got != DefaultCapacity {
		t.Fatalf("Capacity = %d, want %d", got, DefaultCapacity)
	}
	// Misses cost 4× a hit: only Capacity/4 fit concurrently.
	var rels []func()
	for i := 0; i < DefaultCapacity/weights[Miss]; i++ {
		rel, ok := g.TryAcquire(Miss)
		if !ok {
			t.Fatalf("miss %d refused below capacity", i)
		}
		rels = append(rels, rel)
	}
	if _, ok := g.TryAcquire(Miss); ok {
		t.Fatal("miss admitted past capacity")
	}
	for _, rel := range rels {
		rel()
	}
}
