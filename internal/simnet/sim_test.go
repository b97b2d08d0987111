package simnet

import (
	"strings"
	"testing"
	"time"

	"cachecloud/internal/obs"
)

// TestSingleSeedRunsClean runs one full generated scenario and requires
// every invariant to hold.
func TestSingleSeedRunsClean(t *testing.T) {
	res, err := Run(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed() {
		t.Fatalf("seed 1 failed:\n%s\n--- log ---\n%s", strings.Join(res.Failures, "\n"), res.Log)
	}
	for _, want := range []string{"load", "publish", "crash", "heal", "check-accounting", "check "} {
		if !strings.Contains(res.Log, want) {
			t.Fatalf("log lacks %q:\n%s", want, res.Log)
		}
	}
}

// TestDeterministicReplay requires byte-identical logs for the same seed.
func TestDeterministicReplay(t *testing.T) {
	a, err := Run(Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if a.Log != b.Log {
		t.Fatalf("same seed produced different logs:\n--- first ---\n%s\n--- second ---\n%s", a.Log, b.Log)
	}
	if Encode(a.Schedule) != Encode(b.Schedule) {
		t.Fatal("same seed produced different schedules")
	}
}

// TestScheduleRoundTrip checks Encode/Decode are inverse on generated
// schedules.
func TestScheduleRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		evs := Generate(seed, GenConfig{Nodes: 4})
		enc := Encode(evs)
		dec, err := Decode(enc)
		if err != nil {
			t.Fatalf("seed %d: decode: %v", seed, err)
		}
		if Encode(dec) != enc {
			t.Fatalf("seed %d: round trip changed schedule:\n%s\nvs\n%s", seed, enc, Encode(dec))
		}
	}
}

// TestVirtualClockOrdering checks timer firing order and Stop semantics.
func TestVirtualClockOrdering(t *testing.T) {
	c := NewVirtualClock()
	var fired []int
	c.AfterFunc(30*time.Millisecond, func() { fired = append(fired, 3) })
	c.AfterFunc(10*time.Millisecond, func() { fired = append(fired, 1) })
	tm := c.AfterFunc(20*time.Millisecond, func() { fired = append(fired, 2) })
	// Same-deadline timers fire in registration order.
	c.AfterFunc(10*time.Millisecond, func() { fired = append(fired, 11) })
	if !tm.Stop() {
		t.Fatal("Stop on pending timer returned false")
	}
	if tm.Stop() {
		t.Fatal("second Stop returned true")
	}
	// A callback scheduling a new due timer must fire it in the same pass.
	c.AfterFunc(15*time.Millisecond, func() {
		c.AfterFunc(5*time.Millisecond, func() { fired = append(fired, 20) })
	})
	c.Advance(40 * time.Millisecond)
	want := []int{1, 11, 20, 3}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
}

// TestTracerReachesTheNodes: the run's one tracer, handed to every node
// through ClusterConfig.Tracer, hears the origin's failure detector, and
// tracing changes nothing the run does.
func TestTracerReachesTheNodes(t *testing.T) {
	plain, err := Run(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer(1 << 12)
	traced, err := Run(Config{Seed: 1, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	if traced.Log != plain.Log {
		t.Fatalf("tracing changed the run:\n--- plain ---\n%s\n--- traced ---\n%s", plain.Log, traced.Log)
	}
	if tr.Count(obs.EvSimFault) == 0 || tr.Count(obs.EvNodeDead) == 0 {
		t.Fatalf("sim faults %d, origin's node-dead events %d; want both > 0",
			tr.Count(obs.EvSimFault), tr.Count(obs.EvNodeDead))
	}
}
