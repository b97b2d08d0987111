package simnet

import (
	"strings"
	"testing"
)

// TestTenantSweep runs the multi-tenant sweep: generated schedules with
// a tenant-storm phase per round, under the per-tenant byte-quota
// invariant (checked before and after every event), per-tenant
// conservation, and the zero-weight-tenant shed law. Short mode trims
// the seed count; CI runs the full 200 seeds (`make tenant-sweep`).
func TestTenantSweep(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 25
	}
	for seed := 0; seed < seeds; seed++ {
		res, err := Run(Config{Seed: int64(seed), Tenants: 3})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Failed() {
			t.Fatalf("seed %d failed:\n%s\n--- schedule ---\n%s\n--- log ---\n%s",
				seed, strings.Join(res.Failures, "\n"), Encode(res.Schedule), res.Log)
		}
		if !strings.Contains(res.Log, "tenant-storm n=") {
			t.Fatalf("seed %d: tenant run executed no tenant-storm:\n%s", seed, res.Log)
		}
	}
}

// TestWarmBoundCountsTenantKeys replays the seed whose warm restart
// revalidated more copies than the catalog holds: with tenants a node keeps
// one copy per tenant-scoped key, so the origin-fetch bound after a warm
// restart runs over catalog × (1 + tenants) keys.
func TestWarmBoundCountsTenantKeys(t *testing.T) {
	res, err := Run(Config{Seed: 30, Warm: true, Shields: 2, Tenants: 3, StoreDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed() {
		t.Fatalf("seed 30 failed:\n%s", strings.Join(res.Failures, "\n"))
	}
	if !strings.Contains(res.Log, "check-warm node=") {
		t.Fatalf("seed 30 ran no warm check:\n%s", res.Log)
	}
}

// TestTenantRunDeterminism pins that multi-tenant runs stay
// reproducible: the same seed yields a byte-identical event log.
func TestTenantRunDeterminism(t *testing.T) {
	first, err := Run(Config{Seed: 11, Tenants: 3})
	if err != nil {
		t.Fatal(err)
	}
	second, err := Run(Config{Seed: 11, Tenants: 3})
	if err != nil {
		t.Fatal(err)
	}
	if first.Log != second.Log {
		t.Fatalf("tenant run not deterministic:\n--- first ---\n%s\n--- second ---\n%s", first.Log, second.Log)
	}
}

// TestTenantGenerationBackCompat pins that Tenants==0 generation is
// byte-identical to the pre-tenancy generator: every tenant rng draw
// lives inside the Tenants>0 branch, so existing replay files, sweep
// results, and golden logs stay valid.
func TestTenantGenerationBackCompat(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		for _, ev := range Generate(seed, GenConfig{}) {
			if ev.Kind == EvTenantStorm {
				t.Fatalf("seed %d: single-tenant generation emitted %s", seed, ev.Kind)
			}
		}
		// Tenants==0 must be the identity, not merely storm-free: the field
		// must not perturb the rng stream of a schedule that never reads it.
		single := Encode(Generate(seed, GenConfig{}))
		explicitZero := Encode(Generate(seed, GenConfig{Tenants: 0}))
		if single != explicitZero {
			t.Fatalf("seed %d: Tenants:0 diverged from the zero value:\n%s\n---\n%s",
				seed, explicitZero, single)
		}
	}
}

// TestTenantScheduleRoundTrips checks that tenant schedules survive the
// text encoding (replay files must be able to carry tenant-storm).
func TestTenantScheduleRoundTrips(t *testing.T) {
	evs := Generate(7, GenConfig{Tenants: 3})
	decoded, err := Decode(Encode(evs))
	if err != nil {
		t.Fatalf("decode tenant schedule: %v", err)
	}
	if len(decoded) != len(evs) {
		t.Fatalf("round trip lost events: %d != %d", len(decoded), len(evs))
	}
	sawStorm := false
	for i, ev := range decoded {
		if ev != evs[i] {
			t.Fatalf("event %d changed: %+v != %+v", i, ev, evs[i])
		}
		if ev.Kind == EvTenantStorm {
			sawStorm = true
		}
	}
	if !sawStorm {
		t.Fatal("tenant generation produced no tenant-storm events")
	}
}
