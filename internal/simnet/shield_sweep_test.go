package simnet

import (
	"strings"
	"testing"
	"time"
)

// TestShieldSweep runs the two-tier sweep: generated schedules with a
// shield-tier fault phase per round (shield crash, failover traffic,
// publishes and scoped/global purges past the crashed shield, heal) and
// the cross-tier invariants armed — per-shield update delivery on a
// healthy tier, scoped-purge completeness, and shield-tier
// freshness plus purge-generation catch-up at quiescent points. Short
// mode trims the seed count; CI runs the full 200-seed sweep under -race.
func TestShieldSweep(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 25
	}
	for seed := 0; seed < seeds; seed++ {
		res, err := Run(Config{Seed: int64(seed), Shields: 2})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Failed() {
			t.Fatalf("seed %d failed:\n%s\n--- schedule ---\n%s\n--- log ---\n%s",
				seed, strings.Join(res.Failures, "\n"), Encode(res.Schedule), res.Log)
		}
		if !strings.Contains(res.Log, "shield-crash node=") {
			t.Fatalf("seed %d: two-tier run crashed no shield:\n%s", seed, res.Log)
		}
		if !strings.Contains(res.Log, "purge url=") {
			t.Fatalf("seed %d: two-tier run executed no purge:\n%s", seed, res.Log)
		}
	}
}

// TestShieldWarmSweep combines both robustness layers: every cache
// recovery is a warm process restart over the durable store while the
// shield tier takes its own fault phase per round.
func TestShieldWarmSweep(t *testing.T) {
	seeds := 50
	if testing.Short() {
		seeds = 10
	}
	for seed := 0; seed < seeds; seed++ {
		res, err := Run(Config{Seed: int64(seed), Shields: 2, Warm: true, StoreDir: t.TempDir()})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Failed() {
			t.Fatalf("seed %d failed:\n%s\n--- schedule ---\n%s\n--- log ---\n%s",
				seed, strings.Join(res.Failures, "\n"), Encode(res.Schedule), res.Log)
		}
	}
}

// shieldSchedule is the explicit two-tier scenario: warm the cloud
// through the shields, publish on a healthy tier (strict per-shield
// delivery checks), crash a shield, fail traffic over, land a publish and a
// global purge past the crashed shield, heal, reconcile (the shield
// resyncs versions and purge generations from the origin), then run the
// strict purges and the full quiescent check.
func shieldSchedule(victim string) []Event {
	return []Event{
		{At: 50 * time.Millisecond, Kind: EvLoad, N: 60},
		{At: 150 * time.Millisecond, Kind: EvPublish, N: 3},
		{At: 250 * time.Millisecond, Kind: EvShieldCrash, Node: victim},
		{At: 300 * time.Millisecond, Kind: EvLoad, N: 20},
		{At: 350 * time.Millisecond, Kind: EvPublish, N: 2},
		{At: 400 * time.Millisecond, Kind: EvPurgeGlobal},
		{At: 450 * time.Millisecond, Kind: EvShieldHeal, Node: victim},
		{At: 500 * time.Millisecond, Kind: EvReconcile},
		{At: 550 * time.Millisecond, Kind: EvPurgeScoped},
		{At: 580 * time.Millisecond, Kind: EvPurgeGlobal},
		{At: 650 * time.Millisecond, Kind: EvPublish, N: 2},
		{At: 750 * time.Millisecond, Kind: EvCheck},
	}
}

// TestShieldTierConvergence replays the explicit two-tier scenario for
// ten seeds, rotating the crashed shield, and requires the log to show
// the shield actually resynced at the reconcile (the crash window landed
// real repair work on it).
func TestShieldTierConvergence(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		victim := "s0"
		if seed%2 == 1 {
			victim = "s1"
		}
		res, err := Run(Config{Seed: seed, Shields: 2, Schedule: shieldSchedule(victim)})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Failed() {
			t.Fatalf("seed %d (victim %s) failed:\n%s\n--- log ---\n%s",
				seed, victim, strings.Join(res.Failures, "\n"), res.Log)
		}
		if !strings.Contains(res.Log, "shield-crash node="+victim) {
			t.Fatalf("seed %d: log lacks shield crash of %s:\n%s", seed, victim, res.Log)
		}
	}
}

// TestShieldScheduleRoundTrips checks that every shield event kind
// survives the text encoding (replay files must be able to carry the
// two-tier fault phase), kind by kind.
func TestShieldScheduleRoundTrips(t *testing.T) {
	perKind := []Event{
		{At: 10 * time.Millisecond, Kind: EvShieldCrash, Node: "s1"},
		{At: 20 * time.Millisecond, Kind: EvShieldHeal, Node: "s1"},
		{At: 30 * time.Millisecond, Kind: EvPurgeScoped},
		{At: 40 * time.Millisecond, Kind: EvPurgeGlobal},
	}
	for _, want := range perKind {
		decoded, err := Decode(Encode([]Event{want}))
		if err != nil {
			t.Fatalf("decode %s: %v", want.Kind, err)
		}
		if len(decoded) != 1 || decoded[0] != want {
			t.Fatalf("%s round trip changed the event: %+v != %+v", want.Kind, decoded, want)
		}
	}

	evs := Generate(7, GenConfig{Shields: 2})
	decoded, err := Decode(Encode(evs))
	if err != nil {
		t.Fatalf("decode shield schedule: %v", err)
	}
	if len(decoded) != len(evs) {
		t.Fatalf("round trip lost events: %d != %d", len(decoded), len(evs))
	}
	saw := map[EventKind]bool{}
	for i, ev := range decoded {
		if ev != evs[i] {
			t.Fatalf("event %d changed: %+v != %+v", i, ev, evs[i])
		}
		saw[ev.Kind] = true
	}
	for _, kind := range []EventKind{EvShieldCrash, EvShieldHeal, EvPurgeScoped} {
		if !saw[kind] {
			t.Fatalf("shield generation produced no %s events", kind)
		}
	}
}

// TestShieldGenerationBackCompat pins that Shields=0 generation is
// byte-identical to the single-tier generator: existing replay files and
// the single-tier sweep results stay valid.
func TestShieldGenerationBackCompat(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		single := Generate(seed, GenConfig{})
		for _, ev := range single {
			switch ev.Kind {
			case EvShieldCrash, EvShieldHeal, EvPurgeScoped, EvPurgeGlobal:
				t.Fatalf("seed %d: single-tier generation emitted %s", seed, ev.Kind)
			}
		}
	}
}

// TestShieldInjectedBugIsCaught verifies the cross-tier invariants
// detect a deliberately planted protocol bug — origin→shield update
// pushes carry a decremented version, so the shield tier silently serves
// stale documents — and that ddmin shrinks a failing schedule to one
// that still trips it.
func TestShieldInjectedBugIsCaught(t *testing.T) {
	var failing Config
	caught := false
	for seed := int64(0); seed < 5; seed++ {
		cfg := Config{Seed: seed, Shields: 2, Inject: "supdate-stale"}
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.Failed() {
			continue
		}
		caught = true
		found := false
		for _, f := range res.Failures {
			if strings.Contains(f, "shield") {
				found = true
			}
		}
		if !found {
			t.Fatalf("seed %d: injection tripped only non-shield failures:\n%s",
				seed, strings.Join(res.Failures, "\n"))
		}
		failing = cfg
		failing.Schedule = res.Schedule
		break
	}
	if !caught {
		t.Fatal("supdate-stale injection was not caught by any of seeds 0..4")
	}

	fails := func(cand []Event) bool {
		c := failing
		c.Schedule = cand
		r, err := Run(c)
		return err == nil && r.Failed()
	}
	min := Minimize(failing.Schedule, fails)
	if len(min) > len(failing.Schedule) {
		t.Fatalf("minimize grew the schedule: %d > %d", len(min), len(failing.Schedule))
	}
	if !fails(min) {
		t.Fatal("minimized shield schedule no longer fails")
	}
	t.Logf("minimized %d events to %d", len(failing.Schedule), len(min))
}

// TestSkippedHolderIsCaught verifies the per-shield delivery check has
// teeth: with every /supdate reply saying the shield holds no copy, the
// origin stops sending updates to a shield that holds one, and the check
// that no skipped shield holds a copy must say so. ddmin then shrinks the
// schedule to one that still trips that check.
func TestSkippedHolderIsCaught(t *testing.T) {
	const want = "was skipped holding"
	trips := func(cfg Config) (Result, bool) {
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", cfg.Seed, err)
		}
		for _, f := range res.Failures {
			if strings.Contains(f, want) {
				return res, true
			}
		}
		return res, false
	}
	for seed := int64(0); seed < 5; seed++ {
		cfg := Config{Seed: seed, Shields: 2, Inject: "supdate-held-lost"}
		res, caught := trips(cfg)
		if !caught {
			continue
		}
		min := Minimize(res.Schedule, func(cand []Event) bool {
			c := cfg
			c.Schedule = cand
			_, ok := trips(c)
			return ok
		})
		if len(min) >= len(res.Schedule) {
			t.Fatalf("minimize did not shrink the schedule: %d of %d events", len(min), len(res.Schedule))
		}
		t.Logf("seed %d: minimized %d events to %d:\n%s", seed, len(res.Schedule), len(min), Encode(min))
		return
	}
	t.Fatal("supdate-held-lost injection was not caught by any of seeds 0..4")
}

// TestStaleSfetchIsCaught verifies the per-exchange staleness sandwich has
// teeth: with every /sfetch reply a version short, a cloud that already has
// the published version is served the one before it, and the check on that
// exchange must say so. ddmin then shrinks the schedule to one that still
// trips that check.
func TestStaleSfetchIsCaught(t *testing.T) {
	const want = "outside [hint"
	trips := func(cfg Config) (Result, bool) {
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", cfg.Seed, err)
		}
		for _, f := range res.Failures {
			if strings.Contains(f, want) {
				return res, true
			}
		}
		return res, false
	}
	for seed := int64(0); seed < 10; seed++ {
		cfg := Config{Seed: seed, Shields: 2, Inject: "sfetch-stale"}
		res, caught := trips(cfg)
		if !caught {
			continue
		}
		min := Minimize(res.Schedule, func(cand []Event) bool {
			c := cfg
			c.Schedule = cand
			_, ok := trips(c)
			return ok
		})
		if len(min) >= len(res.Schedule) {
			t.Fatalf("minimize did not shrink the schedule: %d of %d events", len(min), len(res.Schedule))
		}
		t.Logf("seed %d: minimized %d events to %d:\n%s", seed, len(res.Schedule), len(min), Encode(min))
		return
	}
	t.Fatal("sfetch-stale injection was not caught by the per-exchange check in any of seeds 0..9")
}
