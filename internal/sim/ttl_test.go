package sim

import (
	"testing"

	"cachecloud/internal/cache"
	"cachecloud/internal/placement"
)

// Under TTL consistency, no update is ever pushed: server bytes come only
// from fetches and revalidation refreshes, and some hits serve stale data.
func TestTTLModeBasics(t *testing.T) {
	tr := smallZipfTrace(100)
	res, err := Run(Config{Arch: DynamicHashing, TTL: 30}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.HoldersNotified != 0 {
		t.Fatalf("TTL mode pushed updates to %d holders", res.HoldersNotified)
	}
	if res.StaleServes == 0 {
		t.Fatal("TTL mode with heavy updates produced no stale serves")
	}
	if res.Revalidations == 0 {
		t.Fatal("TTL mode never revalidated")
	}
}

// Push consistency never serves stale documents; TTL does. That staleness
// is the price the paper's server-driven protocol removes.
func TestPushNeverStaleTTLSometimes(t *testing.T) {
	tr := smallZipfTrace(100)
	push, err := Run(Config{Arch: DynamicHashing}, tr)
	if err != nil {
		t.Fatal(err)
	}
	ttl, err := Run(Config{Arch: DynamicHashing, TTL: 60}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if push.StaleServes != 0 {
		t.Fatalf("push consistency served stale %d times", push.StaleServes)
	}
	if ttl.StaleServes <= push.StaleServes {
		t.Fatal("TTL mode should serve stale at least once")
	}
}

// A shorter TTL revalidates more and serves stale less.
func TestTTLFreshnessTradeoff(t *testing.T) {
	tr := smallZipfTrace(100)
	short, err := Run(Config{Arch: DynamicHashing, TTL: 5}, tr)
	if err != nil {
		t.Fatal(err)
	}
	long, err := Run(Config{Arch: DynamicHashing, TTL: 60}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if short.Revalidations <= long.Revalidations {
		t.Fatalf("short TTL revalidated %d times, long %d", short.Revalidations, long.Revalidations)
	}
	if short.StaleServes >= long.StaleServes {
		t.Fatalf("short TTL stale %d, long %d", short.StaleServes, long.StaleServes)
	}
}

func TestReplacementKindPassthrough(t *testing.T) {
	tr := smallZipfTrace(20)
	for _, kind := range []cache.ReplacementKind{cache.LRU, cache.LFU, cache.GreedyDualSize} {
		res, err := Run(Config{Arch: DynamicHashing, Replacement: kind, CapacityFraction: 0.05}, tr)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if res.LocalHits == 0 {
			t.Fatalf("%v: no local hits", kind)
		}
	}
	// No-cooperation path honours the kind too.
	if _, err := Run(Config{Arch: NoCooperation, Replacement: cache.GreedyDualSize, CapacityFraction: 0.05}, tr); err != nil {
		t.Fatal(err)
	}
}

// Replacement policies actually change behaviour under tight disk.
func TestReplacementPoliciesDiffer(t *testing.T) {
	tr := smallZipfTrace(20)
	hits := map[cache.ReplacementKind]int64{}
	for _, kind := range []cache.ReplacementKind{cache.LRU, cache.LFU, cache.GreedyDualSize} {
		res, err := Run(Config{Arch: DynamicHashing, Replacement: kind, CapacityFraction: 0.02, Seed: 1}, tr)
		if err != nil {
			t.Fatal(err)
		}
		hits[kind] = res.LocalHits
	}
	if hits[cache.LRU] == hits[cache.LFU] && hits[cache.LFU] == hits[cache.GreedyDualSize] {
		t.Fatalf("all policies produced identical hit counts %v — knob not wired", hits)
	}
}

// The adaptive utility policy receives periodic feedback during a run and
// its weights move away from the uniform start.
func TestAdaptiveUtilityFeedbackLoop(t *testing.T) {
	a, err := placement.NewAdaptiveUtility(placement.EqualOn(true, true, true, true), 0.5, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	start := a.Weights()
	res, err := Run(Config{
		Arch: DynamicHashing, Policy: a, CycleLength: 10,
		CapacityFraction: 0.1,
	}, smallZipfTrace(200))
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests == 0 {
		t.Fatal("empty run")
	}
	if a.FeedbackCount() < 5 {
		t.Fatalf("feedback fired %d times, want several", a.FeedbackCount())
	}
	if a.Weights() == start {
		t.Fatal("weights never moved despite heavy update churn")
	}
}

func TestCollectSeries(t *testing.T) {
	tr := smallZipfTrace(20)
	res, err := Run(Config{Arch: DynamicHashing, CollectSeries: true}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Series == nil {
		t.Fatal("series not collected")
	}
	if int64(len(res.Series.Units)) != tr.Duration {
		t.Fatalf("series has %d units, want %d", len(res.Series.Units), tr.Duration)
	}
	var totalMB float64
	for _, v := range res.Series.NetworkMB {
		totalMB += v
	}
	wantMB := float64(res.IntraCloudBytes+res.ServerBytes+res.ControlBytes) / (1 << 20)
	if totalMB < wantMB*0.999 || totalMB > wantMB*1.001 {
		t.Fatalf("series network sum %.3f != total %.3f", totalMB, wantMB)
	}
	// Hit rate should improve from the cold start to the warm end.
	n := len(res.Series.HitRate)
	if res.Series.HitRate[n-1] <= res.Series.HitRate[0] {
		t.Fatalf("hit rate did not warm up: first %.3f last %.3f",
			res.Series.HitRate[0], res.Series.HitRate[n-1])
	}
	// Off by default.
	res2, err := Run(Config{Arch: DynamicHashing}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Series != nil {
		t.Fatal("series collected without opt-in")
	}
}
