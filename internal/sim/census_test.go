package sim

import (
	"reflect"
	"slices"
	"testing"
)

// TestSettingsCensus pins the settable surface of the trace-driven
// simulator. A setting with one value in use is a constant (the intra-ring
// hash generator, the latency model, the adaptive feedback period); each
// field kept has the reason it has a second value in use, and adding one is
// an edit here.
func TestSettingsCensus(t *testing.T) {
	kept := []struct{ field, why string }{
		{"Arch", "the paper's three architectures (Figures 3-9)"},
		{"Caches", "edgenet runs each cloud over its own caches"},
		{"NumRings", "Figure 5's ring-size sweep"},
		{"CoarseLoadInfo", "the paper's CAvgLoad mode, the Figure 2-B/2-C trade-off (BenchmarkAblationLoadInfoGranularity)"},
		{"CycleLength", "BenchmarkAblationCycleLength's 15, 30 and 60; cloudsim -cycle"},
		{"Policy", "the three placement schemes (Figures 7-9)"},
		{"CapacityFraction", "Figure 9's limited disk; cloudsim -disk"},
		{"ReplicateRecords", "the failure-resilience extension"},
		{"Replacement", "reference [3]'s LFU/GDS ablation (BenchmarkAblationReplacementPolicies)"},
		{"WarmupUnits", "the load-balance figures measure past convergence"},
		{"LeaseDuration", "the lease-consistency ablation; cloudsim -lease"},
		{"TTL", "the TTL-consistency ablation; cloudsim -ttl"},
		{"CollectSeries", "cloudsim -series"},
		{"FailAt", "the failure-injection experiment"},
		{"Seed", "every experiment's seed"},
		{"Tracer", "cloudsim -trace-out"},
		{"MetricsEvery", "cloudsim -metrics-every"},
		{"MetricsSink", "cloudsim -metrics-out"},
	}
	want := make([]string, len(kept))
	for i, k := range kept {
		want[i] = k.field
	}
	typ := reflect.TypeOf(Config{})
	got := make([]string, typ.NumField())
	for i := range got {
		got[i] = typ.Field(i).Name
	}
	if !slices.Equal(got, want) {
		t.Errorf("Config fields = %v, want %v", got, want)
	}
}
