package experiments

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// testScale keeps experiment tests fast while exercising the full pipeline.
const testScale = 0.15

func TestFigure3Shape(t *testing.T) {
	r, err := NewRunner(0).Figure3(testScale, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.StaticLoads) != 10 || len(r.DynamicLoads) != 10 {
		t.Fatalf("beacon counts: %d/%d", len(r.StaticLoads), len(r.DynamicLoads))
	}
	if r.DynamicCoV >= r.StaticCoV {
		t.Fatalf("dynamic CoV %.3f not better than static %.3f", r.DynamicCoV, r.StaticCoV)
	}
	if r.DynamicMaxMean >= r.StaticMaxMean {
		t.Fatalf("dynamic max/mean %.2f not better than static %.2f", r.DynamicMaxMean, r.StaticMaxMean)
	}
	if r.CoVImprovement() <= 0.2 {
		t.Fatalf("CoV improvement %.2f too small for Zipf-0.9", r.CoVImprovement())
	}
	var buf bytes.Buffer
	r.Format(&buf)
	if !strings.Contains(buf.String(), "Zipf-0.9") {
		t.Fatal("format lacks dataset name")
	}
}

func TestFigure4Shape(t *testing.T) {
	r, err := NewRunner(0).Figure4(testScale, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.DynamicCoV >= r.StaticCoV {
		t.Fatalf("dynamic CoV %.3f not better than static %.3f", r.DynamicCoV, r.StaticCoV)
	}
	// The paper reports max/mean ≈ 1.06 for dynamic hashing on Sydney;
	// allow slack for the synthetic stand-in but demand good balance.
	if r.DynamicMaxMean > 1.5 {
		t.Fatalf("dynamic max/mean %.2f too high", r.DynamicMaxMean)
	}
}

func TestFigure5Shape(t *testing.T) {
	r, err := NewRunner(0).Figure5(testScale, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, cs := range r.CloudSizes {
		// Dynamic hashing with 2-point rings already beats static hashing.
		if r.DynamicCoV[cs][2] >= r.StaticCoV[cs] {
			t.Fatalf("cloud %d: dynamic(2) CoV %.3f not better than static %.3f",
				cs, r.DynamicCoV[cs][2], r.StaticCoV[cs])
		}
		// Bigger rings must not be drastically worse than 2-point rings
		// (the paper finds incremental improvement).
		if r.DynamicCoV[cs][10] > r.StaticCoV[cs] {
			t.Fatalf("cloud %d: dynamic(10) CoV %.3f worse than static %.3f",
				cs, r.DynamicCoV[cs][10], r.StaticCoV[cs])
		}
	}
	var buf bytes.Buffer
	r.Format(&buf)
	if !strings.Contains(buf.String(), "dynamic 2/ring") {
		t.Fatalf("format output unexpected:\n%s", buf.String())
	}
}

func TestFigure6Shape(t *testing.T) {
	r, err := NewRunner(0).Figure6(testScale, 1)
	if err != nil {
		t.Fatal(err)
	}
	n := len(r.Alphas)
	if len(r.StaticCoV) != n || len(r.DynamicCoV) != n {
		t.Fatalf("series lengths: %d/%d, want %d", len(r.StaticCoV), len(r.DynamicCoV), n)
	}
	// Static CoV grows with skew; at 0.9 the gap must be substantial.
	if r.StaticCoV[n-2] <= r.StaticCoV[0] {
		t.Fatalf("static CoV did not grow with skew: %.3f -> %.3f", r.StaticCoV[0], r.StaticCoV[n-2])
	}
	i09 := -1
	for i, a := range r.Alphas {
		if a == 0.90 {
			i09 = i
		}
	}
	if i09 == -1 {
		t.Fatal("alpha 0.9 missing from sweep")
	}
	if r.StaticCoV[i09] < r.DynamicCoV[i09]*1.3 {
		t.Fatalf("at alpha 0.9 static %.3f not clearly worse than dynamic %.3f",
			r.StaticCoV[i09], r.DynamicCoV[i09])
	}
}

func TestFigure7and8Shape(t *testing.T) {
	r, err := NewRunner(0).Figure7and8(testScale, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.LimitedDisk {
		t.Fatal("figure 7/8 must be the unlimited-disk sweep")
	}
	n := len(r.UpdateRates)
	for _, pol := range []string{"adhoc", "beacon", "utility"} {
		if len(r.StoredPct[pol]) != n || len(r.NetworkMB[pol]) != n {
			t.Fatalf("policy %s series incomplete", pol)
		}
	}
	// Figure 7 shapes: ad hoc flat and high, beacon flat and low, utility
	// decreasing with update rate.
	u := r.StoredPct["utility"]
	if u[0] <= u[n-1] {
		t.Fatalf("utility stored%% did not fall with update rate: %v", u)
	}
	for i := range r.UpdateRates {
		if r.StoredPct["beacon"][i] >= r.StoredPct["adhoc"][i] {
			t.Fatalf("beacon stored%% above adhoc at rate %d", r.UpdateRates[i])
		}
	}
	// Figure 8 shapes: utility lowest traffic at the highest update rate;
	// adhoc traffic grows with update rate.
	if r.NetworkMB["utility"][n-1] >= r.NetworkMB["adhoc"][n-1] {
		t.Fatalf("utility traffic %.2f not below adhoc %.2f at rate %d",
			r.NetworkMB["utility"][n-1], r.NetworkMB["adhoc"][n-1], r.UpdateRates[n-1])
	}
	if r.NetworkMB["adhoc"][n-1] <= r.NetworkMB["adhoc"][0] {
		t.Fatalf("adhoc traffic did not grow with update rate: %v", r.NetworkMB["adhoc"])
	}
	var buf bytes.Buffer
	r.Format(&buf)
	if !strings.Contains(buf.String(), "unlimited disk") {
		t.Fatal("format lacks disk mode")
	}
}

func TestFigure9Shape(t *testing.T) {
	r, err := NewRunner(0).Figure9(testScale, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !r.LimitedDisk {
		t.Fatal("figure 9 must be the limited-disk sweep")
	}
	n := len(r.UpdateRates)
	// Utility places the least load on the network across the sweep's
	// high-update half (the paper: lowest at all rates; allow the noisy
	// low-rate cells some slack at reduced scale).
	for i := n / 2; i < n; i++ {
		if r.NetworkMB["utility"][i] >= r.NetworkMB["adhoc"][i] {
			t.Fatalf("utility %.2f not below adhoc %.2f at rate %d",
				r.NetworkMB["utility"][i], r.NetworkMB["adhoc"][i], r.UpdateRates[i])
		}
	}
}

func TestRunByName(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("fig3", testScale, 1, &buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("no output")
	}
	if err := Run("nope", testScale, 1, &buf); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestNames(t *testing.T) {
	names := Names()
	if len(names) != 16 {
		t.Fatalf("names = %v", names)
	}
}

func TestLatencyExperimentShape(t *testing.T) {
	r, err := NewRunner(0).LatencyExperiment(testScale, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	byArch := map[string]LatencyRow{}
	for _, row := range r.Rows {
		byArch[row.Arch] = row
		if !(row.P50Ms <= row.P95Ms && row.P95Ms <= row.P99Ms) {
			t.Fatalf("quantiles not ordered: %+v", row)
		}
	}
	// Cooperation must reduce mean latency versus independent caches.
	if byArch["dynamic-hashing"].MeanMs >= byArch["no-cooperation"].MeanMs {
		t.Fatalf("dynamic %.1fms not below no-coop %.1fms",
			byArch["dynamic-hashing"].MeanMs, byArch["no-cooperation"].MeanMs)
	}
	var buf bytes.Buffer
	r.Format(&buf)
	if !strings.Contains(buf.String(), "Client latency") {
		t.Fatal("format output unexpected")
	}
}

func TestCapabilityExperimentShape(t *testing.T) {
	r, err := NewRunner(0).CapabilityExperiment(testScale, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Static hashing is capability-blind: ratio near 1. Dynamic hashing
	// must push the realised ratio well toward the target of 3.
	if r.StaticRatio < 0.6 || r.StaticRatio > 1.6 {
		t.Fatalf("static ratio %.2f, want ≈1", r.StaticRatio)
	}
	if r.DynamicRatio < 2.0 {
		t.Fatalf("dynamic ratio %.2f, want ≳2 (target 3)", r.DynamicRatio)
	}
	var buf bytes.Buffer
	r.Format(&buf)
	if !strings.Contains(buf.String(), "capabilities") {
		t.Fatal("format output unexpected")
	}
}

func TestScaleOutShape(t *testing.T) {
	r, err := NewRunner(0).ScaleOutExperiment(testScale, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, clouds := range r.CloudCounts {
		if r.UpdateMessages[i] != float64(clouds) {
			t.Fatalf("msgs/update at %d clouds = %v, want %d", clouds, r.UpdateMessages[i], clouds)
		}
		if r.HitRate[i] <= 0 {
			t.Fatalf("no hits at %d clouds", clouds)
		}
	}
	// Per-holder push would cost more messages than per-cloud push for
	// replicated content at every network size.
	for i := range r.CloudCounts {
		if r.HolderRefreshes[i] <= r.UpdateMessages[i] {
			t.Fatalf("holder refreshes %v not above per-cloud messages %v",
				r.HolderRefreshes[i], r.UpdateMessages[i])
		}
	}
	var buf bytes.Buffer
	r.Format(&buf)
	if !strings.Contains(buf.String(), "scale-out") {
		t.Fatal("format output unexpected")
	}
}

func TestResilienceExperimentShape(t *testing.T) {
	r, err := NewRunner(0).ResilienceExperiment(testScale, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.RecordsLostBare == 0 {
		t.Fatal("no records lost without replication")
	}
	if r.RecordsLostRepl >= r.RecordsLostBare {
		t.Fatalf("replication did not reduce loss: %d vs %d", r.RecordsLostRepl, r.RecordsLostBare)
	}
	if r.RecordsRecovered == 0 {
		t.Fatal("nothing recovered")
	}
	if r.HitRateRepl < r.HitRateBare {
		t.Fatalf("replication hurt hit rate: %.3f vs %.3f", r.HitRateRepl, r.HitRateBare)
	}
	var buf bytes.Buffer
	r.Format(&buf)
	if !strings.Contains(buf.String(), "resilience") {
		t.Fatal("format output unexpected")
	}
}

func TestCrashSweepExperimentShape(t *testing.T) {
	r, err := NewRunner(0).CrashSweepExperiment(testScale, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(r.Rows))
	}
	prevCrashes := 0
	for _, row := range r.Rows {
		if row.Crashes <= prevCrashes {
			t.Fatalf("crash counts not increasing: %+v", r.Rows)
		}
		prevCrashes = row.Crashes
		if row.RecordsLostBare == 0 {
			t.Fatalf("no records lost without replication at %d crashes", row.Crashes)
		}
		if row.RecordsLostRepl >= row.RecordsLostBare {
			t.Fatalf("replication did not reduce loss at %d crashes: %d vs %d",
				row.Crashes, row.RecordsLostRepl, row.RecordsLostBare)
		}
		if row.RecordsRecovered == 0 {
			t.Fatalf("nothing recovered at %d crashes", row.Crashes)
		}
		if row.RecoveredFrac <= 0 || row.RecoveredFrac > 1 {
			t.Fatalf("recovered fraction %.3f out of range at %d crashes",
				row.RecoveredFrac, row.Crashes)
		}
	}
	// More crashes must not lose fewer records (bare mode is monotone).
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].RecordsLostBare < r.Rows[i-1].RecordsLostBare {
			t.Fatalf("bare loss not monotone in crashes: %+v", r.Rows)
		}
	}
	var buf bytes.Buffer
	r.Format(&buf)
	if !strings.Contains(buf.String(), "Crash-schedule sweep") {
		t.Fatal("format output unexpected")
	}
}

func TestScaleHelpers(t *testing.T) {
	if scaleDuration(240, 0) != 240 {
		t.Fatal("zero scale must default to 1")
	}
	if scaleDuration(240, 0.01) != 20 {
		t.Fatal("duration floor not applied")
	}
	if cycleFor(1440) != 60 {
		t.Fatal("full-length cycle should be 60")
	}
	if cycleFor(40) != 10 {
		t.Fatalf("short-run cycle = %d, want 10", cycleFor(40))
	}
	if cycleFor(2) != 1 {
		t.Fatal("cycle floor not applied")
	}
}

// Every registered experiment name must run end to end through the
// dispatcher (tiny scale keeps this fast).
func TestEveryExperimentDispatches(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := Run(name, 0.05, 1, &buf); err != nil {
				t.Fatal(err)
			}
			if buf.Len() == 0 {
				t.Fatal("no output")
			}
		})
	}
}

// TestStormSweepShape checks the overload sweep's structure and its core
// claims: conservation holds in every cell (the cell function self-checks
// and errors otherwise), the limiter ceiling bounds peak origin
// in-flight, the adaptive limiter keeps mean fetch latency below the
// full-throttle limiter under the heaviest storm, and the result is
// byte-identical across worker counts.
func TestStormSweepShape(t *testing.T) {
	r, err := NewRunner(0).StormSweepExperiment(testScale, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 12 {
		t.Fatalf("rows = %d, want 12", len(r.Rows))
	}
	cellAt := func(mode string, rate int, alpha float64) StormRow {
		for _, row := range r.Rows {
			if row.Mode == mode && row.Rate == rate && row.Alpha == alpha {
				return row
			}
		}
		t.Fatalf("missing cell %s/%d/%.2f", mode, rate, alpha)
		return StormRow{}
	}
	for _, row := range r.Rows {
		if row.Offered == 0 || row.Served == 0 {
			t.Fatalf("vacuous cell: %+v", row)
		}
		if row.PeakInFlight > stormLimitMax {
			t.Fatalf("peak in-flight %d exceeds limiter max %d: %+v", row.PeakInFlight, stormLimitMax, row)
		}
		if row.Rate >= 16 && row.Coalesced == 0 {
			t.Fatalf("no coalescing under a heavy storm: %+v", row)
		}
	}
	// Under the heaviest storm the adaptive limiter must keep origin
	// fetch latency below full throttle — that is the protection claim.
	adaptive, fixed := cellAt("aimd", 64, 0.9), cellAt("fixed", 64, 0.9)
	if adaptive.MeanFetchMs >= fixed.MeanFetchMs {
		t.Fatalf("aimd mean %.1fms not below fixed %.1fms", adaptive.MeanFetchMs, fixed.MeanFetchMs)
	}

	var buf bytes.Buffer
	r.Format(&buf)
	if !strings.Contains(buf.String(), "storm sweep") {
		t.Fatal("format output unexpected")
	}

	// Byte-identical at any worker count.
	for _, workers := range []int{1, 7} {
		r2, err := NewRunner(workers).StormSweepExperiment(testScale, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r, r2) {
			t.Fatalf("workers=%d: result differs from default run", workers)
		}
	}
}

// TestRestartSweepShape checks the restart sweep's structure and the
// durability claim it exists to demonstrate: every cell conserves its
// books (the cell self-checks and errors otherwise), cold boots recover
// nothing while warm boots recover the resident set minus the stale
// fraction, a warm boot serves strictly more of the identical arrival
// stream than its paired cold boot, and the result is byte-identical
// across worker counts.
func TestRestartSweepShape(t *testing.T) {
	r, err := NewRunner(0).RestartSweepExperiment(testScale, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 12 {
		t.Fatalf("rows = %d, want 12", len(r.Rows))
	}
	cellAt := func(mode string, rate, stale int) RestartRow {
		for _, row := range r.Rows {
			if row.Mode == mode && row.Rate == rate && row.StalePct == stale {
				return row
			}
		}
		t.Fatalf("missing cell %s/%d/%d", mode, rate, stale)
		return RestartRow{}
	}
	for _, row := range r.Rows {
		if row.Offered == 0 || row.Served == 0 || row.Resident == 0 {
			t.Fatalf("vacuous cell: %+v", row)
		}
		switch row.Mode {
		case "cold":
			if row.Recovered != 0 {
				t.Fatalf("cold boot recovered %d entries: %+v", row.Recovered, row)
			}
		case "warm":
			if row.Recovered == 0 || row.Recovered > row.Resident {
				t.Fatalf("warm recovery out of range: %+v", row)
			}
			if row.StalePct == 0 && row.Recovered != row.Resident {
				t.Fatalf("warm boot with nothing stale lost entries: %+v", row)
			}
		default:
			t.Fatalf("unknown mode: %+v", row)
		}
	}
	// The durability payoff: on the identical arrival stream, the warm
	// boot serves more and at a higher hit ratio than its cold pair.
	for _, rate := range []int{16, 64} {
		for _, stale := range []int{0, 10, 30} {
			cold, warm := cellAt("cold", rate, stale), cellAt("warm", rate, stale)
			if warm.Served <= cold.Served {
				t.Fatalf("rate=%d stale=%d: warm served %d not above cold %d",
					rate, stale, warm.Served, cold.Served)
			}
			if warm.HitPct <= cold.HitPct {
				t.Fatalf("rate=%d stale=%d: warm hit%% %.1f not above cold %.1f",
					rate, stale, warm.HitPct, cold.HitPct)
			}
		}
	}

	var buf bytes.Buffer
	r.Format(&buf)
	if !strings.Contains(buf.String(), "Restart sweep") {
		t.Fatal("format output unexpected")
	}

	// Byte-identical at any worker count.
	for _, workers := range []int{1, 7} {
		r2, err := NewRunner(workers).RestartSweepExperiment(testScale, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r, r2) {
			t.Fatalf("workers=%d: result differs from default run", workers)
		}
	}
}
