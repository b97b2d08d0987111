package experiments

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// TestTenantSweepShape checks the noisy-neighbor sweep's structure and
// the isolation claims it exists to demonstrate: every cell conserves
// its per-tenant books and holds the byte-quota invariant at every tick
// (the cell self-checks and errors otherwise), the victim's hit ratio
// under storm stays within the epsilon of its solo baseline, a weighted
// aggressor is genuinely shed at its share while a weight-0 aggressor is
// served nothing, and the result is byte-identical across worker counts.
func TestTenantSweepShape(t *testing.T) {
	r, err := NewRunner(0).TenantSweepExperiment(testScale, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.VictimOffered == 0 || row.AggrOffered == 0 {
			t.Fatalf("vacuous cell: %+v", row)
		}
		if row.DeltaPct > tenantEpsilonPct {
			t.Fatalf("victim degraded past epsilon: %+v", row)
		}
		if row.SoloHitPct < 50 || row.StormHitPct < 50 {
			t.Fatalf("victim hit ratio collapsed (warm working set should dominate): %+v", row)
		}
		if row.AggrPeakBytes > tenantAggrBytes {
			t.Fatalf("aggressor residency exceeded quota: %+v", row)
		}
		switch row.Law {
		case "1:0":
			if row.AggrServed != 0 || row.AggrShed != row.AggrOffered {
				t.Fatalf("weight-0 aggressor served: %+v", row)
			}
			if row.AggrPeakBytes != 0 {
				t.Fatalf("weight-0 aggressor held bytes: %+v", row)
			}
		default:
			if row.AggrShed == 0 {
				t.Fatalf("aggressor never shed — the storm never pressed the share: %+v", row)
			}
			if row.AggrServed == 0 {
				t.Fatalf("weighted aggressor starved outright: %+v", row)
			}
		}
		if row.VictimServed+row.VictimShed != row.VictimOffered {
			t.Fatalf("victim books do not balance: %+v", row)
		}
		if row.AggrServed+row.AggrShed != row.AggrOffered {
			t.Fatalf("aggressor books do not balance: %+v", row)
		}
	}

	var buf bytes.Buffer
	r.Format(&buf)
	if !strings.Contains(buf.String(), "noisy-neighbor sweep") {
		t.Fatal("format output unexpected")
	}

	// Byte-identical at any worker count.
	for _, workers := range []int{1, 7} {
		r2, err := NewRunner(workers).TenantSweepExperiment(testScale, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r, r2) {
			t.Fatalf("workers=%d: result differs from default run", workers)
		}
	}
}

// TestTenantCellSoloStormSameStream pins the baseline methodology: the
// victim's request stream is drawn from rng streams independent of the
// aggressor's, so the solo and storm runs of a cell offer the victim the
// byte-identical sequence — the neighbor is the only variable.
func TestTenantCellSoloStormSameStream(t *testing.T) {
	law := TenantLaw{Name: "7:1", VictimWeight: 7, AggrWeight: 1}
	solo, err := tenantCellRun(99, law, 0.9, 40, false)
	if err != nil {
		t.Fatal(err)
	}
	storm, err := tenantCellRun(99, law, 0.9, 40, true)
	if err != nil {
		t.Fatal(err)
	}
	if solo.offered["victim"] != storm.offered["victim"] {
		t.Fatalf("victim offered diverged: solo %d, storm %d", solo.offered["victim"], storm.offered["victim"])
	}
	if solo.offered["aggr"] != 0 || solo.served["aggr"] != 0 {
		t.Fatalf("solo run carried aggressor traffic: %+v", solo.offered)
	}
	if storm.offered["aggr"] == 0 {
		t.Fatal("storm run carried no aggressor traffic")
	}
}
