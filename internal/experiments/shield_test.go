package experiments

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// TestShieldSweepShape checks the two-tier sweep's structure and the
// hierarchy claim it exists to demonstrate: every cell balances its
// cross-tier books (the cell self-checks and errors otherwise), the
// single-tier baseline's origin update cost grows with the cloud count
// while the shielded rows stay bounded by the shield count — the
// O(clouds) → O(shields) collapse — and the result is byte-identical
// across worker counts.
func TestShieldSweepShape(t *testing.T) {
	r, err := NewRunner(0).ShieldSweepExperiment(testScale, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != len(r.CloudCounts)*len(r.ShieldCounts) {
		t.Fatalf("rows = %d, want %d", len(r.Rows), len(r.CloudCounts)*len(r.ShieldCounts))
	}
	cellAt := func(clouds, shields int) ShieldRow {
		for _, row := range r.Rows {
			if row.Clouds == clouds && row.Shields == shields {
				return row
			}
		}
		t.Fatalf("missing cell %d/%d", clouds, shields)
		return ShieldRow{}
	}
	for _, row := range r.Rows {
		if row.Publishes == 0 || row.OriginUpdates == 0 {
			t.Fatalf("vacuous cell: %+v", row)
		}
		if row.Shields == 0 {
			if row.ShieldUpdates != 0 || row.ShieldHits != 0 {
				t.Fatalf("single-tier cell crossed the shield tier: %+v", row)
			}
			continue
		}
		// Behind the tier the origin never sends more than one update per
		// shield per publish.
		if row.UpdatesPerPublish > float64(row.Shields) {
			t.Fatalf("origin sent %.2f updates/publish over %d shields: %+v",
				row.UpdatesPerPublish, row.Shields, row)
		}
		if row.ShieldHits == 0 {
			t.Fatalf("shield tier absorbed no misses: %+v", row)
		}
	}
	// The O(clouds) → O(shields) collapse: the baseline's per-publish cost
	// grows with the cloud count; at the largest cloud count the shielded
	// fabric cuts it by far more than half, and adding clouds behind a
	// fixed shield count barely moves the origin's cost.
	if b4, b64 := cellAt(4, 0), cellAt(64, 0); b64.UpdatesPerPublish <= 2*b4.UpdatesPerPublish {
		t.Fatalf("baseline did not scale with clouds: %.2f at 4 vs %.2f at 64",
			b4.UpdatesPerPublish, b64.UpdatesPerPublish)
	}
	base, shielded := cellAt(64, 0), cellAt(64, 4)
	if shielded.UpdatesPerPublish >= base.UpdatesPerPublish/2 {
		t.Fatalf("shield tier saved too little: %.2f vs baseline %.2f updates/publish",
			shielded.UpdatesPerPublish, base.UpdatesPerPublish)
	}
	if s16, s64 := cellAt(16, 4), cellAt(64, 4); s64.UpdatesPerPublish > 1.5*s16.UpdatesPerPublish {
		t.Fatalf("shielded cost not bounded by shields: %.2f at 16 clouds vs %.2f at 64",
			s16.UpdatesPerPublish, s64.UpdatesPerPublish)
	}

	var buf bytes.Buffer
	r.Format(&buf)
	if !strings.Contains(buf.String(), "shield sweep") ||
		!strings.Contains(buf.String(), "reduction vs single tier") {
		t.Fatal("format output unexpected")
	}

	// Byte-identical at any worker count.
	for _, workers := range []int{1, 7} {
		r2, err := NewRunner(workers).ShieldSweepExperiment(testScale, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r, r2) {
			t.Fatalf("workers=%d: result differs from default run", workers)
		}
	}
}
