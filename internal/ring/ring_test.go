package ring

import (
	"errors"
	"math/rand"
	"testing"

	"cachecloud/internal/loadstats"
)

// figure2Loads are the per-IrH-value loads reconstructed from the paper's
// Figure 2 (IntraGen = 10, two equal-capability beacon points).
var figure2Loads = []int64{175, 100, 135, 30, 60, 50, 25, 75, 50, 100}

func newFigure2Ring(t *testing.T, fineGrained bool) *Ring {
	t.Helper()
	r, err := New(Config{IntraGen: 10, FineGrained: fineGrained}, []Member{
		{ID: "Pc00", Capability: 1},
		{ID: "Pc10", Capability: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func feedFigure2(t *testing.T, r *Ring) {
	t.Helper()
	for v, load := range figure2Loads {
		if err := r.Record(v, loadstats.Lookup, load); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPaperFigure2 reproduces the worked example of Section 2.3 exactly:
// initial equal split (0,4)/(5,9) carries loads 500/300; with CIrHLd
// information the boundary moves two values giving 410/390; with only
// CAvgLoad it moves one value giving 440/360.
func TestPaperFigure2(t *testing.T) {
	t.Run("cycle0", func(t *testing.T) {
		r := newFigure2Ring(t, true)
		a := r.Assignments()
		if a[0].Sub != (SubRange{0, 4}) || a[1].Sub != (SubRange{5, 9}) {
			t.Fatalf("initial sub-ranges %v %v, want (0,4) (5,9)", a[0].Sub, a[1].Sub)
		}
		feedFigure2(t, r)
		loads := r.Loads()
		if loads[0] != 500 || loads[1] != 300 {
			t.Fatalf("cycle-0 loads %v, want [500 300]", loads)
		}
	})

	t.Run("exact", func(t *testing.T) {
		r := newFigure2Ring(t, true)
		feedFigure2(t, r)
		moves := r.Rebalance()
		a := r.Assignments()
		if a[0].Sub != (SubRange{0, 2}) || a[1].Sub != (SubRange{3, 9}) {
			t.Fatalf("exact-mode sub-ranges %v %v, want (0,2) (3,9)", a[0].Sub, a[1].Sub)
		}
		if len(moves) != 1 || moves[0] != (Move{From: "Pc00", To: "Pc10", Sub: SubRange{3, 4}}) {
			t.Fatalf("moves = %+v, want one Pc00→Pc10 (3,4)", moves)
		}
		feedFigure2(t, r)
		loads := r.Loads()
		if loads[0] != 410 || loads[1] != 390 {
			t.Fatalf("cycle-1 loads %v, want [410 390]", loads)
		}
	})

	t.Run("approx", func(t *testing.T) {
		r := newFigure2Ring(t, false)
		feedFigure2(t, r)
		moves := r.Rebalance()
		a := r.Assignments()
		if a[0].Sub != (SubRange{0, 3}) || a[1].Sub != (SubRange{4, 9}) {
			t.Fatalf("approx-mode sub-ranges %v %v, want (0,3) (4,9)", a[0].Sub, a[1].Sub)
		}
		if len(moves) != 1 || moves[0] != (Move{From: "Pc00", To: "Pc10", Sub: SubRange{4, 4}}) {
			t.Fatalf("moves = %+v, want one Pc00→Pc10 (4,4)", moves)
		}
		feedFigure2(t, r)
		loads := r.Loads()
		if loads[0] != 440 || loads[1] != 360 {
			t.Fatalf("cycle-1 loads %v, want [440 360]", loads)
		}
	})
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{IntraGen: 10}, nil); !errors.Is(err, ErrTooFewPoints) {
		t.Fatalf("err = %v, want ErrTooFewPoints", err)
	}
	if _, err := New(Config{IntraGen: 1}, []Member{{"a", 1}, {"b", 1}}); !errors.Is(err, ErrBadIntraGen) {
		t.Fatalf("err = %v, want ErrBadIntraGen", err)
	}
	if _, err := New(Config{IntraGen: 10}, []Member{{"a", 0}}); !errors.Is(err, ErrBadCapability) {
		t.Fatalf("err = %v, want ErrBadCapability", err)
	}
	if _, err := New(Config{IntraGen: 10}, []Member{{"a", 1}, {"a", 1}}); !errors.Is(err, ErrDuplicatePoint) {
		t.Fatalf("err = %v, want ErrDuplicatePoint", err)
	}
}

func TestNewProportionalSplit(t *testing.T) {
	r, err := New(Config{IntraGen: 10}, []Member{{"big", 3}, {"small", 1}})
	if err != nil {
		t.Fatal(err)
	}
	a := r.Assignments()
	if a[0].Sub != (SubRange{0, 7}) || a[1].Sub != (SubRange{8, 9}) {
		t.Fatalf("sub-ranges %v %v, want (0,7) (8,9)", a[0].Sub, a[1].Sub)
	}
}

func TestNewTightIntraGen(t *testing.T) {
	// IntraGen equal to the member count: every point gets exactly one value.
	r, err := New(Config{IntraGen: 3}, []Member{{"a", 100}, {"b", 1}, {"c", 1}})
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, r)
	for _, asg := range r.Assignments() {
		if asg.Sub.Len() != 1 {
			t.Fatalf("point %s has %d values, want 1", asg.ID, asg.Sub.Len())
		}
	}
}

func TestBeaconForBounds(t *testing.T) {
	r := newFigure2Ring(t, true)
	if _, err := r.BeaconFor(-1); err == nil {
		t.Fatal("BeaconFor(-1) succeeded")
	}
	if _, err := r.BeaconFor(10); err == nil {
		t.Fatal("BeaconFor(10) succeeded")
	}
	id, err := r.BeaconFor(4)
	if err != nil || id != "Pc00" {
		t.Fatalf("BeaconFor(4) = %q, %v", id, err)
	}
	id, err = r.BeaconFor(5)
	if err != nil || id != "Pc10" {
		t.Fatalf("BeaconFor(5) = %q, %v", id, err)
	}
}

func TestRecordBounds(t *testing.T) {
	r := newFigure2Ring(t, true)
	if err := r.Record(42, loadstats.Lookup, 1); err == nil {
		t.Fatal("Record out of range succeeded")
	}
}

func TestRebalanceExpansion(t *testing.T) {
	// Load concentrated on the second point: the first must expand.
	r := newFigure2Ring(t, true)
	for v := 5; v <= 9; v++ {
		if err := r.Record(v, loadstats.Update, 100); err != nil {
			t.Fatal(err)
		}
	}
	r.Rebalance()
	a := r.Assignments()
	if a[0].Sub.Hi < 5 {
		t.Fatalf("first point did not expand: %v", a[0].Sub)
	}
	checkPartition(t, r)
}

func TestRebalanceZeroLoadNoop(t *testing.T) {
	r := newFigure2Ring(t, true)
	moves := r.Rebalance()
	if len(moves) != 0 {
		t.Fatalf("zero-load rebalance produced moves: %+v", moves)
	}
	a := r.Assignments()
	if a[0].Sub != (SubRange{0, 4}) || a[1].Sub != (SubRange{5, 9}) {
		t.Fatal("zero-load rebalance changed sub-ranges")
	}
}

func TestRebalanceSinglePoint(t *testing.T) {
	r, err := New(Config{IntraGen: 10}, []Member{{"solo", 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Record(3, loadstats.Lookup, 5); err != nil {
		t.Fatal(err)
	}
	if moves := r.Rebalance(); moves != nil {
		t.Fatalf("single-point rebalance moves = %v", moves)
	}
	if got := r.Loads()[0]; got != 0 {
		t.Fatalf("counter not reset: %v", got)
	}
}

func TestRebalanceRespectsCapability(t *testing.T) {
	r, err := New(Config{IntraGen: 100, FineGrained: true}, []Member{
		{ID: "strong", Capability: 3},
		{ID: "weak", Capability: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Uniform load: each IrH value costs 10.
	feed := func() {
		for v := 0; v < 100; v++ {
			if err := r.Record(v, loadstats.Lookup, 10); err != nil {
				t.Fatal(err)
			}
		}
	}
	feed()
	r.Rebalance()
	feed()
	loads := r.Loads()
	ratio := loads[0] / loads[1]
	if ratio < 2.5 || ratio > 3.5 {
		t.Fatalf("load ratio %.2f, want ≈3 (capability-proportional)", ratio)
	}
}

// checkPartition verifies the ring invariant: sub-ranges are contiguous,
// non-overlapping, non-empty, and cover exactly [0, IntraGen).
func checkPartition(t *testing.T, r *Ring) {
	t.Helper()
	a := r.Assignments()
	next := 0
	for _, asg := range a {
		if asg.Sub.Lo != next {
			t.Fatalf("gap or overlap at %d: %+v", next, a)
		}
		if asg.Sub.Len() < 1 {
			t.Fatalf("empty sub-range for %s: %+v", asg.ID, a)
		}
		next = asg.Sub.Hi + 1
	}
	if next != r.IntraGen() {
		t.Fatalf("partition ends at %d, want %d: %+v", next, r.IntraGen(), a)
	}
}

// Property: the partition invariant holds after arbitrary load patterns and
// repeated rebalances, in both accuracy modes; and rebalancing never makes
// the imbalance worse when re-fed the same load pattern.
func TestRebalancePartitionInvariant(t *testing.T) {
	for _, fine := range []bool{true, false} {
		rng := rand.New(rand.NewSource(99))
		for trial := 0; trial < 50; trial++ {
			nPoints := rng.Intn(5) + 2
			gen := nPoints + rng.Intn(200)
			members := make([]Member, nPoints)
			for i := range members {
				members[i] = Member{
					ID:         CacheID(i),
					Capability: float64(rng.Intn(4) + 1),
				}
			}
			r, err := New(Config{IntraGen: gen, FineGrained: fine}, members)
			if err != nil {
				t.Fatal(err)
			}
			for cycle := 0; cycle < 4; cycle++ {
				for k := 0; k < 300; k++ {
					v := rng.Intn(gen)
					// Skewed: square the draw toward low values.
					v = (v * v) / gen
					if err := r.Record(v, loadstats.Lookup, int64(rng.Intn(20)+1)); err != nil {
						t.Fatal(err)
					}
				}
				r.Rebalance()
				checkPartition(t, r)
			}
		}
	}
}

// CacheID builds a test beacon-point ID.
func CacheID(i int) string { return string(rune('a'+i)) + "-point" }

func TestRebalanceImprovesBalance(t *testing.T) {
	// Deterministic skewed load; after one rebalance with exact info the
	// re-fed load must be strictly better balanced.
	r, err := New(Config{IntraGen: 50, FineGrained: true}, []Member{
		{"p0", 1}, {"p1", 1}, {"p2", 1}, {"p3", 1}, {"p4", 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	feed := func() {
		for v := 0; v < 50; v++ {
			load := int64(1)
			if v < 5 {
				load = 100
			}
			if err := r.Record(v, loadstats.Lookup, load); err != nil {
				t.Fatal(err)
			}
		}
	}
	feed()
	before := loadstats.NewDistribution(r.Loads()).CoV()
	r.Rebalance()
	feed()
	after := loadstats.NewDistribution(r.Loads()).CoV()
	if after >= before {
		t.Fatalf("CoV did not improve: before %.3f after %.3f", before, after)
	}
}

func TestAddSplitsWidestRange(t *testing.T) {
	r := newFigure2Ring(t, true)
	mv, err := r.Add(Member{ID: "Pc20", Capability: 1})
	if err != nil {
		t.Fatal(err)
	}
	if mv.To != "Pc20" || mv.Sub.Len() == 0 {
		t.Fatalf("bad move %+v", mv)
	}
	if r.Size() != 3 {
		t.Fatalf("size = %d, want 3", r.Size())
	}
	checkPartition(t, r)
	// The new point must be reachable via BeaconFor.
	id, err := r.BeaconFor(mv.Sub.Lo)
	if err != nil || id != "Pc20" {
		t.Fatalf("BeaconFor(%d) = %q, %v", mv.Sub.Lo, id, err)
	}
}

func TestAddValidation(t *testing.T) {
	r := newFigure2Ring(t, true)
	if _, err := r.Add(Member{ID: "Pc00", Capability: 1}); !errors.Is(err, ErrDuplicatePoint) {
		t.Fatalf("err = %v, want ErrDuplicatePoint", err)
	}
	if _, err := r.Add(Member{ID: "x", Capability: -1}); !errors.Is(err, ErrBadCapability) {
		t.Fatalf("err = %v, want ErrBadCapability", err)
	}
}

func TestRemoveMergesRange(t *testing.T) {
	r := newFigure2Ring(t, true)
	mv, err := r.Remove("Pc10")
	if err != nil {
		t.Fatal(err)
	}
	if mv.From != "Pc10" || mv.To != "Pc00" || mv.Sub != (SubRange{5, 9}) {
		t.Fatalf("move = %+v", mv)
	}
	checkPartition(t, r)
	id, err := r.BeaconFor(9)
	if err != nil || id != "Pc00" {
		t.Fatalf("BeaconFor(9) = %q, %v", id, err)
	}
}

func TestRemoveFirstPoint(t *testing.T) {
	r := newFigure2Ring(t, true)
	mv, err := r.Remove("Pc00")
	if err != nil {
		t.Fatal(err)
	}
	if mv.To != "Pc10" || mv.Sub != (SubRange{0, 4}) {
		t.Fatalf("move = %+v", mv)
	}
	checkPartition(t, r)
}

func TestRemoveValidation(t *testing.T) {
	r := newFigure2Ring(t, true)
	if _, err := r.Remove("nope"); !errors.Is(err, ErrUnknownPoint) {
		t.Fatalf("err = %v, want ErrUnknownPoint", err)
	}
	if _, err := r.Remove("Pc00"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Remove("Pc10"); !errors.Is(err, ErrLastPoint) {
		t.Fatalf("err = %v, want ErrLastPoint", err)
	}
}

func TestSibling(t *testing.T) {
	r := newFigure2Ring(t, true)
	if got := r.Sibling("Pc00"); got != "Pc10" {
		t.Fatalf("Sibling(Pc00) = %q", got)
	}
	if got := r.Sibling("Pc10"); got != "Pc00" {
		t.Fatalf("Sibling(Pc10) = %q", got)
	}
	if got := r.Sibling("nope"); got != "" {
		t.Fatalf("Sibling(nope) = %q", got)
	}
	solo, _ := New(Config{IntraGen: 4}, []Member{{"only", 1}})
	if got := solo.Sibling("only"); got != "" {
		t.Fatalf("Sibling on single-point ring = %q", got)
	}
}

func TestMembersOrder(t *testing.T) {
	r := newFigure2Ring(t, true)
	got := r.Members()
	if len(got) != 2 || got[0] != "Pc00" || got[1] != "Pc10" {
		t.Fatalf("Members = %v", got)
	}
}

func TestSubRangeHelpers(t *testing.T) {
	s := SubRange{2, 5}
	if !s.Contains(2) || !s.Contains(5) || s.Contains(1) || s.Contains(6) {
		t.Fatal("Contains wrong")
	}
	if s.Len() != 4 {
		t.Fatalf("Len = %d", s.Len())
	}
	if (SubRange{3, 2}).Len() != 0 {
		t.Fatal("inverted range should have length 0")
	}
	if s.String() != "(2,5)" {
		t.Fatalf("String = %q", s.String())
	}
}

// Property: the partition invariant holds under arbitrary interleavings of
// Add, Remove, Record and Rebalance.
func TestChurnPartitionInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	r, err := New(Config{IntraGen: 200, FineGrained: true}, []Member{
		{"seed-a", 1}, {"seed-b", 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	nextID := 0
	for op := 0; op < 400; op++ {
		switch rng.Intn(10) {
		case 0, 1:
			id := "churn-" + string(rune('a'+nextID%26)) + string(rune('0'+nextID/26%10))
			nextID++
			if _, err := r.Add(Member{ID: id, Capability: float64(rng.Intn(3) + 1)}); err != nil {
				// Acceptable only when the range cannot split further.
				if r.Size() < 190 {
					t.Fatalf("op %d: add failed early: %v", op, err)
				}
			}
		case 2:
			members := r.Members()
			if len(members) > 2 {
				if _, err := r.Remove(members[rng.Intn(len(members))]); err != nil {
					t.Fatalf("op %d: remove: %v", op, err)
				}
			}
		case 3:
			r.Rebalance()
		default:
			v := rng.Intn(200)
			if err := r.Record(v, loadstats.Lookup, int64(rng.Intn(10)+1)); err != nil {
				t.Fatalf("op %d: record: %v", op, err)
			}
		}
		checkPartition(t, r)
		// Every IrH value must resolve to a member.
		for _, v := range []int{0, 99, 199} {
			if _, err := r.BeaconFor(v); err != nil {
				t.Fatalf("op %d: BeaconFor(%d): %v", op, v, err)
			}
		}
	}
}

// Concurrent ring access must be safe (run with -race).
func TestConcurrentRingAccess(t *testing.T) {
	r := newFigure2Ring(t, true)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			_ = r.Record(i%10, loadstats.Lookup, 1)
			_, _ = r.BeaconFor(i % 10)
			_ = r.Assignments()
		}
	}()
	for i := 0; i < 50; i++ {
		r.Rebalance()
		_ = r.Loads()
		_ = r.Members()
	}
	<-done
	checkPartition(t, r)
}
