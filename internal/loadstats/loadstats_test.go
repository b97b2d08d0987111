package loadstats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestCounterAggregates(t *testing.T) {
	c := NewCounter(10, true)
	c.Record(3, Lookup, 5)
	c.Record(3, Update, 2)
	c.Record(7, Lookup, 1)
	if got := c.Total(); got != 8 {
		t.Fatalf("Total = %d, want 8", got)
	}
	if got := c.Lookups(); got != 6 {
		t.Fatalf("Lookups = %d, want 6", got)
	}
	if got := c.Updates(); got != 2 {
		t.Fatalf("Updates = %d, want 2", got)
	}
	if got := c.IrHLoad(3); got != 7 {
		t.Fatalf("IrHLoad(3) = %d, want 7", got)
	}
	if got := c.IrHLoad(7); got != 1 {
		t.Fatalf("IrHLoad(7) = %d, want 1", got)
	}
	if got := c.IrHLoad(0); got != 0 {
		t.Fatalf("IrHLoad(0) = %d, want 0", got)
	}
}

func TestCounterCoarse(t *testing.T) {
	c := NewCounter(10, false)
	c.Record(4, Lookup, 3)
	if c.FineGrained() {
		t.Fatal("coarse counter claims fine-grained")
	}
	if got := c.IrHLoad(4); got != 0 {
		t.Fatalf("coarse counter IrHLoad = %d, want 0", got)
	}
	if got := c.Total(); got != 3 {
		t.Fatalf("Total = %d, want 3", got)
	}
}

func TestCounterOutOfRangeIrH(t *testing.T) {
	c := NewCounter(4, true)
	c.Record(-1, Lookup, 2)
	c.Record(99, Update, 2)
	if got := c.Total(); got != 4 {
		t.Fatalf("Total should still count out-of-range records, got %d", got)
	}
	for i := 0; i < 4; i++ {
		if c.IrHLoad(i) != 0 {
			t.Fatalf("IrH %d contaminated by out-of-range record", i)
		}
	}
}

func TestCounterResetAndSnapshot(t *testing.T) {
	c := NewCounter(5, true)
	c.Record(1, Lookup, 10)
	snap := c.Snapshot()
	c.Reset()
	if c.Total() != 0 || c.IrHLoad(1) != 0 {
		t.Fatal("Reset did not clear counter")
	}
	if snap.Total != 10 || snap.PerIrH[1] != 10 {
		t.Fatal("snapshot mutated by Reset")
	}
	// Snapshot must be a deep copy.
	c.Record(1, Lookup, 99)
	if snap.PerIrH[1] != 10 {
		t.Fatal("snapshot shares backing array with counter")
	}
}

func TestDistributionStats(t *testing.T) {
	d := NewDistribution([]float64{500, 300})
	if !almostEqual(d.Mean(), 400) {
		t.Fatalf("Mean = %v, want 400", d.Mean())
	}
	if !almostEqual(d.StdDev(), 100) {
		t.Fatalf("StdDev = %v, want 100", d.StdDev())
	}
	if !almostEqual(d.CoV(), 0.25) {
		t.Fatalf("CoV = %v, want 0.25", d.CoV())
	}
	if !almostEqual(d.MaxToMean(), 1.25) {
		t.Fatalf("MaxToMean = %v, want 1.25", d.MaxToMean())
	}
}

func TestDistributionEmptyAndZero(t *testing.T) {
	var d Distribution
	if d.Mean() != 0 || d.CoV() != 0 || d.MaxToMean() != 0 || d.StdDev() != 0 {
		t.Fatal("empty distribution stats must all be 0")
	}
	z := NewDistribution([]float64{0, 0, 0})
	if z.CoV() != 0 || z.MaxToMean() != 0 {
		t.Fatal("zero-mean distribution must not divide by zero")
	}
}

func TestDistributionSorted(t *testing.T) {
	d := NewDistribution([]float64{3, 9, 1, 7})
	got := d.Sorted()
	want := []float64{9, 7, 3, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Sorted() = %v, want %v", got, want)
		}
	}
	// Original must be untouched.
	if d.Loads[0] != 3 {
		t.Fatal("Sorted mutated the distribution")
	}
}

func TestNewDistributionCopies(t *testing.T) {
	src := []float64{1, 2}
	d := NewDistribution(src)
	src[0] = 99
	if d.Loads[0] != 1 {
		t.Fatal("NewDistribution did not copy input")
	}
}

// Property: CoV is scale-invariant, MaxToMean is scale-invariant, and a
// perfectly uniform distribution has CoV 0 and MaxToMean 1.
func TestDistributionProperties(t *testing.T) {
	scaleInvariant := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(20) + 2
		loads := make([]float64, n)
		for i := range loads {
			loads[i] = rng.Float64()*100 + 1
		}
		d1 := NewDistribution(loads)
		scaled := make([]float64, n)
		for i := range loads {
			scaled[i] = loads[i] * 7.5
		}
		d2 := NewDistribution(scaled)
		return math.Abs(d1.CoV()-d2.CoV()) < 1e-9 &&
			math.Abs(d1.MaxToMean()-d2.MaxToMean()) < 1e-9
	}
	if err := quick.Check(scaleInvariant, nil); err != nil {
		t.Error(err)
	}

	uniform := func(v float64, n uint8) bool {
		if !(v > 0) || v > 1e12 { // clamp: summing huge values overflows float64
			v = 1
		}
		loads := make([]float64, int(n%16)+1)
		for i := range loads {
			loads[i] = v
		}
		d := NewDistribution(loads)
		return almostEqual(d.CoV(), 0) && almostEqual(d.MaxToMean(), 1)
	}
	if err := quick.Check(uniform, nil); err != nil {
		t.Error(err)
	}
}

func TestDistributionStringFormat(t *testing.T) {
	d := NewDistribution([]float64{2, 2})
	if got := d.String(); got != "n=2 mean=2.0 cov=0.000 max/mean=1.00" {
		t.Fatalf("String() = %q", got)
	}
}
