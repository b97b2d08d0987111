package loadstats

import (
	"math"
	"testing"
)

func TestEWRateSteadyStateConvergence(t *testing.T) {
	h := NewHalfLife(10)
	var r EWRate
	// 5 events per unit for a long time should converge to rate ≈ 5.
	for now := int64(0); now < 200; now++ {
		r.Observe(h, now, 5)
	}
	got := r.Rate(h, 199) // measure at the last observation instant
	if math.Abs(got-5) > 0.3 {
		t.Fatalf("steady-state rate = %.3f, want ≈5", got)
	}
}

func TestEWRateDecays(t *testing.T) {
	h := NewHalfLife(10)
	var r EWRate
	r.Observe(h, 0, 100)
	m0 := r.Rate(h, 0)
	m10 := r.Rate(h, 10)
	if math.Abs(m10-m0/2) > 1e-9 {
		t.Fatalf("rate after one half-life = %v, want %v", m10, m0/2)
	}
	m20 := r.Rate(h, 20)
	if math.Abs(m20-m0/4) > 1e-9 {
		t.Fatalf("rate after two half-lives = %v, want %v", m20, m0/4)
	}
}

func TestEWRateNonDecreasingTime(t *testing.T) {
	h := NewHalfLife(5)
	var r EWRate
	r.Observe(h, 10, 1)
	r.Observe(h, 3, 1) // earlier time: treated as now
	var both EWRate
	both.Observe(h, 10, 2)
	if got, want := r.Rate(h, 10), both.Rate(h, 10); math.Abs(got-want) > 1e-9 {
		t.Fatalf("rate = %v, want %v (both observations at time 10)", got, want)
	}
}

func TestEWRateZeroHalfLifeClamped(t *testing.T) {
	h := NewHalfLife(0)
	var r EWRate
	r.Observe(h, 0, 4)
	if got := r.Rate(h, 0); got != 2 {
		t.Fatalf("rate = %v, want 2 (mass 4 at a half-life of 1)", got)
	}
	// Must not panic or produce NaN.
	if v := r.Rate(h, 5); math.IsNaN(v) || math.IsInf(v, 0) {
		t.Fatalf("rate = %v", v)
	}
}

func TestEWRateIdleGoesToZero(t *testing.T) {
	h := NewHalfLife(2)
	var r EWRate
	r.Observe(h, 0, 50)
	if got := r.Rate(h, 100); got > 1e-6 {
		t.Fatalf("rate after long idle = %v, want ~0", got)
	}
}

func TestEWRateRelativeOrdering(t *testing.T) {
	h := NewHalfLife(10)
	var hot EWRate
	var cold EWRate
	for now := int64(0); now < 50; now++ {
		hot.Observe(h, now, 10)
		if now%10 == 0 {
			cold.Observe(h, now, 1)
		}
	}
	if hot.Rate(h, 50) <= cold.Rate(h, 50) {
		t.Fatal("hot document must have higher estimated rate than cold")
	}
}
