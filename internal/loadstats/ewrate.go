package loadstats

import "math"

// HalfLife is the decay of an exponentially weighted estimator: how many
// of the simulator's integer time units halve an observation's weight.
// Estimators of one kind (every per-document monitor of a cache, of a
// beacon) share one immutable HalfLife instead of carrying it each.
type HalfLife struct {
	units float64
	norm  float64 // 1 - 2^(-1/units), fixed per half-life
}

// NewHalfLife returns the decay for a half-life in time units (<= 0: 1).
func NewHalfLife(units float64) HalfLife {
	if units <= 0 {
		units = 1
	}
	return HalfLife{units: units, norm: 1 - math.Exp2(-1/units)}
}

// EWRate is an exponentially weighted event-rate estimator. It is the
// "continued monitoring in the recent time duration" primitive the paper's
// utility-based placement scheme relies on: caches track per-document
// access rates and beacon points track per-document update rates with it.
//
// Observations decay with the HalfLife every call is given (one per
// estimator); Rate converts the decayed mass into an events-per-unit
// estimate. An EWRate is 16 bytes without a pointer, kept by value; the zero
// value has seen nothing. Callers guard it with their own locks.
type EWRate struct {
	mass float64
	last int64
}

// Observe records weight w at time now. Time must be non-decreasing across
// calls; earlier times are treated as now == last.
func (r *EWRate) Observe(h HalfLife, now int64, w float64) {
	r.decayTo(h, now)
	r.mass += w
}

// Rate estimates events (or weight) per time unit at time now. A process
// producing a steady w per unit converges to Rate ≈ w.
func (r *EWRate) Rate(h HalfLife, now int64) float64 {
	r.decayTo(h, now)
	// Steady input of w per unit gives equilibrium mass w / (1 - 2^(-1/h)),
	// so dividing by that geometric sum normalises to per-unit rate. The
	// factor is fixed per half-life and precomputed by NewHalfLife — Rate
	// sits on the beacon lookup hot path.
	return r.mass * h.norm
}

func (r *EWRate) decayTo(h HalfLife, now int64) {
	if now <= r.last {
		return
	}
	dt := float64(now - r.last)
	r.mass *= math.Exp2(-dt / h.units)
	r.last = now
}
