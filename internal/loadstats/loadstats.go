// Package loadstats implements the load bookkeeping the paper's sub-range
// determination process consumes: per-IrH-value load counters (the paper's
// CIrHLd), per-beacon-point cycle aggregates (CAvgLoad), and the summary
// statistics used throughout the evaluation section — coefficient of
// variation and the heaviest-load-to-mean ratio.
package loadstats

import (
	"fmt"
	"math"
	"sort"
)

// Kind distinguishes the two load sources the paper counts identically:
// document lookups and update propagations handled by a beacon point.
type Kind int

const (
	// Lookup is a document-lookup request served by a beacon point.
	Lookup Kind = iota + 1
	// Update is an update-propagation message handled by a beacon point.
	Update
)

// Counter accumulates lookup and update load for one beacon point during one
// cycle, optionally at the granularity of individual IrH values (the paper's
// CIrHLd information). The zero value is not ready for use; construct with
// NewCounter.
type Counter struct {
	perIrH  []int64 // nil when fine-grained tracking is disabled
	total   int64
	lookups int64
	updates int64
}

// NewCounter returns a counter covering IrH values in [0, intraGen).
// When fineGrained is false the counter tracks only the aggregate, modelling
// beacon points for which maintaining CIrHLd is too costly (Section 2.3).
func NewCounter(intraGen int, fineGrained bool) *Counter {
	c := &Counter{}
	if fineGrained {
		c.perIrH = make([]int64, intraGen)
	}
	return c
}

// Record adds load units for a single operation on the given IrH value.
func (c *Counter) Record(irh int, kind Kind, units int64) {
	c.total += units
	switch kind {
	case Lookup:
		c.lookups += units
	case Update:
		c.updates += units
	}
	if c.perIrH != nil && irh >= 0 && irh < len(c.perIrH) {
		c.perIrH[irh] += units
	}
}

// Absorb folds externally accumulated cycle load into the counter. The
// sharded cloud's beacon shards count load lock-free while the cycle runs
// and drain their tallies here right before sub-range determination; the
// resulting counter state is identical to having called Record per
// operation. perIrH may be nil (or shorter than the counter's range) when
// the producer tracked only aggregates.
func (c *Counter) Absorb(lookups, updates int64, perIrH []int64) {
	c.lookups += lookups
	c.updates += updates
	c.total += lookups + updates
	if c.perIrH == nil || perIrH == nil {
		return
	}
	n := len(perIrH)
	if n > len(c.perIrH) {
		n = len(c.perIrH)
	}
	for i := 0; i < n; i++ {
		c.perIrH[i] += perIrH[i]
	}
}

// Total returns the cumulative load recorded this cycle.
func (c *Counter) Total() int64 { return c.total }

// Lookups returns the lookup share of the cycle load.
func (c *Counter) Lookups() int64 { return c.lookups }

// Updates returns the update-propagation share of the cycle load.
func (c *Counter) Updates() int64 { return c.updates }

// FineGrained reports whether per-IrH-value counts are available.
func (c *Counter) FineGrained() bool { return c.perIrH != nil }

// IrHLoad returns the load recorded for one IrH value. It returns 0 when
// fine-grained tracking is disabled or the value is out of range.
func (c *Counter) IrHLoad(irh int) int64 {
	if c.perIrH == nil || irh < 0 || irh >= len(c.perIrH) {
		return 0
	}
	return c.perIrH[irh]
}

// Reset clears all counts for the next cycle.
func (c *Counter) Reset() {
	c.total, c.lookups, c.updates = 0, 0, 0
	for i := range c.perIrH {
		c.perIrH[i] = 0
	}
}

// Snapshot captures the counter state so the rebalancer can work on a stable
// view while new load keeps arriving.
func (c *Counter) Snapshot() Snapshot {
	s := Snapshot{Total: c.total, Lookups: c.lookups, Updates: c.updates}
	if c.perIrH != nil {
		s.PerIrH = make([]int64, len(c.perIrH))
		copy(s.PerIrH, c.perIrH)
	}
	return s
}

// Snapshot is an immutable copy of a Counter taken at the end of a cycle.
type Snapshot struct {
	Total   int64
	Lookups int64
	Updates int64
	PerIrH  []int64 // nil when fine-grained tracking was disabled
}

// Distribution summarises a set of per-node loads the way the paper's
// figures do.
type Distribution struct {
	Loads []float64
}

// NewDistribution copies loads into a Distribution.
func NewDistribution(loads []float64) Distribution {
	d := Distribution{Loads: make([]float64, len(loads))}
	copy(d.Loads, loads)
	return d
}

// Mean returns the arithmetic mean load, or 0 for an empty distribution.
func (d Distribution) Mean() float64 {
	if len(d.Loads) == 0 {
		return 0
	}
	var sum float64
	for _, v := range d.Loads {
		sum += v
	}
	return sum / float64(len(d.Loads))
}

// StdDev returns the population standard deviation.
func (d Distribution) StdDev() float64 {
	n := len(d.Loads)
	if n == 0 {
		return 0
	}
	mean := d.Mean()
	var ss float64
	for _, v := range d.Loads {
		dv := v - mean
		ss += dv * dv
	}
	return math.Sqrt(ss / float64(n))
}

// CoV returns the coefficient of variation (stddev / mean), the paper's
// primary load-balancing metric (lower is better). Returns 0 when the mean
// is 0.
func (d Distribution) CoV() float64 {
	mean := d.Mean()
	if mean == 0 {
		return 0
	}
	return d.StdDev() / mean
}

// MaxToMean returns the ratio of the heaviest load to the mean load, the
// secondary metric reported for Figures 3 and 4. Returns 0 when the mean
// is 0.
func (d Distribution) MaxToMean() float64 {
	mean := d.Mean()
	if mean == 0 || len(d.Loads) == 0 {
		return 0
	}
	maxV := d.Loads[0]
	for _, v := range d.Loads[1:] {
		if v > maxV {
			maxV = v
		}
	}
	return maxV / mean
}

// Sorted returns the loads in decreasing order, matching the x-axis ordering
// of the paper's Figures 3 and 4 ("beacon points in decreasing load order").
func (d Distribution) Sorted() []float64 {
	out := make([]float64, len(d.Loads))
	copy(out, d.Loads)
	sort.Sort(sort.Reverse(sort.Float64Slice(out)))
	return out
}

// String renders a compact summary for logs and experiment output.
func (d Distribution) String() string {
	return fmt.Sprintf("n=%d mean=%.1f cov=%.3f max/mean=%.2f",
		len(d.Loads), d.Mean(), d.CoV(), d.MaxToMean())
}
