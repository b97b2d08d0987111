package trace

import (
	"fmt"
	"sort"
)

// Merge combines multiple traces into one time-ordered trace. Catalogs are
// unioned by URL (first occurrence wins); events are merged by time with a
// stable order between equal timestamps. Durations take the maximum.
func Merge(traces ...*Trace) *Trace {
	out := &Trace{}
	seen := make(map[string]struct{})
	for _, t := range traces {
		if t == nil {
			continue
		}
		for _, d := range t.Docs {
			if _, dup := seen[d.URL]; dup {
				continue
			}
			seen[d.URL] = struct{}{}
			out.Docs = append(out.Docs, d)
		}
		out.Events = append(out.Events, t.Events...)
		if t.Duration > out.Duration {
			out.Duration = t.Duration
		}
	}
	sort.SliceStable(out.Events, func(i, j int) bool {
		return out.Events[i].Time < out.Events[j].Time
	})
	return out
}

// Slice returns the sub-trace covering time units [from, to), rebased so
// the first kept unit becomes time 0. The catalog is shared (not copied).
func (t *Trace) Slice(from, to int64) (*Trace, error) {
	if from < 0 || to <= from {
		return nil, fmt.Errorf("trace: invalid slice [%d,%d)", from, to)
	}
	out := &Trace{Docs: t.Docs, Duration: to - from}
	for _, ev := range t.Events {
		if ev.Time < from || ev.Time >= to {
			continue
		}
		ev.Time -= from
		out.Events = append(out.Events, ev)
	}
	return out, nil
}

// FilterKind returns a copy keeping only events of the given kind (the
// catalog is shared).
func (t *Trace) FilterKind(kind EventKind) *Trace {
	n := 0
	for _, ev := range t.Events {
		if ev.Kind == kind {
			n++
		}
	}
	out := &Trace{Docs: t.Docs, Events: make([]Event, 0, n), Duration: t.Duration}
	for _, ev := range t.Events {
		if ev.Kind == kind {
			out.Events = append(out.Events, ev)
		}
	}
	return out
}

// ScaleUpdates returns a copy in which update events are thinned (factor
// < 1) or replicated (integer factor > 1) to reach approximately
// factor × the original update rate, keeping request events untouched.
// Used to re-derive the paper's update-rate sweep from a single base
// trace.
func (t *Trace) ScaleUpdates(factor float64) (*Trace, error) {
	if factor <= 0 {
		return nil, fmt.Errorf("trace: update scale factor %v must be > 0", factor)
	}
	out := &Trace{Docs: t.Docs, Duration: t.Duration}
	whole := int(factor)
	frac := factor - float64(whole)
	acc := 0.0
	for _, ev := range t.Events {
		if ev.Kind != Update {
			out.Events = append(out.Events, ev)
			continue
		}
		for k := 0; k < whole; k++ {
			out.Events = append(out.Events, ev)
		}
		acc += frac
		if acc >= 1 {
			out.Events = append(out.Events, ev)
			acc--
		}
	}
	return out, nil
}
