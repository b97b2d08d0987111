// Package obs is the shared observability layer: a concurrency-safe
// metrics registry (counters, gauges, fixed-bucket latency histograms
// with quantile extraction) rendering the Prometheus text exposition
// format, plus a structured protocol-event tracer (tracer.go). Both the
// simulator and the live nodes build on it; the package itself depends
// only on the standard library.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is ready
// to use and all methods are safe for concurrent use.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (callers must keep counters monotonic).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a point-in-time value that can go up and down. The zero value
// is ready to use and all methods are safe for concurrent use.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		v := math.Float64frombits(old) + delta
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a concurrency-safe fixed-boundary histogram for
// latency-like quantities. Construct with NewHistogram.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // ascending upper bounds; implicit +Inf bucket last
	counts []int64
	total  int64
	sum    float64
	minV   float64
	maxV   float64
}

// DefaultLatencyBounds covers 0.05ms .. 2s in roughly geometric steps —
// wide enough for loopback round trips and slow origin fetches alike.
func DefaultLatencyBounds() []float64 {
	return []float64{0.05, 0.1, 0.25, 0.5, 1, 2, 5, 10, 20, 35, 50, 75, 100, 150, 250, 400, 650, 1000, 2000}
}

// NewHistogram builds a histogram over the given ascending upper bounds.
// A final overflow bucket (+Inf) is added automatically.
func NewHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{
		bounds: b,
		counts: make([]int64, len(b)+1),
		minV:   math.Inf(1),
		maxV:   math.Inf(-1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	idx := sort.SearchFloat64s(h.bounds, v)
	h.counts[idx]++
	h.total++
	h.sum += v
	if v < h.minV {
		h.minV = v
	}
	if v > h.maxV {
		h.maxV = v
	}
	h.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.total
}

// Mean returns the exact mean of the current contents.
func (h *Histogram) Mean() float64 { return h.Snapshot().Mean() }

// Quantile estimates the q-th quantile (0..1) from the current contents.
func (h *Histogram) Quantile(q float64) float64 { return h.Snapshot().Quantile(q) }

// HistSnapshot is a point-in-time copy of a histogram, safe to read and
// render without holding any lock.
type HistSnapshot struct {
	Bounds []float64 // ascending upper bounds (exclusive of +Inf)
	Counts []int64   // len(Bounds)+1; last is the overflow bucket
	Count  int64
	Sum    float64
	Min    float64
	Max    float64
}

// Snapshot copies the histogram state.
func (h *Histogram) Snapshot() HistSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistSnapshot{
		Bounds: h.bounds, // immutable after construction
		Counts: make([]int64, len(h.counts)),
		Count:  h.total,
		Sum:    h.sum,
		Min:    h.minV,
		Max:    h.maxV,
	}
	copy(s.Counts, h.counts)
	return s
}

// Mean returns the exact mean of the observations.
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Quantile estimates the q-th quantile (0..1) by linear interpolation
// within the matched bucket. Returns 0 for an empty histogram; the
// overflow bucket reports the maximum observed value.
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(s.Count)
	var cum float64
	for i, c := range s.Counts {
		next := cum + float64(c)
		if next >= target && c > 0 {
			lo := s.Min
			if i > 0 {
				lo = s.Bounds[i-1]
			}
			hi := s.Max
			if i < len(s.Bounds) {
				hi = s.Bounds[i]
			}
			if hi < lo {
				hi = lo
			}
			frac := (target - cum) / float64(c)
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			return lo + frac*(hi-lo)
		}
		cum = next
	}
	return s.Max
}

// Registry is a named collection of metrics sharing a name prefix and a
// fixed label set, rendered together in the Prometheus text format.
// Get-or-create accessors make wiring cheap: the first call registers,
// later calls return the same instance. All methods are safe for
// concurrent use.
type Registry struct {
	prefix string
	labels string // pre-rendered `k="v",k2="v2"` (no braces), may be ""

	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	gaugeFns map[string]func() float64
	hists    map[string]*Histogram
}

// NewRegistry creates a registry. Every rendered metric is named
// <prefix>_<name> and carries the given labels.
func NewRegistry(prefix string, labels map[string]string) *Registry {
	r := &Registry{
		prefix:   prefix,
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		gaugeFns: make(map[string]func() float64),
		hists:    make(map[string]*Histogram),
	}
	if len(labels) > 0 {
		keys := make([]string, 0, len(labels))
		for k := range labels {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, 0, len(keys))
		for _, k := range keys {
			parts = append(parts, fmt.Sprintf("%s=%q", k, labels[k]))
		}
		r.labels = strings.Join(parts, ",")
	}
	return r
}

// Counter returns the counter registered under name, creating it on
// first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		r.checkFreeLocked(name, "counter")
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		r.checkFreeLocked(name, "gauge")
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// GaugeFunc registers a callback gauge: fn is invoked at render time.
// Use it for values derived from live state (store sizes, map lengths);
// fn must be safe to call from any goroutine and should take whatever
// lock the underlying state needs — the registry holds no lock while
// calling it beyond its own.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.gaugeFns[name]; !ok {
		r.checkFreeLocked(name, "gaugefunc")
	}
	r.gaugeFns[name] = fn
}

// Histogram returns the histogram registered under name, creating it
// over the given bucket bounds on first use (later calls ignore bounds).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		r.checkFreeLocked(name, "histogram")
		h = NewHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// checkFreeLocked panics when a metric name is reused across kinds — a
// programming error that would silently shadow a series otherwise.
func (r *Registry) checkFreeLocked(name, kind string) {
	taken := false
	if kind != "counter" {
		_, ok := r.counters[name]
		taken = taken || ok
	}
	if kind != "gauge" {
		_, ok := r.gauges[name]
		taken = taken || ok
	}
	if kind != "gaugefunc" {
		_, ok := r.gaugeFns[name]
		taken = taken || ok
	}
	if kind != "histogram" {
		_, ok := r.hists[name]
		taken = taken || ok
	}
	if taken {
		panic("obs: metric name registered twice with different kinds: " + name)
	}
}

// Render produces the registry contents in the Prometheus text
// exposition format, metrics sorted by name. It snapshots each metric
// under its own lock and renders outside any shared lock, so it is safe
// to call while the metrics are being updated.
func (r *Registry) Render() string {
	type entry struct {
		name   string
		render func(b *strings.Builder, full, labels string)
	}
	r.mu.Lock()
	entries := make([]entry, 0, len(r.counters)+len(r.gauges)+len(r.gaugeFns)+len(r.hists))
	for name, c := range r.counters {
		c := c
		entries = append(entries, entry{name, func(b *strings.Builder, full, labels string) {
			fmt.Fprintf(b, "# TYPE %s counter\n", full)
			fmt.Fprintf(b, "%s%s %d\n", full, braced(labels), c.Value())
		}})
	}
	for name, g := range r.gauges {
		g := g
		entries = append(entries, entry{name, func(b *strings.Builder, full, labels string) {
			fmt.Fprintf(b, "# TYPE %s gauge\n", full)
			fmt.Fprintf(b, "%s%s %g\n", full, braced(labels), g.Value())
		}})
	}
	for name, fn := range r.gaugeFns {
		fn := fn
		entries = append(entries, entry{name, func(b *strings.Builder, full, labels string) {
			fmt.Fprintf(b, "# TYPE %s gauge\n", full)
			fmt.Fprintf(b, "%s%s %g\n", full, braced(labels), fn())
		}})
	}
	for name, h := range r.hists {
		h := h
		entries = append(entries, entry{name, func(b *strings.Builder, full, labels string) {
			renderHistogram(b, full, labels, h.Snapshot())
		}})
	}
	prefix, labels := r.prefix, r.labels
	r.mu.Unlock()

	sort.Slice(entries, func(i, j int) bool { return entries[i].name < entries[j].name })
	var b strings.Builder
	for _, e := range entries {
		e.render(&b, prefix+"_"+e.name, labels)
	}
	return b.String()
}

// braced wraps a pre-rendered label list in braces, or returns "" for an
// empty list.
func braced(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

// renderHistogram writes one histogram in the Prometheus format:
// cumulative _bucket{le=...} series, then _sum and _count.
func renderHistogram(b *strings.Builder, full, labels string, s HistSnapshot) {
	fmt.Fprintf(b, "# TYPE %s histogram\n", full)
	var cum int64
	for i, bound := range s.Bounds {
		cum += s.Counts[i]
		fmt.Fprintf(b, "%s_bucket%s %d\n", full, braced(joinLabels(labels, fmt.Sprintf("le=%q", formatBound(bound)))), cum)
	}
	cum += s.Counts[len(s.Bounds)]
	fmt.Fprintf(b, "%s_bucket%s %d\n", full, braced(joinLabels(labels, `le="+Inf"`)), cum)
	fmt.Fprintf(b, "%s_sum%s %g\n", full, braced(labels), s.Sum)
	fmt.Fprintf(b, "%s_count%s %d\n", full, braced(labels), s.Count)
}

// joinLabels appends extra to a pre-rendered label list.
func joinLabels(labels, extra string) string {
	if labels == "" {
		return extra
	}
	return labels + "," + extra
}

// formatBound renders a bucket bound the way Prometheus expects.
func formatBound(v float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.6f", v), "0"), ".")
}
