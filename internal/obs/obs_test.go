package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	var g Gauge
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %g, want 1.5", got)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram([]float64{10, 20, 50, 100})
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	s := h.Snapshot()
	if got := s.Mean(); got != 50.5 {
		t.Fatalf("mean = %g, want 50.5", got)
	}
	// With uniform 1..100 the interpolated quantiles should land near
	// their exact values.
	for _, tc := range []struct{ q, want, tol float64 }{
		{0.50, 50, 6}, {0.95, 95, 6}, {0.99, 99, 3},
	} {
		got := s.Quantile(tc.q)
		if got < tc.want-tc.tol || got > tc.want+tc.tol {
			t.Errorf("p%d = %g, want %g±%g", int(tc.q*100), got, tc.want, tc.tol)
		}
	}
	if NewHistogram(nil).Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile should be 0")
	}
}

// TestHistogramEmpty and the four tests after it are the cases the
// simulator's own histogram was tested on before it became this one.
func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram([]float64{1, 10})
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram not zeroed")
	}
}

func TestHistogramMeanExact(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 5, 10, 20, 35, 50})
	for _, v := range []float64{10, 20, 30} {
		h.Observe(v)
	}
	if got := h.Mean(); got != 20 {
		t.Fatalf("mean = %v, want 20 (exact, not bucketed)", got)
	}
}

func TestHistogramQuantilesOrdered(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 5, 10, 20, 35, 50, 75, 100, 150, 250, 400, 650, 1000, 2000})
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 10000; i++ {
		v := 8 + rng.Float64()*4 // mostly ~10ms, a tail at ~200ms
		if rng.Intn(10) == 0 {
			v = 150 + rng.Float64()*100
		}
		h.Observe(v)
	}
	p50, p90, p99 := h.Quantile(0.5), h.Quantile(0.9), h.Quantile(0.99)
	if !(p50 <= p90 && p90 <= p99) || p50 < 5 || p50 > 20 || p99 < 100 {
		t.Fatalf("p50/p90/p99 = %v/%v/%v, want monotone, p50 ≈ 10, p99 in the tail", p50, p90, p99)
	}
	if h.Quantile(-1) > h.Quantile(2) {
		t.Fatal("clamped quantiles out of order")
	}
}

func TestHistogramUniformQuantileAccuracy(t *testing.T) {
	h := NewHistogram([]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100})
	for v := 1; v <= 100; v++ {
		h.Observe(float64(v))
	}
	p50 := h.Quantile(0.5)
	if p50 < 45 || p50 > 55 {
		t.Fatalf("p50 = %v, want ≈50", p50)
	}
	p90 := h.Quantile(0.9)
	if p90 < 85 || p90 > 95 {
		t.Fatalf("p90 = %v, want ≈90", p90)
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	h := NewHistogram([]float64{10})
	h.Observe(5)
	h.Observe(5000)
	if got := h.Quantile(1); got != 5000 {
		t.Fatalf("max quantile = %v, want 5000", got)
	}
}

func TestRegistryRender(t *testing.T) {
	r := NewRegistry("cachecloud_node", map[string]string{"node": "c0"})
	r.Counter("local_hits_total").Add(7)
	r.Gauge("stored_bytes").Set(1024)
	r.GaugeFunc("ring_count", func() float64 { return 3 })
	h := r.Histogram("request_ms", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(50)

	out := r.Render()
	for _, want := range []string{
		"# TYPE cachecloud_node_local_hits_total counter",
		`cachecloud_node_local_hits_total{node="c0"} 7`,
		"# TYPE cachecloud_node_stored_bytes gauge",
		`cachecloud_node_stored_bytes{node="c0"} 1024`,
		`cachecloud_node_ring_count{node="c0"} 3`,
		"# TYPE cachecloud_node_request_ms histogram",
		`cachecloud_node_request_ms_bucket{node="c0",le="1"} 1`,
		`cachecloud_node_request_ms_bucket{node="c0",le="10"} 2`,
		`cachecloud_node_request_ms_bucket{node="c0",le="+Inf"} 3`,
		`cachecloud_node_request_ms_sum{node="c0"} 55.5`,
		`cachecloud_node_request_ms_count{node="c0"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q\n%s", want, out)
		}
	}
	// Metrics must come out sorted by name.
	iHits := strings.Index(out, "local_hits_total")
	iReq := strings.Index(out, "request_ms")
	iRing := strings.Index(out, "ring_count")
	iBytes := strings.Index(out, "stored_bytes")
	if !(iHits < iReq && iReq < iRing && iRing < iBytes) {
		t.Fatalf("metrics not sorted:\n%s", out)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry("x", nil)
	if r.Counter("a") != r.Counter("a") {
		t.Fatal("Counter not idempotent")
	}
	if r.Histogram("h", []float64{1}) != r.Histogram("h", nil) {
		t.Fatal("Histogram not idempotent")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("cross-kind name reuse should panic")
		}
	}()
	r.Gauge("a")
}

func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry("x", nil)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				r.Counter("c").Inc()
				r.Gauge("g").Set(float64(j))
				r.Histogram("h", []float64{1, 2}).Observe(float64(j % 3))
				_ = r.Render()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 8*500 {
		t.Fatalf("counter = %d, want %d", got, 8*500)
	}
	if got := r.Histogram("h", nil).Count(); got != 8*500 {
		t.Fatalf("histogram count = %d, want %d", got, 8*500)
	}
}

func TestTracerNilIsSafeAndFree(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer should be disabled")
	}
	tr.Emit(Event{Kind: EvLocalHit})
	tr.SetCycle(3)
	if tr.Count(EvLocalHit) != 0 || tr.Total() != 0 || tr.Snapshot() != nil {
		t.Fatal("nil tracer should record nothing")
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if tr.Enabled() {
			tr.Emit(Event{Kind: EvLocalHit, Node: "c0", URL: "u"})
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled tracer allocates %.1f per emit, want 0", allocs)
	}
}

func TestTracerRingAndCounts(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Emit(Event{Time: int64(i), Kind: EvBeaconLookup})
	}
	tr.Emit(Event{Time: 10, Kind: EvUpdateFanout, Count: 5})
	if got := tr.Total(); got != 11 {
		t.Fatalf("total = %d", got)
	}
	if got := tr.Count(EvBeaconLookup); got != 10 {
		t.Fatalf("beacon lookups = %d", got)
	}
	if got := tr.CountSum(EvUpdateFanout); got != 5 {
		t.Fatalf("fanout sum = %d", got)
	}
	if got := tr.CountSum(EvBeaconLookup); got != 10 {
		t.Fatalf("lookup sum = %d (Count==0 counts as 1)", got)
	}
	snap := tr.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("ring kept %d events, want 4", len(snap))
	}
	// Oldest-first: times 8, 9, 10(fanout) are the tail.
	if snap[len(snap)-1].Kind != EvUpdateFanout || snap[0].Time >= snap[len(snap)-1].Time {
		t.Fatalf("snapshot not oldest-first: %+v", snap)
	}
}

func TestTracerJSONLSink(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(8)
	tr.SetSink(&buf)
	tr.Emit(Event{Time: 1, Kind: EvLocalHit, Node: "c0", URL: "http://e/x"})
	tr.SetCycle(2)
	tr.Emit(Event{Time: 9, Kind: EvRecordMigrated, Count: 12})
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var lines []map[string]any
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		lines = append(lines, m)
	}
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	if lines[0]["kind"] != "local_hit" || lines[0]["node"] != "c0" || lines[0]["url"] != "http://e/x" {
		t.Fatalf("line 0 = %v", lines[0])
	}
	if lines[1]["kind"] != "record_migrated" || lines[1]["cycle"] != float64(2) || lines[1]["n"] != float64(12) {
		t.Fatalf("line 1 = %v", lines[1])
	}
}

func TestEventKindNames(t *testing.T) {
	seen := map[string]bool{}
	for _, k := range EventKinds() {
		name := k.String()
		if name == "" || name == "none" || name == "unknown" {
			t.Fatalf("kind %d has bad name %q", k, name)
		}
		if seen[name] {
			t.Fatalf("duplicate kind name %q", name)
		}
		seen[name] = true
	}
	if len(seen) != 18 {
		t.Fatalf("expected 18 event kinds, got %d", len(seen))
	}
}
