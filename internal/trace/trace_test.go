package trace

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"cachecloud/internal/document"
)

func TestZipfSamplerRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	z := NewZipf(rng, 100, 0.9)
	if z.N() != 100 {
		t.Fatalf("N = %d, want 100", z.N())
	}
	for i := 0; i < 10000; i++ {
		s := z.Sample()
		if s < 0 || s >= 100 {
			t.Fatalf("sample %d out of range", s)
		}
	}
}

func TestZipfDegenerateParams(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	z := NewZipf(rng, 0, -1)
	if z.N() != 1 {
		t.Fatalf("N = %d, want 1", z.N())
	}
	if s := z.Sample(); s != 0 {
		t.Fatalf("sample = %d, want 0", s)
	}
}

// With alpha=0 the sampler must be uniform; with large alpha, rank 0 must
// dominate. Also the empirical head mass for alpha=0.9 should match the
// analytic value.
func TestZipfShape(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n, draws = 1000, 200000

	uniform := NewZipf(rng, n, 0)
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[uniform.Sample()]++
	}
	for r, c := range counts {
		if float64(c) > 3*draws/n {
			t.Fatalf("alpha=0 rank %d count %d far above uniform mean %d", r, c, draws/n)
		}
	}

	skewed := NewZipf(rng, n, 0.9)
	head := 0
	for i := 0; i < draws; i++ {
		if skewed.Sample() < 10 {
			head++
		}
	}
	// Analytic: sum_{1..10} i^-0.9 / sum_{1..1000} i^-0.9.
	num, den := 0.0, 0.0
	for i := 1; i <= n; i++ {
		v := 1 / math.Pow(float64(i), 0.9)
		den += v
		if i <= 10 {
			num += v
		}
	}
	want := num / den
	got := float64(head) / draws
	if math.Abs(got-want) > 0.02 {
		t.Fatalf("top-10 mass = %.3f, analytic %.3f", got, want)
	}
}

func TestGenerateZipfDefaults(t *testing.T) {
	tr := GenerateZipf(ZipfConfig{Seed: 1, Duration: 5, NumDocs: 1000, Caches: 4, ReqPerCache: 10, UpdatesPerUnit: 20})
	if len(tr.Docs) != 1000 {
		t.Fatalf("docs = %d", len(tr.Docs))
	}
	if got, want := tr.NumRequests(), 5*4*10; got != want {
		t.Fatalf("requests = %d, want %d", got, want)
	}
	if got, want := tr.NumUpdates(), 5*20; got != want {
		t.Fatalf("updates = %d, want %d", got, want)
	}
	// Events must be time-ordered.
	last := int64(0)
	for _, e := range tr.Events {
		if e.Time < last {
			t.Fatal("events out of order")
		}
		last = e.Time
	}
	// Requests carry a cache, updates don't.
	for _, e := range tr.Events {
		switch e.Kind {
		case Request:
			if e.Cache == "" {
				t.Fatal("request without cache")
			}
		case Update:
			if e.Cache != "" {
				t.Fatal("update with cache")
			}
		}
	}
}

func TestGenerateZipfDeterministic(t *testing.T) {
	cfg := ZipfConfig{Seed: 42, Duration: 3, NumDocs: 100, Caches: 2, ReqPerCache: 5, UpdatesPerUnit: 5}
	a, b := GenerateZipf(cfg), GenerateZipf(cfg)
	if len(a.Events) != len(b.Events) {
		t.Fatal("different event counts for same seed")
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d differs", i)
		}
	}
	c := GenerateZipf(ZipfConfig{Seed: 43, Duration: 3, NumDocs: 100, Caches: 2, ReqPerCache: 5, UpdatesPerUnit: 5})
	same := true
	for i := range a.Events {
		if a.Events[i] != c.Events[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestGenerateZipfSkew(t *testing.T) {
	tr := GenerateZipf(ZipfConfig{Seed: 9, Duration: 20, NumDocs: 5000, Caches: 5, ReqPerCache: 50, UpdatesPerUnit: 50, Alpha: 0.9})
	counts := map[string]int{}
	for _, e := range tr.Events {
		if e.Kind == Request {
			counts[e.URL]++
		}
	}
	// The hottest document should receive far more than the mean.
	maxC := 0
	for _, c := range counts {
		if c > maxC {
			maxC = c
		}
	}
	mean := float64(tr.NumRequests()) / float64(len(counts))
	if float64(maxC) < 20*mean {
		t.Fatalf("trace not skewed: max=%d mean=%.1f", maxC, mean)
	}
}

func TestGenerateSydneyShape(t *testing.T) {
	tr := GenerateSydney(SydneyConfig{Seed: 3, NumDocs: 2000, Caches: 4, Duration: 240, PeakReqPerCache: 20, UpdatesPerUnit: 30, HotDriftPeriod: 60})
	if len(tr.Docs) != 2000 {
		t.Fatalf("docs = %d", len(tr.Docs))
	}
	if tr.Duration != 240 {
		t.Fatalf("duration = %d", tr.Duration)
	}
	if got, want := tr.NumUpdates(), 240*30; got != want {
		t.Fatalf("updates = %d, want %d", got, want)
	}
	// Diurnal: requests in the busiest unit should be well above the
	// quietest unit.
	perUnit := map[int64]int{}
	for _, e := range tr.Events {
		if e.Kind == Request {
			perUnit[e.Time]++
		}
	}
	minC, maxC := 1<<30, 0
	for _, c := range perUnit {
		if c < minC {
			minC = c
		}
		if c > maxC {
			maxC = c
		}
	}
	if float64(maxC) < 2*float64(minC) {
		t.Fatalf("no diurnal variation: min=%d max=%d", minC, maxC)
	}
}

func TestGenerateSydneyHotSetDrifts(t *testing.T) {
	tr := GenerateSydney(SydneyConfig{Seed: 5, NumDocs: 5000, Caches: 2, Duration: 240, PeakReqPerCache: 60, UpdatesPerUnit: 10, HotDriftPeriod: 120})
	top := func(lo, hi int64) string {
		counts := map[string]int{}
		for _, e := range tr.Events {
			if e.Kind == Request && e.Time >= lo && e.Time < hi {
				counts[e.URL]++
			}
		}
		best, bestC := "", 0
		for u, c := range counts {
			if c > bestC {
				best, bestC = u, c
			}
		}
		return best
	}
	if a, b := top(0, 120), top(120, 240); a == b {
		t.Fatalf("hot document did not drift across phases: %s", a)
	}
}

// TestEventsSizedExactly requires each generator, and FilterKind, to
// allocate its events once at the final count, whether CacheIDs names fewer
// caches than the Caches default or many more.
func TestEventsSizedExactly(t *testing.T) {
	for _, n := range []int{6, 160} {
		ids := make([]string, n)
		for i := range ids {
			ids[i] = fmt.Sprintf("edge-%d", i)
		}
		zipf := GenerateZipf(ZipfConfig{Seed: 1, NumDocs: 500, CacheIDs: ids, Duration: 5, ReqPerCache: 3, UpdatesPerUnit: 7})
		sydney := GenerateSydney(SydneyConfig{Seed: 1, NumDocs: 500, CacheIDs: ids, Duration: 50, PeakReqPerCache: 9, UpdatesPerUnit: 7})
		for name, tr := range map[string]*Trace{
			"zipf": zipf, "sydney": sydney,
			"sydney updates": sydney.FilterKind(Update), "sydney requests": sydney.FilterKind(Request),
		} {
			if len(tr.Events) == 0 || cap(tr.Events) != len(tr.Events) {
				t.Errorf("%d caches, %s: %d events in a slice of capacity %d", n, name, len(tr.Events), cap(tr.Events))
			}
		}
		if got, want := len(zipf.Events), 5*(n*3+7); got != want {
			t.Errorf("%d caches: zipf has %d events, want %d", n, got, want)
		}
	}
}

func TestCacheNames(t *testing.T) {
	got := CacheNames(12)
	if got[0] != "cache-00" || got[9] != "cache-09" || got[11] != "cache-11" {
		t.Fatalf("CacheNames = %v", got)
	}
}

func TestDiurnalBounds(t *testing.T) {
	for tu := int64(0); tu < 1440; tu += 7 {
		v := diurnal(tu, 1440)
		if v < 0.29 || v > 1.01 {
			t.Fatalf("diurnal(%d) = %f out of bounds", tu, v)
		}
	}
	if diurnal(0, 0) != 1 {
		t.Fatal("diurnal with zero duration should be 1")
	}
}

func TestEventKindString(t *testing.T) {
	if Request.String() != "request" || Update.String() != "update" {
		t.Fatal("EventKind strings wrong")
	}
	if EventKind(99).String() != "unknown(99)" {
		t.Fatal("unknown kind string wrong")
	}
}

func TestFilterKind(t *testing.T) {
	tr := &Trace{Duration: 4}
	for i := 0; i < 3; i++ {
		tr.Docs = append(tr.Docs, document.Document{URL: "f-" + string(rune('a'+i)), Size: 10})
	}
	for tu := int64(0); tu < tr.Duration; tu++ {
		tr.Events = append(tr.Events,
			Event{Time: tu, Kind: Request, Cache: "c0", URL: tr.Docs[0].URL},
			Event{Time: tu, Kind: Update, URL: tr.Docs[1].URL},
		)
	}
	reqs := tr.FilterKind(Request)
	if len(reqs.Events) != 4 {
		t.Fatalf("requests = %d", len(reqs.Events))
	}
	for _, ev := range reqs.Events {
		if ev.Kind != Request {
			t.Fatal("non-request survived filter")
		}
	}
	if got := tr.FilterKind(Update).NumUpdates(); got != 4 {
		t.Fatalf("updates = %d", got)
	}
}
