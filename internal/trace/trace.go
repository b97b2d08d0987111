// Package trace models the request and update streams that drive the
// evaluation. The paper uses two datasets: a synthetic Zipf-0.9 trace with
// 50,000 unique documents in which both accesses and invalidations follow a
// Zipf distribution, and a proprietary 24-hour trace from the IBM 2000
// Sydney Olympic Games web site. The real trace is not available, so this
// package provides a SydneyLike generator that reproduces its load-bearing
// characteristics (heavy skew, diurnal intensity, drifting hot set, updates
// concentrated by a steeper Zipf on the hot documents, heavy-tailed sizes);
// see DESIGN.md §2 for the substitution rationale.
package trace

import (
	"math"
	"math/rand"
	"sort"
	"strconv"

	"cachecloud/internal/document"
)

// EventKind distinguishes client requests from server-side updates.
type EventKind int

const (
	// Request is a client request arriving at a specific edge cache.
	Request EventKind = iota + 1
	// Update is a document update issued by the origin server.
	Update
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case Request:
		return "request"
	case Update:
		return "update"
	default:
		return "unknown(" + strconv.Itoa(int(k)) + ")"
	}
}

// Event is one trace record. Events are ordered by Time; ties keep
// generation order (updates before requests within a unit, mirroring the
// paper's simulator which reads the update trace continuously).
type Event struct {
	// Time is the simulation time unit (1 unit = 1 trace minute).
	Time int64
	Kind EventKind
	// Cache is the receiving edge cache for requests; empty for updates.
	Cache string
	// URL identifies the document.
	URL string
	// Hash is the document hash of URL, interned at trace-generation or
	// trace-load time so simulation hot paths never recompute MD5 per
	// request. Zero means "not computed"; consumers fall back to
	// document.HashURL (see Trace.EnsureHashes).
	Hash document.Hash
}

// Trace bundles a document catalog with a time-ordered event stream.
type Trace struct {
	// Docs is the catalog of unique documents (sizes included).
	Docs []document.Document
	// Events is the time-ordered stream of requests and updates.
	Events []Event
	// Duration is the number of time units covered.
	Duration int64
}

// NumRequests counts request events.
func (t *Trace) NumRequests() int {
	n := 0
	for _, e := range t.Events {
		if e.Kind == Request {
			n++
		}
	}
	return n
}

// NumUpdates counts update events.
func (t *Trace) NumUpdates() int { return len(t.Events) - t.NumRequests() }

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

// EnsureHashes fills Event.Hash for every event, hashing each distinct URL
// once. Traces produced by the generators or by Read are already hashed;
// call this after assembling a Trace by hand so simulators take the
// hash-once hot path. It mutates the trace and is NOT safe to call
// concurrently with readers of the same Trace — hash before fanning a
// shared trace out to parallel runs.
func (t *Trace) EnsureHashes() {
	var memo map[string]document.Hash
	for i := range t.Events {
		ev := &t.Events[i]
		if ev.Hash != 0 || ev.URL == "" {
			continue
		}
		if memo == nil {
			memo = make(map[string]document.Hash, len(t.Docs))
			for _, d := range t.Docs {
				memo[d.URL] = document.HashURL(d.URL)
			}
		}
		h, ok := memo[ev.URL]
		if !ok {
			h = document.HashURL(ev.URL)
			memo[ev.URL] = h
		}
		ev.Hash = h
	}
}

// Zipf is a sampler for the classical Zipf distribution
// P(rank=i) ∝ 1/i^alpha over ranks 1..n, valid for any alpha >= 0
// (math/rand's Zipf requires alpha > 1, but the paper sweeps 0..0.99).
// It precomputes the CDF and samples by binary search.
type Zipf struct {
	cdf []float64
	rng *rand.Rand
}

// NewZipf builds a sampler over n ranks with exponent alpha, drawing
// randomness from rng.
func NewZipf(rng *rand.Rand, n int, alpha float64) *Zipf {
	if n < 1 {
		n = 1
	}
	if alpha < 0 {
		alpha = 0
	}
	cdf := make([]float64, n)
	var sum float64
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), alpha)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{cdf: cdf, rng: rng}
}

// Sample draws a rank in [0, n) with rank 0 the most popular.
func (z *Zipf) Sample() int {
	u := z.rng.Float64()
	return sort.SearchFloat64s(z.cdf, u)
}

// N returns the number of ranks.
func (z *Zipf) N() int { return len(z.cdf) }

// docURL builds the canonical synthetic document URL for an index.
func docURL(site string, i int) string {
	return "http://" + site + "/doc/" + strconv.Itoa(i)
}

// buildCatalog creates n documents with log-normal-ish sizes (median ~8 KiB,
// heavy tail), deterministic under the seed.
func buildCatalog(rng *rand.Rand, site string, n int) []document.Document {
	docs := make([]document.Document, n)
	for i := range docs {
		// Log-normal: exp(N(9, 1.1)) bytes, clamped to [256B, 4MiB].
		size := int64(math.Exp(rng.NormFloat64()*1.1 + 9))
		if size < 256 {
			size = 256
		}
		if size > 4<<20 {
			size = 4 << 20
		}
		docs[i] = document.Document{URL: docURL(site, i), Size: size, Version: 1}
	}
	return docs
}

// catalogHashes precomputes the document hash of every catalog entry, so
// generators intern hashes into events by index instead of re-hashing URLs
// per event.
func catalogHashes(docs []document.Document) []document.Hash {
	hashes := make([]document.Hash, len(docs))
	for i, d := range docs {
		hashes[i] = document.HashURL(d.URL)
	}
	return hashes
}

// CacheNames returns the canonical cache identifiers used by generated
// traces: cache-00 .. cache-(n-1).
func CacheNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		id := strconv.Itoa(i)
		if i < 10 {
			id = "0" + id
		}
		out[i] = "cache-" + id
	}
	return out
}

// ZipfConfig parameterises the synthetic Zipf dataset (the paper's
// "Zipf-0.9 dataset" uses NumDocs=50000, Alpha=0.9, and Zipf-distributed
// invalidations).
type ZipfConfig struct {
	Seed    int64
	NumDocs int     // unique documents (paper: 50,000)
	Alpha   float64 // Zipf exponent for both accesses and updates
	Caches  int     // number of edge caches receiving requests
	// CacheIDs, when non-empty, overrides Caches with explicit cache
	// names (used to drive multi-cloud edge networks whose caches are not
	// the canonical cache-NN set).
	CacheIDs []string
	Duration int64 // time units
	// ReqPerCache is the number of requests each cache receives per unit.
	ReqPerCache int
	// UpdatesPerUnit is the number of update events per unit.
	UpdatesPerUnit int
}

// withDefaults fills zero fields with the paper's defaults.
func (c ZipfConfig) withDefaults() ZipfConfig {
	if c.NumDocs == 0 {
		c.NumDocs = 50000
	}
	if c.Alpha == 0 {
		c.Alpha = 0.9
	}
	if c.Caches == 0 {
		c.Caches = 10
	}
	if c.Duration == 0 {
		c.Duration = 240
	}
	if c.ReqPerCache == 0 {
		c.ReqPerCache = 60
	}
	if c.UpdatesPerUnit == 0 {
		c.UpdatesPerUnit = 195
	}
	return c
}

// GenerateZipf produces the synthetic Zipf dataset.
func GenerateZipf(cfg ZipfConfig) *Trace {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	docs := buildCatalog(rng, "zipf.example.org", cfg.NumDocs)
	reqZipf := NewZipf(rng, cfg.NumDocs, cfg.Alpha)
	updZipf := NewZipf(rng, cfg.NumDocs, cfg.Alpha)
	caches := cfg.CacheIDs
	if len(caches) == 0 {
		caches = CacheNames(cfg.Caches)
	}

	hashes := catalogHashes(docs)
	events := make([]Event, 0, cfg.Duration*int64(len(caches)*cfg.ReqPerCache+cfg.UpdatesPerUnit))
	for tu := int64(0); tu < cfg.Duration; tu++ {
		for u := 0; u < cfg.UpdatesPerUnit; u++ {
			idx := updZipf.Sample()
			events = append(events, Event{
				Time: tu, Kind: Update, URL: docs[idx].URL, Hash: hashes[idx],
			})
		}
		for _, cache := range caches {
			for r := 0; r < cfg.ReqPerCache; r++ {
				idx := reqZipf.Sample()
				events = append(events, Event{
					Time: tu, Kind: Request, Cache: cache, URL: docs[idx].URL, Hash: hashes[idx],
				})
			}
		}
	}
	return &Trace{Docs: docs, Events: events, Duration: cfg.Duration}
}

// SydneyConfig parameterises the SydneyLike generator that stands in for the
// IBM 2000 Sydney Olympics trace (24 hours, ~51k unique documents).
type SydneyConfig struct {
	Seed    int64
	NumDocs int // paper reports ~51k unique documents; default 51634
	Caches  int
	// CacheIDs, when non-empty, overrides Caches with explicit names.
	CacheIDs []string
	// Duration in time units (minutes); default 1440 (24 hours).
	Duration int64
	// PeakReqPerCache is the per-cache request rate at the diurnal peak.
	PeakReqPerCache int
	// UpdatesPerUnit is the mean update rate; default 195 (the "observed
	// update rate" marked in the paper's Figures 7-9).
	UpdatesPerUnit int
	// HotDriftPeriod is how often (in units) the hot set rotates,
	// modelling event-driven popularity shifts during the games.
	HotDriftPeriod int64
}

func (c SydneyConfig) withDefaults() SydneyConfig {
	if c.NumDocs == 0 {
		c.NumDocs = 51634
	}
	if c.Caches == 0 {
		c.Caches = 10
	}
	if c.Duration == 0 {
		c.Duration = 1440
	}
	if c.PeakReqPerCache == 0 {
		c.PeakReqPerCache = 80
	}
	if c.UpdatesPerUnit == 0 {
		c.UpdatesPerUnit = 195
	}
	if c.HotDriftPeriod == 0 {
		c.HotDriftPeriod = 120
	}
	return c
}

// GenerateSydney produces the SydneyLike dataset.
//
// Characteristics reproduced from published descriptions of the workload:
//   - request popularity ~ Zipf(0.8) with the hot set drifting every
//     HotDriftPeriod units (medal tables and live scoreboards change which
//     pages are hot as events run);
//   - diurnal intensity: sinusoidal day curve with a floor of 30% of peak;
//   - updates sampled with a steeper Zipf(1.0) over the same drifting hot
//     set — live scoreboards are both hot-read and hot-written, while the
//     long tail of pages changes rarely.
func GenerateSydney(cfg SydneyConfig) *Trace {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	docs := buildCatalog(rng, "sydney2000.example.org", cfg.NumDocs)
	reqZipf := NewZipf(rng, cfg.NumDocs, 0.8)
	updZipf := NewZipf(rng, cfg.NumDocs, 1.0)
	caches := cfg.CacheIDs
	if len(caches) == 0 {
		caches = CacheNames(cfg.Caches)
	}

	hashes := catalogHashes(docs)
	total := 0
	for tu := int64(0); tu < cfg.Duration; tu++ {
		total += cfg.UpdatesPerUnit + len(caches)*cfg.unitRequests(tu)
	}
	events := make([]Event, 0, total)
	for tu := int64(0); tu < cfg.Duration; tu++ {
		phase := tu / cfg.HotDriftPeriod
		drift := int(phase) * 997 // co-prime step so hot ranks rotate widely
		reqs := cfg.unitRequests(tu)
		for u := 0; u < cfg.UpdatesPerUnit; u++ {
			idx := (updZipf.Sample() + drift) % cfg.NumDocs
			events = append(events, Event{Time: tu, Kind: Update, URL: docs[idx].URL, Hash: hashes[idx]})
		}
		for _, cache := range caches {
			for r := 0; r < reqs; r++ {
				idx := (reqZipf.Sample() + drift) % cfg.NumDocs
				events = append(events, Event{Time: tu, Kind: Request, Cache: cache, URL: docs[idx].URL, Hash: hashes[idx]})
			}
		}
	}
	return &Trace{Docs: docs, Events: events, Duration: cfg.Duration}
}

// unitRequests is how many requests each cache receives in time unit tu:
// the peak rate scaled by the day curve, at least one.
func (c SydneyConfig) unitRequests(tu int64) int {
	return max(1, int(math.Round(float64(c.PeakReqPerCache)*diurnal(tu, c.Duration))))
}

// diurnal returns the request-intensity multiplier in [0.3, 1.0] for a time
// unit, one full sinusoidal day over the trace duration.
func diurnal(tu, duration int64) float64 {
	if duration <= 0 {
		return 1
	}
	frac := float64(tu) / float64(duration)
	return 0.65 + 0.35*math.Sin(2*math.Pi*frac-math.Pi/2)
}
