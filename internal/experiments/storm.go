package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"cachecloud/internal/admit"
	"cachecloud/internal/trace"
)

// Storm-model constants: one cache node facing a fixed-capacity origin.
// The origin completes stormOriginRate fetches per tick in FIFO order, so
// driving more fetches in flight only lengthens their latency — exactly
// the shape the adaptive limiter exists to detect.
const (
	stormDocs       = 600 // catalog size
	stormCacheCap   = 100 // cached documents (FIFO replacement)
	stormOriginRate = 3   // origin fetch completions per tick
	stormTickMs     = 10  // one tick of modelled latency, in milliseconds
	stormGateCap    = 64  // admission gate capacity (weight units)
	stormLimitMax   = 12  // limiter ceiling on in-flight origin fetches
)

// StormSweep is the result of the overload storm sweep (robustness
// extension): a deterministic discrete-time miss-storm model driven over
// an arrival-rate × Zipf-skew grid, once with the adaptive AIMD limiter
// and once with a full-throttle fixed limiter. The model steps the real
// admission primitives — internal/admit's Gate, Limiter and the
// coalescing discipline — via their clock-free TryAcquire/Release
// surface, so every cell is reproducible at any worker count.
type StormSweep struct {
	// Ticks is the arrival phase length; each run then drains to
	// quiescence before its books are balanced.
	Ticks int
	Rows  []StormRow
}

// StormRow is one grid cell's outcome.
type StormRow struct {
	Mode    string  // limiter mode: aimd or fixed
	Rate    int     // arrivals per tick
	Alpha   float64 // Zipf skew of document popularity
	Offered int64
	Served  int64
	Shed    int64
	// Coalesced counts requests served by piggybacking on an in-flight
	// fetch for the same document rather than issuing their own.
	Coalesced     int64
	OriginFetches int64
	GoodputPct    float64
	// MeanFetchMs is the mean origin fetch latency (queueing included) —
	// the number the adaptive limiter keeps bounded.
	MeanFetchMs float64
	FinalLimit  int
	// PeakInFlight is the most fetches ever simultaneously in flight at
	// the origin; the limiter ceiling bounds it.
	PeakInFlight int
}

// Format writes the sweep table.
func (s *StormSweep) Format(w io.Writer) {
	fmt.Fprintf(w, "Overload storm sweep (extension): %d-tick miss storms on the live admission primitives\n", s.Ticks)
	fmt.Fprintf(w, "origin serves %d fetches/tick; gate capacity %d; limiter max %d; aimd (adaptive) vs fixed (full throttle)\n",
		stormOriginRate, stormGateCap, stormLimitMax)
	fmt.Fprintf(w, "%-6s %5s %6s %8s %8s %8s %8s %10s %8s %8s %6s %5s\n",
		"mode", "rate", "alpha", "offered", "served", "shed", "goodput",
		"coalesced", "fetches", "mean ms", "limit", "peak")
	for _, r := range s.Rows {
		fmt.Fprintf(w, "%-6s %5d %6.2f %8d %8d %8d %7.1f%% %10d %8d %8.1f %6d %5d\n",
			r.Mode, r.Rate, r.Alpha, r.Offered, r.Served, r.Shed, r.GoodputPct,
			r.Coalesced, r.OriginFetches, r.MeanFetchMs, r.FinalLimit, r.PeakInFlight)
	}
}

// missModel is the discrete-time model behind the storm and restart
// sweeps: one cache node (FIFO replacement) whose misses pass the live
// admission primitives — gate, limiter, coalescing onto the fetch already
// in flight for the document — on their way to a fixed-capacity origin that
// completes originRate fetches per tick in FIFO order.
type missModel struct {
	rng        *rand.Rand
	popular    *trace.Zipf // document popularity, drawn from rng
	gate       *admit.Gate
	lim        *admit.Limiter
	cacheCap   int
	originRate int
	// tick is the modelled latency of one tick, what a completed fetch
	// reports to the limiter per tick spent queued; zero for a model that
	// does not study latency.
	tick time.Duration

	pending map[int]*flight // document -> in-flight fetch
	origin  []*flight       // FIFO queue at the origin
	cached  map[int]bool
	fifo    []int
	missBooks
}

// missBooks is what a missModel counts; a phase that is not measured is
// followed by zeroing them.
type missBooks struct {
	offered, served, shed int64
	hits                  int64 // served straight from the cache
	coalesced             int64 // served by piggybacking on another request's fetch
	fetches               int64
	latSumMs              float64
	peak                  int // most fetches ever queued at the origin at once
}

type flight struct {
	doc     int
	issued  int
	waiters int64
	release func()
}

func newMissModel(seed int64, docs int, alpha float64, cacheCap, originRate int, tick time.Duration, gateCap int, lopts admit.LimiterOptions) *missModel {
	rng := rand.New(rand.NewSource(seed))
	return &missModel{
		rng:        rng,
		popular:    trace.NewZipf(rng, docs, alpha),
		gate:       admit.NewGate(admit.GateOptions{Capacity: gateCap}),
		lim:        admit.NewLimiter(lopts),
		cacheCap:   cacheCap,
		originRate: originRate,
		tick:       tick,
		pending:    make(map[int]*flight),
		cached:     make(map[int]bool),
	}
}

func (m *missModel) insert(doc int) {
	if m.cached[doc] {
		return
	}
	m.cached[doc] = true
	m.fifo = append(m.fifo, doc)
	if len(m.fifo) > m.cacheCap {
		delete(m.cached, m.fifo[0])
		m.fifo = m.fifo[1:]
	}
}

// run steps the model through ticks of fixed-rate arrivals, then drains the
// origin to quiescence.
func (m *missModel) run(rate, ticks int) {
	for now := 0; ; now++ {
		// The origin completes up to its per-tick capacity; a completed
		// fetch serves its whole coalesced group and reports its latency
		// (queueing included) to the limiter.
		for done := 0; len(m.origin) > 0 && done < m.originRate; done++ {
			f := m.origin[0]
			m.origin = m.origin[1:]
			lat := time.Duration(now-f.issued+1) * m.tick
			m.latSumMs += float64(lat) / float64(time.Millisecond)
			m.lim.Release(lat, true)
			f.release()
			delete(m.pending, f.doc)
			m.insert(f.doc)
			m.served += f.waiters
			m.coalesced += f.waiters - 1
			m.fetches++
		}

		if now < ticks {
			for i := 0; i < rate; i++ {
				m.offered++
				doc := m.popular.Sample()
				if m.cached[doc] {
					if rel, ok := m.gate.TryAcquire(admit.Hit); ok {
						rel()
						m.served++
						m.hits++
					} else {
						m.shed++
					}
					continue
				}
				if f, ok := m.pending[doc]; ok {
					f.waiters++ // coalesce onto the in-flight fetch
					continue
				}
				grel, ok := m.gate.TryAcquire(admit.Miss)
				if !ok {
					m.shed++
					continue
				}
				if !m.lim.TryAcquire() {
					grel()
					m.shed++
					continue
				}
				f := &flight{doc: doc, issued: now, waiters: 1, release: grel}
				m.pending[doc] = f
				m.origin = append(m.origin, f)
			}
		}
		if len(m.origin) > m.peak {
			m.peak = len(m.origin)
		}
		if now >= ticks && len(m.origin) == 0 {
			break
		}
	}
}

// check is the model's self-check over the measured phase: every offered
// request was served or shed, and nothing lingers in the pipeline.
func (m *missModel) check(cell string) error {
	if m.served+m.shed != m.offered {
		return fmt.Errorf("experiments: %s: served %d + shed %d != offered %d", cell, m.served, m.shed, m.offered)
	}
	if m.gate.InFlight() != 0 || m.lim.InFlight() != 0 || len(m.pending) != 0 {
		return fmt.Errorf("experiments: %s: not quiescent (gate %d, limiter %d, pending %d)",
			cell, m.gate.InFlight(), m.lim.InFlight(), len(m.pending))
	}
	return nil
}

// goodputPct is the share of offered requests that were served.
func (m *missModel) goodputPct() float64 {
	if m.offered == 0 {
		return 0
	}
	return 100 * float64(m.served) / float64(m.offered)
}

// stormCell runs one grid cell: ticks of Poisson-free fixed-rate arrivals
// against the gate/limiter/coalescing pipeline, then a drain to
// quiescence. The cell self-checks the conservation invariant (every
// offered request is served or shed, nothing lingers) before reporting.
func stormCell(seed int64, mode admit.LimitMode, rate int, alpha float64, ticks int) (StormRow, error) {
	lopts := admit.LimiterOptions{Mode: mode, Max: stormLimitMax}
	if mode == admit.LimitFixed {
		// Full throttle: the naive policy the adaptive law must beat.
		lopts.Initial = stormLimitMax
	}
	m := newMissModel(seed, stormDocs, alpha, stormCacheCap, stormOriginRate, stormTickMs*time.Millisecond, stormGateCap, lopts)
	m.run(rate, ticks)
	row := StormRow{
		Mode: string(mode), Rate: rate, Alpha: alpha,
		Offered: m.offered, Served: m.served, Shed: m.shed,
		Coalesced: m.coalesced, OriginFetches: m.fetches,
		GoodputPct: m.goodputPct(), FinalLimit: m.lim.Limit(), PeakInFlight: m.peak,
	}
	if err := m.check(fmt.Sprintf("stormsweep %s rate=%d alpha=%.2f", mode, rate, alpha)); err != nil {
		return row, err
	}
	if m.fetches > 0 {
		row.MeanFetchMs = m.latSumMs / float64(m.fetches)
	}
	return row, nil
}

// StormSweepExperiment runs the storm grid on this Runner's pool: every
// (mode, rate, alpha) cell is an independent deterministic run collected
// by index, so the sweep is byte-identical at any worker count.
func (r *Runner) StormSweepExperiment(scale float64, seed int64) (*StormSweep, error) {
	ticks := int(scaleDuration(240, scale))
	modes := []admit.LimitMode{admit.LimitAIMD, admit.LimitFixed}
	rates := []int{4, 16, 64}
	alphas := []float64{0.5, 0.9}
	type cell struct {
		mode  admit.LimitMode
		rate  int
		alpha float64
	}
	var cells []cell
	for _, m := range modes {
		for _, rate := range rates {
			for _, a := range alphas {
				cells = append(cells, cell{m, rate, a})
			}
		}
	}
	out := &StormSweep{Ticks: ticks, Rows: make([]StormRow, len(cells))}
	err := r.Map(len(cells), func(i int) error {
		c := cells[i]
		row, err := stormCell(seed+int64(i)*7919, c.mode, c.rate, c.alpha, ticks)
		if err != nil {
			return err
		}
		out.Rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
