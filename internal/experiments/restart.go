package experiments

import (
	"fmt"
	"io"

	"cachecloud/internal/admit"
)

// Restart-model constants: one cache node refilling after a process
// restart, its misses funneled through the admission primitives to a
// fixed-capacity origin (same shape as the storm model, smaller catalog
// so a restart can plausibly recover most of it).
const (
	restartDocs       = 400 // catalog size
	restartCacheCap   = 200 // cached documents (FIFO replacement)
	restartOriginRate = 3   // origin fetch completions per tick
	restartGateCap    = 64  // admission gate capacity (weight units)
	restartLimitMax   = 12  // limiter ceiling on in-flight origin fetches
	restartAlpha      = 0.9 // Zipf skew of document popularity
)

// RestartSweep is the result of the durability extension's restart sweep:
// a deterministic discrete-time model of the post-restart window, run
// once booting cold (memory-only: the cache restarts empty) and once
// booting warm (durable tier: the resident set survives, minus the
// fraction revalidation drops as stale). Both variants face identical
// arrival streams through the live admission primitives — internal/
// admit's Gate, Limiter and the coalescing discipline — so the delta in
// origin fetches is attributable to the durable tier alone.
type RestartSweep struct {
	// WarmupTicks fills the cache before the restart; RecoveryTicks is the
	// measured post-restart window (each drains to quiescence).
	WarmupTicks   int
	RecoveryTicks int
	Rows          []RestartRow
}

// RestartRow is one grid cell's post-restart outcome.
type RestartRow struct {
	Mode     string // cold (memory-only) or warm (durable tier)
	Rate     int    // arrivals per tick
	StalePct int    // % of the resident set revalidation drops as stale
	// Resident is the cache population at the restart; Recovered is what
	// survives the boot (0 for cold, Resident minus the stale drops for
	// warm).
	Resident  int
	Recovered int
	Offered   int64
	Served    int64
	Shed      int64
	// Hits are requests served straight from the recovered (or refilled)
	// cache — the number the durable tier exists to protect.
	Hits          int64
	Coalesced     int64
	OriginFetches int64
	GoodputPct    float64
	HitPct        float64
	// PeakInFlight is the most fetches ever simultaneously queued at the
	// origin during recovery; the restart storm the warm boot avoids.
	PeakInFlight int
}

// Format writes the sweep table.
func (s *RestartSweep) Format(w io.Writer) {
	fmt.Fprintf(w, "Restart sweep (extension): cold vs warm boot over a %d-tick recovery window on the live admission primitives\n", s.RecoveryTicks)
	fmt.Fprintf(w, "catalog %d, cache cap %d, origin serves %d fetches/tick; warm boots keep the resident set minus the stale%%\n",
		restartDocs, restartCacheCap, restartOriginRate)
	fmt.Fprintf(w, "%-5s %5s %6s %9s %10s %8s %8s %6s %8s %10s %8s %8s %5s\n",
		"mode", "rate", "stale", "resident", "recovered", "offered", "served",
		"shed", "hit", "coalesced", "fetches", "goodput", "peak")
	for _, r := range s.Rows {
		fmt.Fprintf(w, "%-5s %5d %5d%% %9d %10d %8d %8d %6d %7.1f%% %10d %8d %7.1f%% %5d\n",
			r.Mode, r.Rate, r.StalePct, r.Resident, r.Recovered, r.Offered, r.Served,
			r.Shed, r.HitPct, r.Coalesced, r.OriginFetches, r.GoodputPct, r.PeakInFlight)
	}
}

// restartCell runs one grid cell on the storm sweep's model (missModel,
// with no modelled fetch latency): a warmup phase fills the cache, the
// process "restarts" (cold: everything lost; warm: the resident set minus
// a stale fraction survives), and the recovery window is measured. The
// cell self-checks conservation over the recovery window before
// reporting.
func restartCell(seed int64, warm bool, stalePct, rate, warmupTicks, recoveryTicks int) (RestartRow, error) {
	m := newMissModel(seed, restartDocs, restartAlpha, restartCacheCap, restartOriginRate, 0, restartGateCap,
		admit.LimiterOptions{Mode: admit.LimitAIMD, Max: restartLimitMax})
	row := RestartRow{Rate: rate, StalePct: stalePct, Mode: "cold"}
	if warm {
		row.Mode = "warm"
	}

	m.run(rate, warmupTicks)
	m.missBooks = missBooks{} // only the recovery window is measured

	// The restart: memory state is gone. A cold boot starts empty; a warm
	// boot recovers the resident set from the durable tier, minus the
	// stale fraction revalidation drops.
	row.Resident = len(m.cached)
	survivors := m.fifo
	m.cached = make(map[int]bool)
	m.fifo = nil
	if warm {
		for _, doc := range survivors {
			if m.rng.Intn(100) < stalePct {
				continue // refreshed while down: revalidation drops it
			}
			m.insert(doc)
		}
	}
	row.Recovered = len(m.cached)

	m.run(rate, recoveryTicks)

	row.Offered, row.Served, row.Shed, row.Hits = m.offered, m.served, m.shed, m.hits
	row.Coalesced, row.OriginFetches, row.PeakInFlight = m.coalesced, m.fetches, m.peak
	if err := m.check(fmt.Sprintf("restartsweep %s rate=%d stale=%d", row.Mode, rate, stalePct)); err != nil {
		return row, err
	}
	row.GoodputPct = m.goodputPct()
	if row.Served > 0 {
		row.HitPct = 100 * float64(row.Hits) / float64(row.Served)
	}
	return row, nil
}

// RestartSweepExperiment runs the restart grid on this Runner's pool:
// every (mode, rate, stale) cell is an independent deterministic run
// collected by index, so the sweep is byte-identical at any worker count.
// Paired cold/warm cells share one seed, so both face the same arrival
// stream.
func (r *Runner) RestartSweepExperiment(scale float64, seed int64) (*RestartSweep, error) {
	warmup := int(scaleDuration(160, scale))
	recovery := int(scaleDuration(160, scale))
	rates := []int{16, 64}
	stales := []int{0, 10, 30}
	type cell struct {
		warm     bool
		rate     int
		stalePct int
	}
	var cells []cell
	for _, warm := range []bool{false, true} {
		for _, rate := range rates {
			for _, st := range stales {
				cells = append(cells, cell{warm, rate, st})
			}
		}
	}
	out := &RestartSweep{WarmupTicks: warmup, RecoveryTicks: recovery, Rows: make([]RestartRow, len(cells))}
	err := r.Map(len(cells), func(i int) error {
		c := cells[i]
		// Pair cold and warm on the same seed: i%(len(rates)*len(stales))
		// identifies the (rate, stale) point independent of mode.
		cellSeed := seed + int64(i%(len(rates)*len(stales)))*7919
		row, err := restartCell(cellSeed, c.warm, c.stalePct, c.rate, warmup, recovery)
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
