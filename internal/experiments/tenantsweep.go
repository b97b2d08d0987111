package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"cachecloud/internal/cache"
	"cachecloud/internal/document"
	"cachecloud/internal/tenant"
	"cachecloud/internal/trace"
)

// Tenant-model constants: one cache node shared by a warm victim tenant
// and an aggressor tenant, in front of a fixed-capacity FIFO origin. The
// victim's working set fits the node and is kept warm; an origin purge
// stream forces periodic refetches, so the victim is exposed to origin
// queueing — exactly the channel a noisy neighbor would use to hurt it.
// The weighted fair share bounds how much of the origin queue the
// aggressor can occupy, and the byte quota bounds its residency, so the
// victim's hit ratio under storm must stay within tenantEpsilonPct of
// its solo baseline.
const (
	tenantVictimDocs = 40      // victim catalog (fits the node, kept warm)
	tenantAggrDocs   = 400     // aggressor catalog (can never fit its quota)
	tenantDocBytes   = 1000    // uniform document size
	tenantCacheBytes = 1 << 20 // node capacity; only the quotas ever bind
	tenantShareCap   = 64      // admission budget the tenant weights divide
	tenantOriginRate = 8       // origin fetch completions per tick
	tenantVictimRate = 8       // victim arrivals per tick
	tenantAggrRate   = 48      // aggressor arrivals per tick (the storm)
	tenantAggrBytes  = 8000    // aggressor resident-byte quota (8 documents)
	tenantAggrAlpha  = 0.6     // aggressor popularity skew (fixed)
	// tenantEpsilonPct is the isolation law: the victim's hit ratio under
	// storm may trail its solo baseline by at most this many points. The
	// bound reflects the fair-share guarantee: the aggressor can occupy
	// at most its share of the origin queue, so a victim refetch is
	// delayed by at most aggrShare/originRate ticks — a few points of
	// coalesced misses on the hottest documents, never a collapse.
	tenantEpsilonPct = 7.5
)

// TenantLaw is one quota configuration of the sweep grid: the victim and
// aggressor admission weights (the byte quota is fixed).
type TenantLaw struct {
	Name         string
	VictimWeight int
	AggrWeight   int
}

// tenantLaws is the quota-law axis: a strongly protected victim, a
// moderately protected one, and the weight-0 degenerate law (the
// aggressor is admitted nothing at all).
func tenantLaws() []TenantLaw {
	return []TenantLaw{
		{Name: "7:1", VictimWeight: 7, AggrWeight: 1},
		{Name: "3:1", VictimWeight: 3, AggrWeight: 1},
		{Name: "1:0", VictimWeight: 1, AggrWeight: 0},
	}
}

// TenantSweep is the result of the multi-tenant noisy-neighbor sweep
// (extension): a deterministic discrete-time model driven over a
// quota-law × Zipf-skew grid, once with the victim alone (solo baseline)
// and once under an aggressor flash crowd. Every cell runs the live
// tenancy primitives — tenant.Registry, the weighted-fair admission
// share, and the cache's tenant-fair byte-quota eviction — and
// self-checks the isolation laws before reporting, so the sweep doubles
// as an invariant gate.
type TenantSweep struct {
	// Ticks is the arrival phase length; each run then drains to
	// quiescence before its books are balanced.
	Ticks int
	Rows  []TenantRow
}

// TenantRow is one grid cell's outcome.
type TenantRow struct {
	Law   string  // victim:aggressor admission weights
	Alpha float64 // Zipf skew of victim document popularity

	// SoloHitPct is the victim's hit ratio with the node to itself;
	// StormHitPct is the same victim request stream under the aggressor
	// flash crowd. DeltaPct = solo − storm, bounded by tenantEpsilonPct.
	SoloHitPct  float64
	StormHitPct float64
	DeltaPct    float64

	// Per-tenant books of the storm run (conservation-checked).
	VictimOffered int64
	VictimServed  int64
	VictimShed    int64
	AggrOffered   int64
	AggrServed    int64
	AggrShed      int64

	// AggrPeakBytes is the most resident bytes the aggressor ever held;
	// its byte quota bounds it at every tick.
	AggrPeakBytes int64
	// OriginFetches counts origin round-trips in the storm run.
	OriginFetches int64
}

// Format writes the sweep table.
func (s *TenantSweep) Format(w io.Writer) {
	fmt.Fprintf(w, "Multi-tenant noisy-neighbor sweep (extension): %d-tick storms on the live tenancy primitives\n", s.Ticks)
	fmt.Fprintf(w, "weighted fair share over %d admission units; aggressor byte quota %dB; isolation epsilon %.1f points\n",
		tenantShareCap, tenantAggrBytes, tenantEpsilonPct)
	fmt.Fprintf(w, "%-5s %5s %6s %6s %6s %7s %7s %6s %7s %7s %7s %7s %7s\n",
		"law", "alpha", "solo", "storm", "delta", "v-off", "v-srv", "v-shed",
		"a-off", "a-srv", "a-shed", "a-peakB", "fetches")
	for _, r := range s.Rows {
		fmt.Fprintf(w, "%-5s %5.2f %5.1f%% %5.1f%% %6.2f %7d %7d %6d %7d %7d %7d %7d %7d\n",
			r.Law, r.Alpha, r.SoloHitPct, r.StormHitPct, r.DeltaPct,
			r.VictimOffered, r.VictimServed, r.VictimShed,
			r.AggrOffered, r.AggrServed, r.AggrShed, r.AggrPeakBytes, r.OriginFetches)
	}
}

// tenantRun is one run's per-tenant books.
type tenantRun struct {
	offered, served, shed, hits map[string]int64
	originFetches               int64
	aggrPeak                    int64
}

func (t *tenantRun) hitPct(id string) float64 {
	if t.offered[id] == 0 {
		return 0
	}
	return 100 * float64(t.hits[id]) / float64(t.offered[id])
}

// tenantCellRun drives one run of a grid cell: the victim's warm working
// set under a deterministic purge/refetch stream, plus — when storm is
// set — the aggressor flash crowd, all against the registry-backed fair
// share and a tenant-quota-enforcing cache. The victim's rng streams are
// independent of the aggressor's, so solo and storm runs see the
// byte-identical victim request sequence; the only variable is the
// neighbor. The run self-checks per-tenant conservation, the byte-quota
// invariant at every tick, and quiescence.
func tenantCellRun(seed int64, law TenantLaw, alpha float64, ticks int, storm bool) (*tenantRun, error) {
	const victim, aggr = "victim", "aggr"
	// Three independent streams: the victim's requests, the aggressor's,
	// and the origin's purges of victim documents.
	victimReqs := trace.NewZipf(rand.New(rand.NewSource(seed*3+1)), tenantVictimDocs, alpha)
	aggrReqs := trace.NewZipf(rand.New(rand.NewSource(seed*5+2)), tenantAggrDocs, tenantAggrAlpha)
	purges := trace.NewZipf(rand.New(rand.NewSource(seed*7+3)), tenantVictimDocs, alpha)

	// Both runs register both tenants: the victim's share must not depend
	// on whether the neighbor happens to be sending traffic.
	reg, err := tenant.NewRegistry(map[string]tenant.Quota{
		victim: {Weight: law.VictimWeight},
		aggr:   {Weight: law.AggrWeight, Bytes: tenantAggrBytes},
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: tenantsweep registry: %w", err)
	}
	fs := tenant.NewFairShare(reg, tenantShareCap)
	c := cache.New("tenant-cell", tenantCacheBytes)
	c.SetTenantQuotas(reg)

	key := func(tid string, rank int) string {
		// Victim and aggressor deliberately share the raw URL space; only
		// the tenant fold keeps their documents apart.
		return tenant.Key(tid, fmt.Sprintf("http://cell/doc/%03d", rank))
	}
	doc := func(tid string, rank int) docFlight {
		return docFlight{tenant: tid, key: key(tid, rank)}
	}
	put := func(k string, now int64) error {
		cp := document.Copy{
			Doc:       document.Document{URL: k, Size: tenantDocBytes, Version: 1},
			FetchedAt: now,
		}
		_, err := c.Put(cp, now)
		return err
	}

	// Warm the victim: the sweep measures isolation of an established
	// working set, not cold-start convergence.
	for rank := 0; rank < tenantVictimDocs; rank++ {
		if err := put(key(victim, rank), 0); err != nil {
			return nil, fmt.Errorf("experiments: tenantsweep warmup: %w", err)
		}
	}

	run := &tenantRun{
		offered: map[string]int64{}, served: map[string]int64{},
		shed: map[string]int64{}, hits: map[string]int64{},
	}
	type flight struct {
		doc     docFlight
		waiters int64
		release func()
	}
	pending := make(map[string]*flight)
	var origin []*flight

	arrive := func(tid string, d docFlight) {
		run.offered[tid]++
		rel, ok := fs.TryAcquire(tid)
		if !ok {
			run.shed[tid]++
			return
		}
		if _, hit := c.Get(d.key, 0); hit {
			rel()
			run.served[tid]++
			run.hits[tid]++
			return
		}
		if f, inflight := pending[d.key]; inflight {
			rel()
			f.waiters++ // coalesce onto the in-flight fetch
			return
		}
		f := &flight{doc: d, waiters: 1, release: rel}
		pending[d.key] = f
		origin = append(origin, f)
	}

	for now := 0; ; now++ {
		// The origin completes up to its per-tick capacity in FIFO order;
		// a completed fetch serves its whole coalesced group. The Put runs
		// the cache's tenant-fair eviction, so an over-quota aggressor
		// reclaims only its own residency.
		for done := 0; len(origin) > 0 && done < tenantOriginRate; done++ {
			f := origin[0]
			origin = origin[1:]
			f.release()
			delete(pending, f.doc.key)
			if err := put(f.doc.key, int64(now)); err != nil {
				return nil, fmt.Errorf("experiments: tenantsweep %s alpha=%.2f: put %s: %w", law.Name, alpha, f.doc.key, err)
			}
			run.served[f.doc.tenant] += f.waiters
			run.originFetches++
		}

		if now < ticks {
			// The origin purges one victim document per tick (an update
			// invalidating the copy); its next request refetches through
			// the shared origin — the victim's exposure to the neighbor.
			c.Remove(key(victim, purges.Sample()))
			for i := 0; i < tenantVictimRate; i++ {
				arrive(victim, doc(victim, victimReqs.Sample()))
			}
			if storm {
				for i := 0; i < tenantAggrRate; i++ {
					arrive(aggr, doc(aggr, aggrReqs.Sample()))
				}
			}
		}

		// The byte-quota invariant holds at every tick, not just at rest.
		if used := c.TenantUsed(aggr); used > tenantAggrBytes {
			return nil, fmt.Errorf("experiments: tenantsweep %s alpha=%.2f: aggressor resident %dB exceeds quota %dB at tick %d",
				law.Name, alpha, used, tenantAggrBytes, now)
		} else if used > run.aggrPeak {
			run.aggrPeak = used
		}
		if now >= ticks && len(origin) == 0 {
			break
		}
	}

	for _, tid := range []string{victim, aggr} {
		if run.served[tid]+run.shed[tid] != run.offered[tid] {
			return nil, fmt.Errorf("experiments: tenantsweep %s alpha=%.2f: tenant %s served %d + shed %d != offered %d",
				law.Name, alpha, tid, run.served[tid], run.shed[tid], run.offered[tid])
		}
		if fs.InFlight(tid) != 0 {
			return nil, fmt.Errorf("experiments: tenantsweep %s alpha=%.2f: tenant %s not quiescent (%d in flight)",
				law.Name, alpha, tid, fs.InFlight(tid))
		}
	}
	if len(pending) != 0 {
		return nil, fmt.Errorf("experiments: tenantsweep %s alpha=%.2f: %d fetches still pending", law.Name, alpha, len(pending))
	}
	return run, nil
}

// docFlight identifies one requested document.
type docFlight struct {
	tenant string
	key    string
}

// tenantCell runs a grid cell's solo baseline and storm run and checks
// the cross-run isolation laws: the victim's hit ratio may trail its
// solo baseline by at most tenantEpsilonPct; a weighted aggressor must
// actually have been shed at its share (otherwise the cell never tested
// the law); a weight-0 aggressor must be served nothing.
func tenantCell(seed int64, law TenantLaw, alpha float64, ticks int) (TenantRow, error) {
	row := TenantRow{Law: law.Name, Alpha: alpha}
	solo, err := tenantCellRun(seed, law, alpha, ticks, false)
	if err != nil {
		return row, err
	}
	storm, err := tenantCellRun(seed, law, alpha, ticks, true)
	if err != nil {
		return row, err
	}
	row.SoloHitPct = solo.hitPct("victim")
	row.StormHitPct = storm.hitPct("victim")
	row.DeltaPct = row.SoloHitPct - row.StormHitPct
	row.VictimOffered = storm.offered["victim"]
	row.VictimServed = storm.served["victim"]
	row.VictimShed = storm.shed["victim"]
	row.AggrOffered = storm.offered["aggr"]
	row.AggrServed = storm.served["aggr"]
	row.AggrShed = storm.shed["aggr"]
	row.AggrPeakBytes = storm.aggrPeak
	row.OriginFetches = storm.originFetches

	if row.DeltaPct > tenantEpsilonPct {
		return row, fmt.Errorf("experiments: tenantsweep %s alpha=%.2f: victim hit ratio fell %.2f points under storm (epsilon %.1f): solo %.2f%%, storm %.2f%%",
			law.Name, alpha, row.DeltaPct, tenantEpsilonPct, row.SoloHitPct, row.StormHitPct)
	}
	if law.AggrWeight == 0 {
		if row.AggrServed != 0 || row.AggrShed != row.AggrOffered {
			return row, fmt.Errorf("experiments: tenantsweep %s alpha=%.2f: weight-0 aggressor was served %d of %d",
				law.Name, alpha, row.AggrServed, row.AggrOffered)
		}
	} else if row.AggrShed == 0 {
		return row, fmt.Errorf("experiments: tenantsweep %s alpha=%.2f: aggressor was never shed at its share — the storm never tested the law",
			law.Name, alpha)
	}
	return row, nil
}

// TenantSweepExperiment runs the noisy-neighbor grid on this Runner's
// pool: every (law, alpha) cell is an independent deterministic
// solo+storm pair collected by index, so the sweep is byte-identical at
// any worker count.
func (r *Runner) TenantSweepExperiment(scale float64, seed int64) (*TenantSweep, error) {
	ticks := int(scaleDuration(240, scale))
	laws := tenantLaws()
	alphas := []float64{0.5, 0.9}
	type cell struct {
		law   TenantLaw
		alpha float64
	}
	var cells []cell
	for _, law := range laws {
		for _, a := range alphas {
			cells = append(cells, cell{law, a})
		}
	}
	out := &TenantSweep{Ticks: ticks, Rows: make([]TenantRow, len(cells))}
	err := r.Map(len(cells), func(i int) error {
		c := cells[i]
		row, err := tenantCell(seed+int64(i)*7919, c.law, c.alpha, ticks)
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
