package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"cachecloud/internal/shield"
	"cachecloud/internal/trace"
)

// Shield-sweep constants: the workload each grid cell drives through the
// two-tier fabric model.
const (
	shieldDocs        = 40  // catalog size
	shieldAlpha       = 0.9 // Zipf skew of document popularity
	shieldReqPerCloud = 2   // fetch attempts per cloud per tick
	shieldPubPerTick  = 3   // origin publishes per tick
	// shieldEvictP re-fetches an already-held document occasionally,
	// modelling edge-cache evictions without a full replacement policy.
	shieldEvictP = 0.05
)

// ShieldSweep is the result of the two-tier hierarchy sweep (extension):
// the deterministic shield-tier fabric (internal/shield) driven over a
// cloud-count × shield-count grid, with shield count 0 as the single-tier
// baseline. The headline series is origin update messages per publish:
// O(clouds) in the baseline, collapsed to O(shields) behind the tier.
type ShieldSweep struct {
	// Ticks is the workload length of every cell.
	Ticks int
	// CloudCounts and ShieldCounts span the grid (shield count 0 is the
	// single-tier baseline row).
	CloudCounts  []int
	ShieldCounts []int
	Rows         []ShieldRow
}

// ShieldRow is one grid cell's outcome.
type ShieldRow struct {
	Clouds  int
	Shields int // 0 = single-tier baseline
	// Publishes is the number of origin writes driven through the cell.
	Publishes int64
	// OriginUpdates is origin-sent update messages (per shield behind the
	// tier, per holding cloud in the baseline); UpdatesPerPublish is the
	// same normalised per publish — the O(clouds) → O(shields) series.
	OriginUpdates     int64
	UpdatesPerPublish float64
	// ShieldUpdates is shield → cloud fan-out messages (0 in the baseline).
	ShieldUpdates int64
	// OriginFetches counts fetches answered by the origin (shield misses
	// plus, in the baseline, every cloud miss); ShieldHits counts cloud
	// misses absorbed by the shield tier.
	OriginFetches int64
	ShieldHits    int64
	// OriginBytes is total payload bytes the origin served (fetches and
	// updates) — the origin-bandwidth series.
	OriginBytes int64
	// PurgeMessages counts scoped and global purge control messages.
	PurgeMessages int64
}

// Format writes the sweep table plus the per-cloud-count reduction of
// origin update traffic at each shield count.
func (s *ShieldSweep) Format(w io.Writer) {
	fmt.Fprintf(w, "Two-tier shield sweep (extension): %d-tick publish/fetch/purge workloads on the shield-tier fabric\n", s.Ticks)
	fmt.Fprintf(w, "shield count 0 is the single-tier baseline (origin updates every holding cloud directly)\n")
	fmt.Fprintf(w, "%-7s %8s %9s %9s %11s %9s %9s %9s %11s %7s\n",
		"clouds", "shields", "publishes", "orig-upd", "upd/publish", "shld-upd",
		"orig-fet", "shld-hit", "orig-bytes", "purges")
	for _, r := range s.Rows {
		fmt.Fprintf(w, "%-7d %8d %9d %9d %11.2f %9d %9d %9d %11d %7d\n",
			r.Clouds, r.Shields, r.Publishes, r.OriginUpdates, r.UpdatesPerPublish,
			r.ShieldUpdates, r.OriginFetches, r.ShieldHits, r.OriginBytes, r.PurgeMessages)
	}
	base := make(map[int]float64)
	for _, r := range s.Rows {
		if r.Shields == 0 {
			base[r.Clouds] = r.UpdatesPerPublish
		}
	}
	fmt.Fprintln(w, "Origin update-message reduction vs single tier:")
	for _, r := range s.Rows {
		if r.Shields == 0 || base[r.Clouds] == 0 {
			continue
		}
		fmt.Fprintf(w, "  %3d clouds / %d shields: %5.1f%% fewer origin update messages (%.2f -> %.2f per publish)\n",
			r.Clouds, r.Shields, 100*(1-r.UpdatesPerPublish/base[r.Clouds]),
			base[r.Clouds], r.UpdatesPerPublish)
	}
}

// shieldCell drives one deterministic workload through a fabric with the
// given shield count: every tick each cloud attempts its fetches against
// a Zipf-popular catalog, the origin publishes updates, and scoped and
// global purges land periodically. The cell self-checks fan-out
// conservation at every publish and, at the end, that every copy a cloud
// holds is subscribed at its owning shield, which holds it too, before
// reporting.
func shieldCell(seed int64, clouds, shields, ticks int) (ShieldRow, error) {
	tier, err := shield.New(shield.Config{Shields: shields})
	if err != nil {
		return ShieldRow{}, fmt.Errorf("experiments: shieldsweep %d/%d: %w", clouds, shields, err)
	}
	rng := rand.New(rand.NewSource(seed))
	popular := trace.NewZipf(rng, shieldDocs, shieldAlpha)
	row := ShieldRow{Clouds: clouds, Shields: shields}
	url := func(d int) string { return fmt.Sprintf("http://cloud/doc/%03d", d) }
	cloudID := func(c int) string { return fmt.Sprintf("c%02d", c) }

	for tick := 0; tick < ticks; tick++ {
		for c := 0; c < clouds; c++ {
			for i := 0; i < shieldReqPerCloud; i++ {
				u := url(popular.Sample())
				if tier.CloudHolds(u, cloudID(c)) && rng.Float64() >= shieldEvictP {
					continue // edge-cache hit: never enters the fabric
				}
				tier.Fetch(u, cloudID(c))
			}
		}
		for i := 0; i < shieldPubPerTick; i++ {
			rep := tier.Publish(url(popular.Sample()))
			row.Publishes++
			// Conservation: behind the tier every shield fan-out message
			// either refreshed a copy or pruned a dead subscription; in
			// the baseline every origin message refreshed a holding cloud.
			delivered, sent := rep.CloudsRefreshed+rep.SubsPruned, rep.ShieldMessages
			if shields == 0 {
				sent = rep.OriginMessages
			}
			if sent != delivered {
				return row, fmt.Errorf("experiments: shieldsweep %d/%d: fan-out books don't balance: %+v",
					clouds, shields, rep)
			}
		}
		if tick%40 == 20 {
			tier.PurgeGlobal(url(popular.Sample()))
		}
		if tick%25 == 5 {
			tier.PurgeCloud(url(popular.Sample()), cloudID(rng.Intn(clouds)))
		}
	}

	if err := tier.CheckSubscribed(); err != nil {
		return row, fmt.Errorf("experiments: shieldsweep %d/%d: %w", clouds, shields, err)
	}

	ctr := tier.Counters
	row.OriginUpdates = ctr.OriginUpdates
	row.ShieldUpdates = ctr.ShieldUpdates
	row.OriginFetches = ctr.OriginFetches
	row.ShieldHits = ctr.ShieldHits
	row.OriginBytes = ctr.OriginBytes
	row.PurgeMessages = ctr.PurgeMessages
	if row.Publishes > 0 {
		row.UpdatesPerPublish = float64(row.OriginUpdates) / float64(row.Publishes)
	}
	return row, nil
}

// ShieldSweepExperiment runs the two-tier grid on this Runner's pool:
// every (clouds, shields) cell is an independent deterministic run
// collected by index, so the sweep is byte-identical at any worker count.
func (r *Runner) ShieldSweepExperiment(scale float64, seed int64) (*ShieldSweep, error) {
	ticks := int(scaleDuration(120, scale))
	out := &ShieldSweep{
		Ticks:        ticks,
		CloudCounts:  []int{4, 16, 64},
		ShieldCounts: []int{0, 4, 8},
	}
	type cell struct{ clouds, shields int }
	var cells []cell
	for _, cc := range out.CloudCounts {
		for _, sc := range out.ShieldCounts {
			cells = append(cells, cell{cc, sc})
		}
	}
	out.Rows = make([]ShieldRow, len(cells))
	err := r.Map(len(cells), func(i int) error {
		c := cells[i]
		row, err := shieldCell(seed+int64(i)*7919, c.clouds, c.shields, ticks)
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
