package experiments

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"cachecloud/internal/edgenet"
	"cachecloud/internal/placement"
	"cachecloud/internal/sim"
	"cachecloud/internal/trace"
)

// WorkersEnv is the environment variable that overrides the default worker
// count for the parallel experiment engine.
const WorkersEnv = "CACHECLOUD_WORKERS"

// DefaultWorkers returns the worker count used when a Runner is built with
// workers <= 0: the CACHECLOUD_WORKERS environment variable when set to a
// positive integer, otherwise GOMAXPROCS.
func DefaultWorkers() int {
	if s := os.Getenv(WorkersEnv); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return runtime.GOMAXPROCS(0)
}

// Runner executes the independent simulation runs inside an experiment
// across a pool of worker goroutines. Every run is self-contained — its own
// cloud, its own PRNG seeded from the experiment seed — and results are
// collected by task index, so a Runner's output is byte-identical no matter
// how many workers it uses. Traces shared by several grid points are
// generated once and read concurrently.
//
// A Runner is safe for concurrent use; the zero worker count means
// DefaultWorkers.
type Runner struct {
	workers int

	mu     sync.Mutex
	traces map[string]*traceEntry
}

type traceEntry struct {
	once sync.Once
	tr   *trace.Trace
}

// NewRunner builds a Runner with the given worker count (<= 0 means
// DefaultWorkers).
func NewRunner(workers int) *Runner {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	return &Runner{workers: workers, traces: make(map[string]*traceEntry)}
}

// Workers returns the pool size.
func (r *Runner) Workers() int { return r.workers }

// Map runs fn(0) … fn(n-1) on the worker pool and waits for all of them.
// Each index runs exactly once; when several fail, the error with the
// lowest index is returned — the same one a sequential loop would have
// stopped at.
func (r *Runner) Map(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers := r.workers
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			errs[i] = fn(i)
		}
	} else {
		var next atomic.Int64
		next.Store(-1)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1))
					if i >= n {
						return
					}
					errs[i] = fn(i)
				}
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// sharedTrace memoizes trace generation under a key so that grid points
// sharing a workload generate it once; the first caller generates, the rest
// block until it is ready. The returned trace is shared read-only across
// concurrent runs (generators intern document hashes, so no run mutates it).
func (r *Runner) sharedTrace(key string, gen func() *trace.Trace) *trace.Trace {
	r.mu.Lock()
	e, ok := r.traces[key]
	if !ok {
		e = &traceEntry{}
		r.traces[key] = e
	}
	r.mu.Unlock()
	e.once.Do(func() { e.tr = gen() })
	return e.tr
}

func (r *Runner) zipfTrace(seed int64, caches int, alpha float64, updatesPerUnit int, scale float64) *trace.Trace {
	key := fmt.Sprintf("zipf/%d/%d/%g/%d/%g", seed, caches, alpha, updatesPerUnit, scale)
	return r.sharedTrace(key, func() *trace.Trace {
		return zipfTrace(seed, caches, alpha, updatesPerUnit, scale)
	})
}

func (r *Runner) sydneyTrace(seed int64, caches, updatesPerUnit int, scale float64) *trace.Trace {
	key := fmt.Sprintf("sydney/%d/%d/%d/%g", seed, caches, updatesPerUnit, scale)
	return r.sharedTrace(key, func() *trace.Trace {
		return sydneyTrace(seed, caches, updatesPerUnit, scale)
	})
}

// loadBalance runs one static and one dynamic simulation over a trace, in
// parallel when the pool allows.
func (r *Runner) loadBalance(dataset string, tr *trace.Trace, numRings int, seed int64) (*LoadBalance, error) {
	runs := make([]*sim.Result, 2)
	err := r.Map(2, func(i int) error {
		var err error
		switch i {
		case 0:
			runs[0], err = sim.Run(loadBalanceCfg(sim.StaticHashing, 0, tr, seed), tr)
			if err != nil {
				return fmt.Errorf("experiments: static run: %w", err)
			}
		case 1:
			runs[1], err = sim.Run(loadBalanceCfg(sim.DynamicHashing, numRings, tr, seed), tr)
			if err != nil {
				return fmt.Errorf("experiments: dynamic run: %w", err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sd, dd := runs[0].LoadPerUnit(), runs[1].LoadPerUnit()
	return &LoadBalance{
		Dataset:        dataset,
		StaticLoads:    sd.Sorted(),
		DynamicLoads:   dd.Sorted(),
		StaticCoV:      sd.CoV(),
		DynamicCoV:     dd.CoV(),
		StaticMaxMean:  sd.MaxToMean(),
		DynamicMaxMean: dd.MaxToMean(),
	}, nil
}

// Figure3 reproduces Figure 3 on this Runner's pool.
func (r *Runner) Figure3(scale float64, seed int64) (*LoadBalance, error) {
	tr := r.zipfTrace(seed, 10, 0.9, 195, scale)
	return r.loadBalance("Zipf-0.9", tr, 5, seed)
}

// Figure4 reproduces Figure 4 on this Runner's pool.
func (r *Runner) Figure4(scale float64, seed int64) (*LoadBalance, error) {
	tr := r.sydneyTrace(seed, 10, 195, scale)
	return r.loadBalance("Sydney", tr, 5, seed)
}

// Figure5 reproduces Figure 5 on this Runner's pool: 3 cloud sizes ×
// (static + 3 ring sizes) = 12 independent runs. Runs for the same cloud
// size share one generated trace.
func (r *Runner) Figure5(scale float64, seed int64) (*RingSize, error) {
	res := &RingSize{
		CloudSizes: []int{10, 20, 50},
		RingSizes:  []int{2, 5, 10},
		StaticCoV:  make(map[int]float64),
		DynamicCoV: make(map[int]map[int]float64),
	}
	type task struct {
		cs, rs int // rs == 0 means static hashing
	}
	var tasks []task
	for _, cs := range res.CloudSizes {
		tasks = append(tasks, task{cs, 0})
		for _, rs := range res.RingSizes {
			tasks = append(tasks, task{cs, rs})
		}
		res.DynamicCoV[cs] = make(map[int]float64)
	}
	covs := make([]float64, len(tasks))
	err := r.Map(len(tasks), func(i int) error {
		t := tasks[i]
		tr := r.sydneyTrace(seed, t.cs, 195, scale)
		if t.rs == 0 {
			static, err := sim.Run(loadBalanceCfg(sim.StaticHashing, 0, tr, seed), tr)
			if err != nil {
				return fmt.Errorf("experiments: fig5 static %d: %w", t.cs, err)
			}
			covs[i] = static.LoadPerUnit().CoV()
			return nil
		}
		dynamic, err := sim.Run(loadBalanceCfg(sim.DynamicHashing, t.cs/t.rs, tr, seed), tr)
		if err != nil {
			return fmt.Errorf("experiments: fig5 dynamic %d/%d: %w", t.cs, t.rs, err)
		}
		covs[i] = dynamic.LoadPerUnit().CoV()
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, t := range tasks {
		if t.rs == 0 {
			res.StaticCoV[t.cs] = covs[i]
		} else {
			res.DynamicCoV[t.cs][t.rs] = covs[i]
		}
	}
	return res, nil
}

// Figure6 reproduces Figure 6 on this Runner's pool: 11 Zipf parameters ×
// 2 schemes = 22 independent runs; both schemes at one alpha share a trace.
func (r *Runner) Figure6(scale float64, seed int64) (*ZipfSweep, error) {
	alphas := []float64{0.001, 0.10, 0.20, 0.30, 0.40, 0.50, 0.60, 0.70, 0.80, 0.90, 0.99}
	res := &ZipfSweep{
		Alphas:     alphas,
		StaticCoV:  make([]float64, len(alphas)),
		DynamicCoV: make([]float64, len(alphas)),
	}
	err := r.Map(2*len(alphas), func(i int) error {
		ai, dyn := i/2, i%2 == 1
		a := alphas[ai]
		tr := r.zipfTrace(seed, 10, a, 195, scale)
		if dyn {
			dynamic, err := sim.Run(loadBalanceCfg(sim.DynamicHashing, 5, tr, seed), tr)
			if err != nil {
				return fmt.Errorf("experiments: fig6 dynamic %.2f: %w", a, err)
			}
			res.DynamicCoV[ai] = dynamic.LoadPerUnit().CoV()
			return nil
		}
		static, err := sim.Run(loadBalanceCfg(sim.StaticHashing, 0, tr, seed), tr)
		if err != nil {
			return fmt.Errorf("experiments: fig6 static %.2f: %w", a, err)
		}
		res.StaticCoV[ai] = static.LoadPerUnit().CoV()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// placementSweep runs the three policies across the update-rate axis:
// len(rates) × 3 independent runs; the three policies at one rate share a
// trace. The Utility policy is stateless, so one instance serves all runs.
func (r *Runner) placementSweep(scale float64, seed int64, limitedDisk bool, rates []int) (*PlacementSweep, error) {
	res := &PlacementSweep{
		LimitedDisk: limitedDisk,
		UpdateRates: rates,
		StoredPct:   make(map[string][]float64),
		NetworkMB:   make(map[string][]float64),
	}
	util, err := placement.NewUtility(placement.EqualOn(true, true, true, limitedDisk), 0.5)
	if err != nil {
		return nil, err
	}
	policies := []placement.Policy{placement.AdHoc{}, util, placement.BeaconPoint{}}
	type cell struct{ storedPct, networkMB float64 }
	cells := make([]cell, len(rates)*len(policies))
	err = r.Map(len(cells), func(i int) error {
		rate, pol := rates[i/len(policies)], policies[i%len(policies)]
		tr := r.sydneyTrace(seed, 10, rate, scale)
		cfg := sim.Config{
			Arch: sim.DynamicHashing, NumRings: 5, CycleLength: cycleFor(tr.Duration),
			Policy: pol, Seed: seed,
		}
		if limitedDisk {
			cfg.CapacityFraction = 0.30
		}
		run, err := sim.Run(cfg, tr)
		if err != nil {
			return fmt.Errorf("experiments: sweep %s rate %d: %w", pol.Name(), rate, err)
		}
		cells[i] = cell{run.StoredPctMean(), run.NetworkMBPerUnit()}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, c := range cells {
		name := policies[i%len(policies)].Name()
		res.StoredPct[name] = append(res.StoredPct[name], c.storedPct)
		res.NetworkMB[name] = append(res.NetworkMB[name], c.networkMB)
	}
	return res, nil
}

// Figure7and8 reproduces Figures 7 and 8 on this Runner's pool.
func (r *Runner) Figure7and8(scale float64, seed int64) (*PlacementSweep, error) {
	return r.placementSweep(scale, seed, false, UpdateRates)
}

// Figure9 reproduces Figure 9 on this Runner's pool.
func (r *Runner) Figure9(scale float64, seed int64) (*PlacementSweep, error) {
	return r.placementSweep(scale, seed, true, UpdateRates)
}

// ScaleOutExperiment runs the scale-out sweep on this Runner's pool: one
// independent network build+run per cloud count.
func (r *Runner) ScaleOutExperiment(scale float64, seed int64) (*ScaleOut, error) {
	res := &ScaleOut{CloudCounts: []int{1, 2, 4, 8}}
	n := len(res.CloudCounts)
	res.UpdateMessages = make([]float64, n)
	res.HolderRefreshes = make([]float64, n)
	res.HitRate = make([]float64, n)
	err := r.Map(n, func(i int) error {
		clouds := res.CloudCounts[i]
		memberships := make([][]string, clouds)
		var allIDs []string
		for c := 0; c < clouds; c++ {
			for j := 0; j < 10; j++ {
				id := fmt.Sprintf("edge-%02d-%02d", c, j)
				memberships[c] = append(memberships[c], id)
				allIDs = append(allIDs, id)
			}
		}
		net, err := edgenet.Build(memberships, edgenet.Config{})
		if err != nil {
			return fmt.Errorf("experiments: scaleout build %d: %w", clouds, err)
		}
		tr := trace.GenerateZipf(trace.ZipfConfig{
			Seed: seed, NumDocs: 20000, Alpha: 0.9, CacheIDs: allIDs,
			Duration: scaleDuration(120, scale), ReqPerCache: 20, UpdatesPerUnit: 100,
		})
		run, err := net.Run(tr)
		if err != nil {
			return fmt.Errorf("experiments: scaleout run %d: %w", clouds, err)
		}
		res.UpdateMessages[i] = float64(run.UpdateMessages) / float64(run.Updates)
		res.HolderRefreshes[i] = float64(run.HolderRefreshes) / float64(run.Updates)
		res.HitRate[i] = run.HitRate()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Formatter is the common shape of experiment results: anything Result
// returns can render itself as the figure's text tables.
type Formatter interface {
	Format(w io.Writer)
}

// Result executes an experiment by figure name ("fig3" … "fig9", plus the
// extension experiments) on this Runner's pool and returns its result.
// Figures 7 and 8 share a sweep. The concrete types behind the Formatter
// have exported fields, so results can also be JSON-marshalled.
func (r *Runner) Result(name string, scale float64, seed int64) (Formatter, error) {
	switch name {
	case "fig3":
		return r.Figure3(scale, seed)
	case "fig4":
		return r.Figure4(scale, seed)
	case "fig5":
		return r.Figure5(scale, seed)
	case "fig6":
		return r.Figure6(scale, seed)
	case "fig7", "fig8":
		return r.Figure7and8(scale, seed)
	case "fig9":
		return r.Figure9(scale, seed)
	case "scaleout":
		return r.ScaleOutExperiment(scale, seed)
	case "latency":
		return r.LatencyExperiment(scale, seed)
	case "capability":
		return r.CapabilityExperiment(scale, seed)
	case "resilience":
		return r.ResilienceExperiment(scale, seed)
	case "crashsweep":
		return r.CrashSweepExperiment(scale, seed)
	case "stormsweep":
		return r.StormSweepExperiment(scale, seed)
	case "restartsweep":
		return r.RestartSweepExperiment(scale, seed)
	case "shieldsweep":
		return r.ShieldSweepExperiment(scale, seed)
	case "tenantsweep":
		return r.TenantSweepExperiment(scale, seed)
	default:
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", name, Names())
	}
}

// Run executes an experiment by name on this Runner's pool and writes its
// formatted output to w.
func (r *Runner) Run(name string, scale float64, seed int64, w io.Writer) error {
	res, err := r.Result(name, scale, seed)
	if err != nil {
		return err
	}
	res.Format(w)
	return nil
}

// Run executes an experiment by figure name ("fig3" … "fig9") and writes
// its formatted output to w, using a default-sized Runner.
func Run(name string, scale float64, seed int64, w io.Writer) error {
	return NewRunner(0).Run(name, scale, seed, w)
}
