// Benchmarks regenerating every figure of the paper's evaluation section
// (Figures 3-9) plus ablation benches for the design choices called out in
// DESIGN.md. Each figure bench runs the corresponding experiment definition
// at a reduced scale and reports the figure's headline numbers as custom
// benchmark metrics, so `go test -bench=.` prints the reproduced series
// alongside the usual ns/op.
//
// The full-scale series (scale 1) are produced by `cloudsim -all` and
// recorded in EXPERIMENTS.md.
package cachecloud_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"cachecloud/internal/cache"
	"cachecloud/internal/core"
	"cachecloud/internal/core/seedref"
	"cachecloud/internal/document"
	"cachecloud/internal/experiments"
	"cachecloud/internal/hashing"
	"cachecloud/internal/loadstats"
	"cachecloud/internal/obs"
	"cachecloud/internal/placement"
	"cachecloud/internal/ring"
	"cachecloud/internal/sim"
	"cachecloud/internal/trace"
)

// benchScale keeps each figure bench to a few seconds; the reproduced
// shapes are scale-invariant (see internal/experiments tests).
const benchScale = 0.08

// BenchmarkFig3LoadBalanceZipf regenerates Figure 3: beacon load
// distribution under static vs dynamic hashing on the Zipf-0.9 dataset.
func BenchmarkFig3LoadBalanceZipf(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.NewRunner(0).Figure3(benchScale, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.StaticCoV, "static-CoV")
		b.ReportMetric(r.DynamicCoV, "dynamic-CoV")
		b.ReportMetric(r.StaticMaxMean, "static-max/mean")
		b.ReportMetric(r.DynamicMaxMean, "dynamic-max/mean")
	}
}

// BenchmarkFig4LoadBalanceSydney regenerates Figure 4: the same comparison
// on the Sydney dataset.
func BenchmarkFig4LoadBalanceSydney(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.NewRunner(0).Figure4(benchScale, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.StaticCoV, "static-CoV")
		b.ReportMetric(r.DynamicCoV, "dynamic-CoV")
		b.ReportMetric(r.DynamicMaxMean, "dynamic-max/mean")
	}
}

// BenchmarkFig5RingSize regenerates Figure 5: CoV versus cloud size for
// ring sizes 2, 5 and 10.
func BenchmarkFig5RingSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.NewRunner(0).Figure5(benchScale, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, cs := range r.CloudSizes {
			b.ReportMetric(r.StaticCoV[cs], fmt.Sprintf("static-CoV-%dc", cs))
			for _, rs := range r.RingSizes {
				b.ReportMetric(r.DynamicCoV[cs][rs], fmt.Sprintf("dyn-CoV-%dc-%dppr", cs, rs))
			}
		}
	}
}

// BenchmarkFig6ZipfSweep regenerates Figure 6: CoV versus Zipf parameter.
func BenchmarkFig6ZipfSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.NewRunner(0).Figure6(benchScale, 1)
		if err != nil {
			b.Fatal(err)
		}
		last := len(r.Alphas) - 2 // alpha 0.90
		b.ReportMetric(r.StaticCoV[0], "static-CoV-a0")
		b.ReportMetric(r.StaticCoV[last], "static-CoV-a0.9")
		b.ReportMetric(r.DynamicCoV[0], "dynamic-CoV-a0")
		b.ReportMetric(r.DynamicCoV[last], "dynamic-CoV-a0.9")
	}
}

// BenchmarkFig7StoredPct regenerates Figure 7: percentage of documents
// stored per cache versus update rate (unlimited disk, DsCC off).
func BenchmarkFig7StoredPct(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.NewRunner(0).Figure7and8(benchScale, 1)
		if err != nil {
			b.Fatal(err)
		}
		n := len(r.UpdateRates) - 1
		b.ReportMetric(r.StoredPct["adhoc"][n], "adhoc-pct@1000")
		b.ReportMetric(r.StoredPct["utility"][0], "utility-pct@10")
		b.ReportMetric(r.StoredPct["utility"][n], "utility-pct@1000")
		b.ReportMetric(r.StoredPct["beacon"][n], "beacon-pct@1000")
	}
}

// BenchmarkFig8NetworkLoad regenerates Figure 8: network load versus
// update rate under the three placement schemes (unlimited disk).
func BenchmarkFig8NetworkLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.NewRunner(0).Figure7and8(benchScale, 1)
		if err != nil {
			b.Fatal(err)
		}
		n := len(r.UpdateRates) - 1
		b.ReportMetric(r.NetworkMB["adhoc"][n], "adhoc-MB@1000")
		b.ReportMetric(r.NetworkMB["utility"][n], "utility-MB@1000")
		b.ReportMetric(r.NetworkMB["beacon"][n], "beacon-MB@1000")
		b.ReportMetric(r.NetworkMB["beacon"][0], "beacon-MB@10")
	}
}

// BenchmarkFig9NetworkLoadLimitedDisk regenerates Figure 9: network load
// with per-cache disk limited to 30% of the corpus, LRU replacement and
// the DsCC component turned on.
func BenchmarkFig9NetworkLoadLimitedDisk(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.NewRunner(0).Figure9(benchScale, 1)
		if err != nil {
			b.Fatal(err)
		}
		n := len(r.UpdateRates) - 1
		b.ReportMetric(r.NetworkMB["adhoc"][0], "adhoc-MB@10")
		b.ReportMetric(r.NetworkMB["utility"][0], "utility-MB@10")
		b.ReportMetric(r.NetworkMB["adhoc"][n], "adhoc-MB@1000")
		b.ReportMetric(r.NetworkMB["utility"][n], "utility-MB@1000")
	}
}

// --- ablation benches (design choices, beyond the paper's figures) ---

func ablationTrace() *trace.Trace {
	return trace.GenerateZipf(trace.ZipfConfig{
		Seed: 3, NumDocs: 20000, Alpha: 0.9, Caches: 10,
		Duration: 120, ReqPerCache: 30, UpdatesPerUnit: 100,
	})
}

// BenchmarkAblationLoadInfoGranularity compares the exact (per-IrH CIrHLd)
// and approximate (CAvgLoad) sub-range determination modes — the paper's
// Figure 2-B vs 2-C trade-off at workload scale.
func BenchmarkAblationLoadInfoGranularity(b *testing.B) {
	tr := ablationTrace()
	for i := 0; i < b.N; i++ {
		exact, err := sim.Run(sim.Config{Arch: sim.DynamicHashing, NumRings: 5, CycleLength: 30}, tr)
		if err != nil {
			b.Fatal(err)
		}
		approx, err := sim.Run(sim.Config{
			Arch: sim.DynamicHashing, NumRings: 5, CycleLength: 30, CoarseLoadInfo: true,
		}, tr)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(exact.LoadPerUnit().CoV(), "exact-CoV")
		b.ReportMetric(approx.LoadPerUnit().CoV(), "approx-CoV")
	}
}

// BenchmarkAblationCycleLength sweeps the sub-range determination period.
func BenchmarkAblationCycleLength(b *testing.B) {
	tr := ablationTrace()
	for i := 0; i < b.N; i++ {
		for _, cycle := range []int64{15, 30, 60} {
			r, err := sim.Run(sim.Config{Arch: sim.DynamicHashing, NumRings: 5, CycleLength: cycle}, tr)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(r.LoadPerUnit().CoV(), fmt.Sprintf("CoV-cycle%d", cycle))
			b.ReportMetric(float64(r.RecordsMigrated), fmt.Sprintf("migrations-cycle%d", cycle))
		}
	}
}

// BenchmarkAblationConsistentHashing measures the baseline the paper
// critiques: consistent hashing's beacon-discovery cost, up to O(log N)
// probes, where the dynamic scheme resolves in two steps
// (BenchmarkCloudLookup).
func BenchmarkAblationConsistentHashing(b *testing.B) {
	nodes := trace.CacheNames(50)
	ch := hashing.NewConsistent(nodes, 100)
	urls := make([]string, 4096)
	for i := range urls {
		urls[i] = fmt.Sprintf("http://site/doc/%d", i)
	}
	b.Run("consistent", func(b *testing.B) {
		steps := 0
		for i := 0; i < b.N; i++ {
			u := urls[i%len(urls)]
			if _, err := ch.BeaconFor(u); err != nil {
				b.Fatal(err)
			}
			steps += ch.DiscoverySteps(u)
		}
		b.ReportMetric(float64(steps)/float64(b.N), "discovery-steps")
	})
}

// BenchmarkAblationRecordReplication measures failure resilience: lookup
// records lost on a beacon crash with and without lazy replication.
func BenchmarkAblationRecordReplication(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, replicate := range []bool{false, true} {
			cloud, err := core.New(core.Config{
				NumRings: 5, IntraGen: 1000, FineGrained: true, ReplicateRecords: replicate,
			}, trace.CacheNames(10), nil)
			if err != nil {
				b.Fatal(err)
			}
			for d := 0; d < 2000; d++ {
				url := fmt.Sprintf("http://site/doc/%d", d)
				if _, err := cloud.Lookup(url, 0); err != nil {
					b.Fatal(err)
				}
				if err := cloud.RegisterHolder(url, "cache-01"); err != nil {
					b.Fatal(err)
				}
			}
			cloud.ReplicateRecords()
			if err := cloud.RemoveCache("cache-00", false); err != nil {
				b.Fatal(err)
			}
			st := cloud.Stats()
			label := "lost-norepl"
			if replicate {
				label = "lost-repl"
			}
			b.ReportMetric(float64(st.RecordsLost), label)
		}
	}
}

// BenchmarkParallelSweep measures the parallel experiment engine on the
// Figure 6 sweep (22 independent simulation runs) at 1, 2 and 4 workers.
// The speedup is hardware-dependent — it needs free CPU cores — but the
// results are byte-identical at every worker count (see
// internal/experiments TestParallelMatchesSequential).
func BenchmarkParallelSweep(b *testing.B) {
	const sweepScale = 0.05
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := experiments.NewRunner(workers).Figure6(sweepScale, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- micro-benchmarks on the hot paths ---

func BenchmarkHashURL(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = document.HashURL("http://sydney2000.example.org/doc/123456")
	}
}

func BenchmarkZipfSample(b *testing.B) {
	tr := trace.NewZipf(newRand(), 50000, 0.9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tr.Sample()
	}
}

// BenchmarkCloudLookup measures beacon lookups with populated holder lists
// through both entry points: the string-URL path (hashes the URL and
// defensively copies the holders on every call) and the hash-keyed hot path
// the simulator uses (precomputed hash, alias-returned holders — the
// allocation-free fast path).
func BenchmarkCloudLookup(b *testing.B) {
	cloud, err := core.New(core.Config{NumRings: 5, IntraGen: 1000, FineGrained: true},
		trace.CacheNames(10), nil)
	if err != nil {
		b.Fatal(err)
	}
	urls := make([]string, 1024)
	hashes := make([]document.Hash, len(urls))
	for i := range urls {
		urls[i] = fmt.Sprintf("http://site.example.com/docs/dynamic/page-%04d.html", i)
		hashes[i] = document.HashURL(urls[i])
		for _, id := range trace.CacheNames(10)[:3] {
			if err := cloud.RegisterHolder(urls[i], id); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("url", func(b *testing.B) {
		b.ReportAllocs()
		b.ReportMetric(float64(len(urls)), "docs/op")
		for i := 0; i < b.N; i++ {
			if _, err := cloud.Lookup(urls[i%len(urls)], int64(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hash", func(b *testing.B) {
		b.ReportAllocs()
		b.ReportMetric(float64(len(urls)), "docs/op")
		for i := 0; i < b.N; i++ {
			j := i % len(urls)
			if _, err := cloud.LookupHash(urls[j], hashes[j], int64(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hash-traced", func(b *testing.B) {
		tracer := obs.NewTracer(256)
		cloud.SetTracer(tracer)
		defer cloud.SetTracer(nil)
		b.ReportAllocs()
		b.ReportMetric(float64(len(urls)), "docs/op")
		for i := 0; i < b.N; i++ {
			j := i % len(urls)
			if _, err := cloud.LookupHash(urls[j], hashes[j], int64(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCloudLookupParallel measures aggregate lookup throughput when
// many goroutines hit the sharded core at once — the scaling the epoch
// snapshot design exists for. The sweep pins GOMAXPROCS to 1, 2, 4 and 8;
// on a single-core host the higher points measure oversubscription rather
// than parallel speedup, so read the scaling claim from a multi-core run
// (BENCH_2.json records the core count alongside the numbers).
func BenchmarkCloudLookupParallel(b *testing.B) {
	cloud, urls, hashes, err := sim.BuildParallelReadCloud(sim.ParallelReadConfig{
		NumDocs: 4096, NumCaches: 10, NumRings: 5, HoldersPerDoc: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, procs := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("gomaxprocs=%d", procs), func(b *testing.B) {
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)
			var errs atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				var i int
				for pb.Next() {
					i++
					j := i & 4095
					if _, err := cloud.LookupHash(urls[j], hashes[j], 1); err != nil {
						errs.Add(1)
						return
					}
				}
			})
			if n := errs.Load(); n > 0 {
				b.Fatalf("%d parallel lookups failed", n)
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "lookups/s")
		})
	}
}

// BenchmarkCloudContention runs the identical parallel lookup load against
// the sharded epoch core and the preserved single-mutex seed
// (internal/core/seedref), quantifying what sharding buys under
// contention. The two implementations are sequentially equivalent (see
// internal/core TestEquivalenceRandomOps), so the delta is pure
// synchronization cost.
func BenchmarkCloudContention(b *testing.B) {
	names := trace.CacheNames(10)
	urls := make([]string, 4096)
	hashes := make([]document.Hash, len(urls))
	for i := range urls {
		urls[i] = fmt.Sprintf("http://site.example.com/docs/contend/page-%04d.html", i)
		hashes[i] = document.HashURL(urls[i])
	}
	populate := func(reg func(url string, h document.Hash, id string) error) {
		for i := range urls {
			for _, id := range names[:3] {
				if err := reg(urls[i], hashes[i], id); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	run := func(b *testing.B, lookup func(url string, h document.Hash, now int64) error) {
		var errs atomic.Int64
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			var i int
			for pb.Next() {
				i++
				j := i & 4095
				if err := lookup(urls[j], hashes[j], 1); err != nil {
					errs.Add(1)
					return
				}
			}
		})
		if n := errs.Load(); n > 0 {
			b.Fatalf("%d parallel lookups failed", n)
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "lookups/s")
	}
	b.Run("sharded", func(b *testing.B) {
		cloud, err := core.New(core.Config{NumRings: 5, IntraGen: 1000}, names, nil)
		if err != nil {
			b.Fatal(err)
		}
		populate(cloud.RegisterHolderHash)
		run(b, func(url string, h document.Hash, now int64) error {
			_, err := cloud.LookupHash(url, h, now)
			return err
		})
	})
	b.Run("seed-mutex", func(b *testing.B) {
		cloud, err := seedref.New(seedref.Config{NumRings: 5, IntraGen: 1000}, names, nil)
		if err != nil {
			b.Fatal(err)
		}
		populate(cloud.RegisterHolderHash)
		run(b, func(url string, h document.Hash, now int64) error {
			_, err := cloud.LookupHash(url, h, now)
			return err
		})
	})
}

// TestCloudLookupHashZeroAlloc pins the hot-path guarantee the tracer
// hook must not erode: with no tracer attached, LookupHash performs zero
// heap allocations per call. The tracer integration is a nil check on
// this path; if instrumenting it ever starts allocating (event structs,
// interface boxing), this fails before the benchmarks get slower.
func TestCloudLookupHashZeroAlloc(t *testing.T) {
	cloud, err := core.New(core.Config{NumRings: 5, IntraGen: 1000, FineGrained: true},
		trace.CacheNames(10), nil)
	if err != nil {
		t.Fatal(err)
	}
	url := "http://site.example.com/docs/dynamic/page-0000.html"
	for _, id := range trace.CacheNames(10)[:3] {
		if err := cloud.RegisterHolder(url, id); err != nil {
			t.Fatal(err)
		}
	}
	h := document.HashURL(url)
	var now int64
	allocs := testing.AllocsPerRun(1000, func() {
		now++
		if _, err := cloud.LookupHash(url, h, now); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("LookupHash allocates %.1f per op with tracing disabled, want 0", allocs)
	}
}

// TestCloudLookupServePathZeroAlloc extends the zero-alloc guarantee to
// the whole lookup→serve path the simulator's peer-hit branch walks:
// beacon record resolution (epoch load + ring view search), holder
// selection from the returned list, cache-handle resolution, and the
// holder cache's Get. One cooperative read end to end, zero heap
// allocations.
func TestCloudLookupServePathZeroAlloc(t *testing.T) {
	cloud, err := core.New(core.Config{NumRings: 5, IntraGen: 1000, FineGrained: true},
		trace.CacheNames(10), nil)
	if err != nil {
		t.Fatal(err)
	}
	url := "http://site.example.com/docs/dynamic/page-0000.html"
	h := document.HashURL(url)
	doc := document.Document{URL: url, Size: 4096, Version: 1}
	for _, id := range trace.CacheNames(10)[:3] {
		if err := cloud.RegisterHolderHash(url, h, id); err != nil {
			t.Fatal(err)
		}
		if _, err := cloud.Cache(id).Put(document.Copy{Doc: doc}, 0); err != nil {
			t.Fatal(err)
		}
	}
	var now int64
	allocs := testing.AllocsPerRun(1000, func() {
		now++
		res, err := cloud.LookupHash(url, h, now)
		if err != nil {
			t.Fatal(err)
		}
		holder := res.Holders[int(now)%len(res.Holders)]
		hc := cloud.Cache(holder)
		if hc == nil {
			t.Fatalf("no cache for holder %q", holder)
		}
		cp, ok := hc.Get(url, now)
		if !ok || cp.Doc.URL != url {
			t.Fatalf("holder %q did not serve %q", holder, url)
		}
	})
	if allocs != 0 {
		t.Fatalf("lookup→serve path allocates %.1f per op, want 0", allocs)
	}

	// The fused rates variant is the simulator's actual miss path; it must
	// stay allocation-free too.
	allocs = testing.AllocsPerRun(1000, func() {
		now++
		if _, err := cloud.LookupHashWithRates(url, h, now); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("LookupHashWithRates allocates %.1f per op, want 0", allocs)
	}
}

func BenchmarkCacheGetPut(b *testing.B) {
	c := cache.New("bench", 1<<26)
	docs := make([]document.Document, 512)
	for i := range docs {
		docs[i] = document.Document{URL: fmt.Sprintf("d%d", i), Size: 4096, Version: 1}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := docs[i%len(docs)]
		if _, ok := c.Get(d.URL, int64(i)); !ok {
			if _, err := c.Put(document.Copy{Doc: d}, int64(i)); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchQuotas is a fixed tenant byte-quota table.
type benchQuotas map[string]int64

func (q benchQuotas) ByteQuota(tenant string) int64 { return q[tenant] }

// BenchmarkPutTenantQuotaEvict times a store that evicts one document
// under its tenant's byte quota, beside `resident` documents of an
// uncapped tenant: the capped tenant holds 1% of the bytes. The cost must
// not depend on `resident`.
func BenchmarkPutTenantQuotaEvict(b *testing.B) {
	const docSize = 4096
	for _, resident := range []int{1_000, 10_000, 100_000} {
		for _, kind := range []cache.ReplacementKind{cache.LRU, cache.LFU, cache.GreedyDualSize} {
			b.Run(fmt.Sprintf("resident=%dk/%v", resident/1000, kind), func(b *testing.B) {
				c := cache.NewWithReplacement("bench", 0, kind)
				capped := resident / 100
				c.SetTenantQuotas(benchQuotas{"capped": int64(capped) * docSize})
				put := func(tenant string, i int) int {
					key := document.TenantKey(tenant, fmt.Sprintf("http://bench/d%d", i))
					ev, err := c.Put(document.Copy{Doc: document.Document{URL: key, Size: docSize, Version: 1}}, int64(i))
					if err != nil {
						b.Fatal(err)
					}
					return len(ev)
				}
				for i := 0; i < resident; i++ {
					put("uncapped", i)
				}
				for i := 0; i <= capped; i++ { // the last one builds the sub-order
					put("capped", i)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if put("capped", capped+1+i) != 1 {
						b.Fatal("store did not evict exactly one quota victim")
					}
				}
			})
		}
	}
}

func BenchmarkRingRebalance(b *testing.B) {
	members := make([]ring.Member, 10)
	for i := range members {
		members[i] = ring.Member{ID: trace.CacheNames(10)[i], Capability: 1}
	}
	r, err := ring.New(ring.Config{IntraGen: 1000, FineGrained: true}, members)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for v := 0; v < 1000; v++ {
			load := int64(1)
			if v < 50 {
				load = 40
			}
			if err := r.Record(v, loadstats.Lookup, load); err != nil {
				b.Fatal(err)
			}
		}
		r.Rebalance()
	}
}

// BenchmarkSimulatorThroughput measures end-to-end simulator speed in
// trace events per second.
func BenchmarkSimulatorThroughput(b *testing.B) {
	tr := trace.GenerateZipf(trace.ZipfConfig{
		Seed: 5, NumDocs: 10000, Alpha: 0.9, Caches: 10,
		Duration: 60, ReqPerCache: 30, UpdatesPerUnit: 60,
	})
	events := float64(len(tr.Events))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(sim.Config{Arch: sim.DynamicHashing, NumRings: 5}, tr); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(events*float64(b.N)/b.Elapsed().Seconds(), "events/s")
	b.ReportMetric(float64(len(tr.Docs)), "docs/op")
}

// BenchmarkUtilityEvaluate measures one placement decision.
func BenchmarkUtilityEvaluate(b *testing.B) {
	u, err := placement.NewUtility(placement.EqualOn(true, true, true, true), 0.5)
	if err != nil {
		b.Fatal(err)
	}
	ctx := placement.Context{
		CloudLookupRate: 12, CloudUpdateRate: 3,
		LocalAccessRate: 2, MeanLocalRate: 1.5,
		ReplicaCount: 2, Residence: 120, HolderResidence: 90,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = u.ShouldStore(ctx)
	}
}

// newRand returns a deterministic source for benchmark inputs.
func newRand() *rand.Rand { return rand.New(rand.NewSource(1)) }

// BenchmarkAblationReplacementPolicies compares LRU (the paper's
// limited-disk setting), LFU and GreedyDual-Size under tight disk.
func BenchmarkAblationReplacementPolicies(b *testing.B) {
	tr := ablationTrace()
	for i := 0; i < b.N; i++ {
		for _, kind := range []cache.ReplacementKind{cache.LRU, cache.LFU, cache.GreedyDualSize} {
			r, err := sim.Run(sim.Config{
				Arch: sim.DynamicHashing, NumRings: 5,
				Replacement: kind, CapacityFraction: 0.05, Seed: 1,
			}, tr)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(100*r.LocalHitRate(), kind.String()+"-localhit%")
			b.ReportMetric(r.NetworkMBPerUnit(), kind.String()+"-MB/unit")
		}
	}
}

// BenchmarkAblationTTLConsistency compares the paper's server-driven push
// consistency against the classical TTL baseline of cooperative proxy
// caches: TTL trades staleness for the absence of push traffic.
func BenchmarkAblationTTLConsistency(b *testing.B) {
	tr := ablationTrace()
	for i := 0; i < b.N; i++ {
		push, err := sim.Run(sim.Config{Arch: sim.DynamicHashing, NumRings: 5, Seed: 1}, tr)
		if err != nil {
			b.Fatal(err)
		}
		ttl, err := sim.Run(sim.Config{Arch: sim.DynamicHashing, NumRings: 5, TTL: 30, Seed: 1}, tr)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(push.StaleServes), "push-stale")
		b.ReportMetric(push.NetworkMBPerUnit(), "push-MB/unit")
		b.ReportMetric(float64(ttl.StaleServes), "ttl-stale")
		b.ReportMetric(ttl.NetworkMBPerUnit(), "ttl-MB/unit")
	}
}

// BenchmarkEdgeNetworkScaleOut regenerates the scale-out extension
// experiment (one origin update message per cloud).
func BenchmarkEdgeNetworkScaleOut(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.NewRunner(0).ScaleOutExperiment(benchScale, 1)
		if err != nil {
			b.Fatal(err)
		}
		last := len(r.CloudCounts) - 1
		b.ReportMetric(r.UpdateMessages[last], "msgs/update@8clouds")
		b.ReportMetric(r.HolderRefreshes[last], "refreshes/update@8clouds")
	}
}

// BenchmarkAblationLeaseConsistency compares the three consistency modes:
// the paper's always-push, cooperative leases (related work [8]) and the
// TTL baseline — push volume, traffic, staleness, and client latency.
func BenchmarkAblationLeaseConsistency(b *testing.B) {
	tr := ablationTrace()
	for i := 0; i < b.N; i++ {
		push, err := sim.Run(sim.Config{Arch: sim.DynamicHashing, NumRings: 5, Seed: 1}, tr)
		if err != nil {
			b.Fatal(err)
		}
		lease, err := sim.Run(sim.Config{Arch: sim.DynamicHashing, NumRings: 5, LeaseDuration: 30, Seed: 1}, tr)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(push.HoldersNotified), "push-refreshes")
		b.ReportMetric(float64(lease.HoldersNotified), "lease-refreshes")
		b.ReportMetric(float64(lease.LeaseRenewals), "lease-renewals")
		b.ReportMetric(lease.Latency.Mean(), "lease-mean-ms")
		b.ReportMetric(push.Latency.Mean(), "push-mean-ms")
	}
}

// BenchmarkLatencyByArchitecture reports client latency (the paper's
// bottom-line motivation) for each cooperation architecture on the same
// workload.
func BenchmarkLatencyByArchitecture(b *testing.B) {
	tr := ablationTrace()
	for i := 0; i < b.N; i++ {
		for _, arch := range []sim.Architecture{sim.NoCooperation, sim.StaticHashing, sim.DynamicHashing} {
			r, err := sim.Run(sim.Config{Arch: arch, NumRings: 5, Seed: 1}, tr)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(r.Latency.Mean(), arch.String()+"-mean-ms")
			b.ReportMetric(r.Latency.Quantile(0.95), arch.String()+"-p95-ms")
		}
	}
}
