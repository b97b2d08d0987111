package sim

import (
	"errors"
	"testing"

	"cachecloud/internal/loadstats"
	"cachecloud/internal/placement"
	"cachecloud/internal/trace"
)

func smallZipfTrace(updatesPerUnit int) *trace.Trace {
	return trace.GenerateZipf(trace.ZipfConfig{
		Seed: 17, NumDocs: 2000, Alpha: 0.9, Caches: 10,
		Duration: 120, ReqPerCache: 20, UpdatesPerUnit: updatesPerUnit,
	})
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{}, nil); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("err = %v, want ErrBadConfig", err)
	}
	empty := &trace.Trace{}
	if _, err := Run(Config{}, empty); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("err = %v, want ErrBadConfig", err)
	}
	noReq := trace.GenerateZipf(trace.ZipfConfig{Seed: 1, NumDocs: 10, Caches: 1, Duration: 1, ReqPerCache: 1, UpdatesPerUnit: 1})
	noReq.Events = noReq.Events[:1] // keep only the update
	if _, err := Run(Config{}, noReq); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("err = %v, want ErrBadConfig", err)
	}
	if _, err := Run(Config{Arch: Architecture(99)}, smallZipfTrace(5)); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("err = %v, want ErrBadConfig", err)
	}
}

// With Caches set, a trace whose requests name no cache still runs: the
// cloud is built from the listed caches and processes the updates.
func TestCachesWithoutRequests(t *testing.T) {
	tr := trace.GenerateZipf(trace.ZipfConfig{Seed: 1, NumDocs: 10, Caches: 1, Duration: 1, ReqPerCache: 1, UpdatesPerUnit: 3})
	var updates []trace.Event
	for _, ev := range tr.Events {
		if ev.Kind == trace.Update {
			updates = append(updates, ev)
		}
	}
	tr.Events = updates
	res, err := Run(Config{Caches: []string{"x", "y"}}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 0 || res.Updates != int64(len(updates)) || len(res.BeaconLoads.Loads) != 2 {
		t.Fatalf("requests %d, updates %d (want %d), beacon points %d (want 2)",
			res.Requests, res.Updates, len(updates), len(res.BeaconLoads.Loads))
	}
}

func TestArchitectureString(t *testing.T) {
	if NoCooperation.String() != "no-cooperation" ||
		StaticHashing.String() != "static-hashing" ||
		DynamicHashing.String() != "dynamic-hashing" {
		t.Fatal("architecture names wrong")
	}
	if Architecture(42).String() != "architecture(42)" {
		t.Fatal("unknown architecture name wrong")
	}
}

func TestRunDeterministic(t *testing.T) {
	tr := smallZipfTrace(10)
	cfg := Config{Arch: DynamicHashing, Seed: 5}
	a, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if a.LocalHits != b.LocalHits || a.IntraCloudBytes != b.IntraCloudBytes ||
		a.ServerBytes != b.ServerBytes || a.GroupMisses != b.GroupMisses {
		t.Fatalf("nondeterministic run: %+v vs %+v", a, b)
	}
}

func TestRequestAccounting(t *testing.T) {
	tr := smallZipfTrace(10)
	res, err := Run(Config{Arch: DynamicHashing}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != int64(tr.NumRequests()) {
		t.Fatalf("requests = %d, want %d", res.Requests, tr.NumRequests())
	}
	if res.Updates != int64(tr.NumUpdates()) {
		t.Fatalf("updates = %d, want %d", res.Updates, tr.NumUpdates())
	}
	if res.LocalHits+res.CloudHits+res.GroupMisses != res.Requests {
		t.Fatalf("hit/miss accounting broken: %+v", res)
	}
	if res.LocalHits == 0 || res.CloudHits == 0 || res.GroupMisses == 0 {
		t.Fatalf("degenerate outcome mix: %+v", res)
	}
	if res.CloudHitRate() <= res.LocalHitRate() {
		t.Fatal("cloud hit rate must dominate local hit rate")
	}
}

func TestNoCooperationNeverUsesCloud(t *testing.T) {
	res, err := Run(Config{Arch: NoCooperation}, smallZipfTrace(10))
	if err != nil {
		t.Fatal(err)
	}
	if res.CloudHits != 0 {
		t.Fatalf("no-cooperation run produced cloud hits: %+v", res)
	}
	if res.IntraCloudBytes != 0 {
		t.Fatalf("no-cooperation run produced intra-cloud traffic: %d", res.IntraCloudBytes)
	}
	if len(res.BeaconLoads.Loads) != 0 {
		t.Fatal("no-cooperation run has beacon loads")
	}
	if res.GroupMisses == 0 || res.LocalHits == 0 {
		t.Fatalf("unexpected outcome mix: %+v", res)
	}
}

// Cooperation reduces origin load: the cooperative architectures must serve
// strictly fewer group misses than independent caches.
func TestCooperationReducesServerLoad(t *testing.T) {
	tr := smallZipfTrace(10)
	indep, err := Run(Config{Arch: NoCooperation}, tr)
	if err != nil {
		t.Fatal(err)
	}
	coop, err := Run(Config{Arch: DynamicHashing}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if coop.GroupMisses >= indep.GroupMisses {
		t.Fatalf("cooperation did not reduce misses: coop=%d indep=%d",
			coop.GroupMisses, indep.GroupMisses)
	}
}

// The paper's central load-balancing claim (Figures 3 and 4): dynamic
// hashing yields a lower coefficient of variation and a lower
// heaviest-to-mean ratio than static hashing on a skewed workload.
func TestDynamicBeatsStaticLoadBalance(t *testing.T) {
	tr := smallZipfTrace(40)
	static, err := Run(Config{Arch: StaticHashing}, tr)
	if err != nil {
		t.Fatal(err)
	}
	dynamic, err := Run(Config{Arch: DynamicHashing, NumRings: 5}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(static.BeaconLoads.Loads) != 10 || len(dynamic.BeaconLoads.Loads) != 10 {
		t.Fatalf("beacon counts: static=%d dynamic=%d",
			len(static.BeaconLoads.Loads), len(dynamic.BeaconLoads.Loads))
	}
	sc, dc := static.BeaconLoads.CoV(), dynamic.BeaconLoads.CoV()
	if dc >= sc {
		t.Fatalf("dynamic CoV %.3f not better than static %.3f", dc, sc)
	}
	sm, dm := static.BeaconLoads.MaxToMean(), dynamic.BeaconLoads.MaxToMean()
	if dm >= sm {
		t.Fatalf("dynamic max/mean %.3f not better than static %.3f", dm, sm)
	}
}

// Figure 7's placement shapes: ad hoc ≈ everything, beacon ≈ 1/numCaches of
// the requested set, utility in between.
func TestPlacementStoredPercentages(t *testing.T) {
	tr := smallZipfTrace(40)

	adhoc, err := Run(Config{Arch: DynamicHashing, Policy: placement.AdHoc{}}, tr)
	if err != nil {
		t.Fatal(err)
	}
	beacon, err := Run(Config{Arch: DynamicHashing, Policy: placement.BeaconPoint{}}, tr)
	if err != nil {
		t.Fatal(err)
	}
	util, err := newUtilityNoDisk(t)
	if err != nil {
		t.Fatal(err)
	}
	utility, err := Run(Config{Arch: DynamicHashing, Policy: util}, tr)
	if err != nil {
		t.Fatal(err)
	}

	a, b, u := adhoc.StoredPctMean(), beacon.StoredPctMean(), utility.StoredPctMean()
	if !(b < u && u < a) {
		t.Fatalf("stored%%: beacon=%.1f utility=%.1f adhoc=%.1f, want beacon < utility < adhoc", b, u, a)
	}
	// Beacon placement spreads one copy per document over 10 caches, so
	// each cache holds far less than under ad hoc replication.
	if b > a/2 {
		t.Fatalf("beacon placement stores too much: %.1f vs adhoc %.1f", b, a)
	}
}

func newUtilityNoDisk(t *testing.T) (*placement.Utility, error) {
	t.Helper()
	return placement.NewUtility(placement.EqualOn(true, true, true, false), 0.5)
}

// Figure 7's update-rate sensitivity: the utility scheme stores a smaller
// fraction of documents as the update rate grows.
func TestUtilityStoredPctFallsWithUpdateRate(t *testing.T) {
	util, err := newUtilityNoDisk(t)
	if err != nil {
		t.Fatal(err)
	}
	low, err := Run(Config{Arch: DynamicHashing, Policy: util}, smallZipfTrace(5))
	if err != nil {
		t.Fatal(err)
	}
	high, err := Run(Config{Arch: DynamicHashing, Policy: util}, smallZipfTrace(400))
	if err != nil {
		t.Fatal(err)
	}
	if high.StoredPctMean() >= low.StoredPctMean() {
		t.Fatalf("stored%% did not fall with update rate: low=%.1f high=%.1f",
			low.StoredPctMean(), high.StoredPctMean())
	}
}

// Figure 8's headline: utility placement generates less network traffic
// than ad hoc at high update rates.
func TestUtilityBeatsAdHocTrafficAtHighUpdateRate(t *testing.T) {
	tr := smallZipfTrace(400)
	util, err := newUtilityNoDisk(t)
	if err != nil {
		t.Fatal(err)
	}
	utility, err := Run(Config{Arch: DynamicHashing, Policy: util}, tr)
	if err != nil {
		t.Fatal(err)
	}
	adhoc, err := Run(Config{Arch: DynamicHashing, Policy: placement.AdHoc{}}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if utility.NetworkMBPerUnit() >= adhoc.NetworkMBPerUnit() {
		t.Fatalf("utility %.2f MB/unit not below adhoc %.2f MB/unit",
			utility.NetworkMBPerUnit(), adhoc.NetworkMBPerUnit())
	}
}

func TestLimitedDiskRunsAndEvicts(t *testing.T) {
	tr := smallZipfTrace(40)
	util, err := placement.NewUtility(placement.EqualOn(true, true, true, true), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Arch: DynamicHashing, Policy: util, CapacityFraction: 0.05, Seed: 2,
	}, tr)
	if err != nil {
		t.Fatal(err)
	}
	for id, pct := range res.StoredPctPerCache {
		if pct >= 100 {
			t.Fatalf("cache %s claims %.1f%% stored with 5%% disk", id, pct)
		}
	}
	if res.LocalHits == 0 {
		t.Fatal("no local hits under limited disk")
	}
}

func TestRecordsMigratedUnderDynamic(t *testing.T) {
	res, err := Run(Config{Arch: DynamicHashing, NumRings: 5, CycleLength: 30}, smallZipfTrace(40))
	if err != nil {
		t.Fatal(err)
	}
	if res.RecordsMigrated == 0 {
		t.Fatal("dynamic hashing never migrated records on a skewed trace")
	}
	static, err := Run(Config{Arch: StaticHashing, CycleLength: 30}, smallZipfTrace(40))
	if err != nil {
		t.Fatal(err)
	}
	if static.RecordsMigrated != 0 {
		t.Fatalf("static hashing migrated %d records", static.RecordsMigrated)
	}
}

func TestReplicateRecordsPathRuns(t *testing.T) {
	res, err := Run(Config{Arch: DynamicHashing, ReplicateRecords: true, CycleLength: 20}, smallZipfTrace(10))
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests == 0 {
		t.Fatal("empty run")
	}
}

func TestResultHelpers(t *testing.T) {
	r := &Result{}
	if r.NetworkMBPerUnit() != 0 || r.LocalHitRate() != 0 || r.StoredPctMean() != 0 {
		t.Fatal("zero-duration helpers must return 0")
	}
	r2 := &Result{Duration: 2, IntraCloudBytes: 2 << 20, ServerBytes: 1 << 20, ControlBytes: 1 << 20}
	if got := r2.NetworkMBPerUnit(); got != 2 {
		t.Fatalf("NetworkMBPerUnit = %v, want 2", got)
	}
	r3 := &Result{Duration: 10}
	r3.BeaconLoads = loadstats.NewDistribution([]float64{100, 200})
	lp := r3.LoadPerUnit()
	if lp.Loads[0] != 10 || lp.Loads[1] != 20 {
		t.Fatalf("LoadPerUnit = %v", lp.Loads)
	}
}
