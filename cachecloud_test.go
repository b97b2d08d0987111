package cachecloud_test

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"cachecloud"
)

// The facade must expose a workable end-to-end API: this walks the same
// path as examples/quickstart through the public surface only.
func TestFacadeQuickstartPath(t *testing.T) {
	cloud, err := cachecloud.NewCloud(cachecloud.CloudConfig{
		NumRings: 5, IntraGen: 1000, FineGrained: true,
	}, cachecloud.CacheNames(10), nil)
	if err != nil {
		t.Fatal(err)
	}
	docs := []cachecloud.Document{{URL: "http://f/1", Size: 1000}}
	server := cachecloud.NewOriginServer(docs)
	server.AttachCloud(cloud)

	res, err := cloud.Lookup("http://f/1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Holders) != 0 {
		t.Fatal("cold lookup returned holders")
	}
	d, err := server.Fetch("http://f/1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cloud.Cache("cache-00").Put(cachecloud.Copy{Doc: d}, 0); err != nil {
		t.Fatal(err)
	}
	if err := cloud.RegisterHolder("http://f/1", "cache-00"); err != nil {
		t.Fatal(err)
	}
	out, err := server.PublishUpdate("http://f/1", 1)
	if err != nil {
		t.Fatal(err)
	}
	if out.HoldersNotified != 1 {
		t.Fatalf("holders notified = %d", out.HoldersNotified)
	}
	if cloud.Rebalance() != 0 {
		t.Fatal("unexpected migrations on a nearly idle cloud")
	}
}

func TestFacadeSimulateAndExperiments(t *testing.T) {
	tr := cachecloud.GenerateZipfTrace(cachecloud.ZipfTraceConfig{
		Seed: 1, NumDocs: 500, Caches: 4, Duration: 20, ReqPerCache: 10, UpdatesPerUnit: 10,
	})
	res, err := cachecloud.Simulate(cachecloud.SimConfig{Arch: cachecloud.DynamicHashing}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests == 0 {
		t.Fatal("empty simulation")
	}
	if len(cachecloud.ExperimentNames()) != 16 {
		t.Fatalf("experiments = %v", cachecloud.ExperimentNames())
	}
	var buf bytes.Buffer
	if err := cachecloud.RunExperiment("fig3", 0.05, 1, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Zipf-0.9") {
		t.Fatal("experiment output unexpected")
	}
}

func TestFacadePolicies(t *testing.T) {
	u, err := cachecloud.NewUtilityPlacement(cachecloud.EqualWeights(true, true, true, false), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if u.Name() != "utility" {
		t.Fatal("utility name")
	}
	a, err := cachecloud.NewAdaptiveUtilityPlacement(cachecloud.EqualWeights(true, true, true, true), 0.5, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	a.Feedback(cachecloud.PlacementObservation{NetworkMBPerUnit: 1, HitRate: 0.5})
	if a.FeedbackCount() != 1 {
		t.Fatal("feedback not recorded")
	}
	c := cachecloud.NewEdgeCacheWithReplacement("x", 1000, cachecloud.ReplaceGreedyDualSize)
	if c.Replacement() != cachecloud.ReplaceGreedyDualSize {
		t.Fatal("replacement kind lost")
	}
}

func TestFacadeLiveClusterAndReplay(t *testing.T) {
	tr := cachecloud.GenerateZipfTrace(cachecloud.ZipfTraceConfig{
		Seed: 2, NumDocs: 100, CacheIDs: []string{"fa", "fb"}, Duration: 5,
		ReqPerCache: 4, UpdatesPerUnit: 2,
	})
	lc, err := cachecloud.StartLocalCluster([]string{"fa", "fb"}, 2, tr.Docs, cachecloud.ClusterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	res, err := cachecloud.ReplayTrace(lc.Cfg, tr, cachecloud.ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 || res.Requests == 0 {
		t.Fatalf("replay %+v", res)
	}
	cl, err := cachecloud.NewClusterClient(lc.Cfg, "fa")
	if err != nil {
		t.Fatal(err)
	}
	dr, served, err := cl.Get(tr.Docs[0].URL)
	if err != nil {
		t.Fatal(err)
	}
	if served != "fa" || dr.Doc.URL != tr.Docs[0].URL {
		t.Fatalf("client served by %s: %+v", served, dr)
	}
}

func TestFacadeEdgeNetwork(t *testing.T) {
	n, err := cachecloud.BuildEdgeNetwork([][]string{{"e0", "e1"}, {"e2", "e3"}},
		cachecloud.EdgeNetworkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if n.NumClouds() != 2 {
		t.Fatalf("clouds = %d", n.NumClouds())
	}
	tr := cachecloud.GenerateZipfTrace(cachecloud.ZipfTraceConfig{
		Seed: 3, NumDocs: 200, CacheIDs: n.CacheIDs(), Duration: 10,
		ReqPerCache: 5, UpdatesPerUnit: 3,
	})
	res, err := n.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.UpdateMessages != res.Updates*2 {
		t.Fatalf("update messages %d, want %d", res.UpdateMessages, res.Updates*2)
	}
}

// TestFacadeCensus pins what the facade exports (see its package comment
// for the rule): a new name is a visible edit here, and every constant and
// function the facade keeps must have a use in the repository outside
// cachecloud.go — a program, example, test, README, DESIGN or EXPERIMENTS.
func TestFacadeCensus(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "cachecloud.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names, needUse []string
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			names, needUse = append(names, d.Name.Name), append(needUse, d.Name.Name)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					names = append(names, s.Name.Name)
				case *ast.ValueSpec:
					for _, n := range s.Names {
						names, needUse = append(names, n.Name), append(needUse, n.Name)
					}
				}
			}
		}
	}
	want := []string{
		"Document", "Version", "Copy", "Cloud", "CloudConfig", "LookupResult", "UpdateResult", "EdgeCache",
		"OriginServer", "Ring", "RingConfig", "RingMember", "SubRange",
		"PlacementPolicy", "PlacementContext", "AdHocPlacement", "BeaconPointPlacement", "UtilityPlacement",
		"UtilityWeights", "AdaptiveUtilityPlacement", "PlacementObservation", "ReplacementKind",
		"ReplaceGreedyDualSize",
		"Trace", "TraceEvent", "ZipfTraceConfig", "SydneyTraceConfig", "SimConfig", "SimResult", "Architecture",
		"LoadDistribution", "LatencyHistogram", "LoadKind", "LookupLoad",
		"EdgeNetwork", "EdgeNetworkConfig", "EdgeNetworkResult",
		"CacheNode", "OriginNode", "ClusterConfig", "LocalCluster", "ClusterClient", "ReplayResult", "ReplayOptions",
		"StaticHashing", "DynamicHashing",
		"NewCloud", "NewOriginServer", "NewRing", "NewUtilityPlacement", "EqualWeights", "GenerateZipfTrace",
		"GenerateSydneyTrace", "CacheNames", "Simulate", "RunExperiment", "ExperimentNames", "StartLocalCluster",
		"NewClusterClient", "ReplayTrace", "NewAdaptiveUtilityPlacement", "NewEdgeCacheWithReplacement",
		"BuildEdgeNetwork", "BuildEdgeNetworkFromTopology",
	}
	if !slices.Equal(names, want) {
		t.Errorf("exported names = %q, want %q", names, want)
	}
	var corpus strings.Builder
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir // .git, the benchmark's build directory
		case path == "cachecloud.go" || d.IsDir():
			return nil
		case strings.HasSuffix(path, ".go") || slices.Contains([]string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}, path):
			raw, err := os.ReadFile(path)
			corpus.Write(raw)
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range needUse {
		if !regexp.MustCompile(`\bcachecloud\.` + name + `\b`).MatchString(corpus.String()) {
			t.Errorf("%s has no use outside cachecloud.go", name)
		}
	}
}
