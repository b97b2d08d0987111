package node

import (
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
)

// TestSettingsCensus pins the settable surface of a deployment: the
// cluster config's fields, the transport's options, and the node kinds'
// setters. Every setting doubles what the tests and the benchmark must
// cover, so adding one is an edit here, with the reason it has a second
// value in use.
func TestSettingsCensus(t *testing.T) {
	fields := func(v any) []string {
		typ := reflect.TypeOf(v)
		names := make([]string, typ.NumField())
		for i := range names {
			names[i] = typ.Field(i).Name
		}
		return names
	}
	for _, c := range []struct {
		v    any
		want []string
	}{
		{ClusterConfig{}, []string{"IntraGen", "Rings", "Addrs", "OriginAddr", "CapacityBytes", "UtilityPlacement",
			"MaxInflight", "MissQueue", "StoreDir", "Fsync", "Shields", "ShieldAddrs", "Tenants", "Clock", "Tracer"}},
		{TransportOptions{}, []string{"RequestTimeout", "MaxRetries", "BreakerThreshold", "OnBreakerOpen", "Client", "Clock"}},
	} {
		if got := fields(c.v); !slices.Equal(got, c.want) {
			t.Errorf("%T fields = %v, want %v", c.v, got, c.want)
		}
	}
	// Every field has an entry in the domain table, so no field lands
	// without saying what it refuses.
	want := fields(ClusterConfig{})
	sort.Strings(want)
	if named := sortedKeys(readDomains(t).Refused); !slices.Equal(named, want) {
		t.Errorf("testdata/cluster_domains.json fields = %v, want %v", named, want)
	}
	// The tracer is set once, through ClusterConfig.Tracer.
	for _, v := range []any{&CacheNode{}, &OriginNode{}, &ShieldNode{}} {
		if _, ok := reflect.TypeOf(v).MethodByName("SetTracer"); ok {
			t.Errorf("%T has a SetTracer: ClusterConfig.Tracer is the one way in", v)
		}
	}
}

// domainTable is testdata/cluster_domains.json, which the commands' tests
// read too: a cluster file every node kind accepts, and per ClusterConfig
// field the overlays that each put that field outside its domain (none
// for a field that has no domain).
type domainTable struct {
	Base    map[string]json.RawMessage              `json:"base"`
	Refused map[string][]map[string]json.RawMessage `json:"refused"`
}

func readDomains(t testing.TB) domainTable {
	var table domainTable
	raw, err := os.ReadFile(filepath.Join("testdata", "cluster_domains.json"))
	if err == nil {
		err = json.Unmarshal(raw, &table)
	}
	if err != nil {
		t.Fatal(err)
	}
	return table
}

// file returns the base cluster with overlay's keys replaced, plus a
// temporary StoreDir (Fsync has a domain only with one), as JSON.
func (d domainTable) file(t testing.TB, overlay map[string]json.RawMessage) []byte {
	cfg := maps.Clone(d.Base)
	maps.Copy(cfg, overlay)
	cfg["storeDir"], _ = json.Marshal(t.TempDir())
	raw, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// load reads raw through LoadClusterConfig.
func load(t testing.TB, raw []byte) (ClusterConfig, error) {
	path := filepath.Join(t.TempDir(), "cluster.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return LoadClusterConfig(path)
}

// buildAll builds cfg as the named cache and shield (none for an empty
// name), as the origin and, when local, through StartLocalCluster, which
// lays out the rings and addresses itself. It closes what was built and
// returns each path's error by name.
func buildAll(cfg ClusterConfig, cache, shield string, local bool) map[string]error {
	errs := make(map[string]error)
	if cache != "" {
		cn, err := NewCacheNode(cache, cfg)
		if errs["NewCacheNode"] = err; err == nil {
			cn.Close()
		}
	}
	on, err := NewOriginNode(cfg, nil)
	if errs["NewOriginNode"] = err; err == nil {
		on.Close()
	}
	if shield != "" {
		sn, err := NewShieldNode(shield, cfg)
		if errs["NewShieldNode"] = err; err == nil {
			sn.Close()
		}
	}
	if local {
		lc, err := StartLocalCluster([]string{"n0", "n1"}, 2, nil, cfg)
		if errs["StartLocalCluster"] = err; err == nil {
			lc.Close()
		}
	}
	return errs
}

// TestConfigDomains feeds every out-of-domain value of the domain table to
// every node kind and to StartLocalCluster: each refuses it, naming the
// field. The base cluster is accepted by all of them.
func TestConfigDomains(t *testing.T) {
	table := readDomains(t)
	build := func(overlay map[string]json.RawMessage, local bool) map[string]error {
		cfg, err := load(t, table.file(t, overlay))
		if err != nil {
			t.Fatal(err)
		}
		return buildAll(cfg, "n0", "s0", local)
	}
	for path, err := range build(nil, true) {
		if err != nil {
			t.Fatalf("base cluster: %s: %v", path, err)
		}
	}
	layout := map[string]bool{"Rings": true, "Addrs": true, "OriginAddr": true, "ShieldAddrs": true}
	for field, overlays := range table.Refused {
		for _, overlay := range overlays {
			for path, err := range build(overlay, !layout[field]) {
				if err == nil || !strings.Contains(err.Error(), field) {
					t.Errorf("%s %s: err = %v, want a refusal naming %s", path, overlay, err, field)
				}
			}
		}
	}
}

// FuzzClusterConfig reads arbitrary bytes through LoadClusterConfig. A
// cluster that check accepts builds as its first cache, its first shield
// and the origin, each of which closes cleanly; every constructor refuses
// a cluster that check refuses, with check's own error. The seeds are the
// domain table's base and refused clusters and cmd/cachenode's example.
// StoreDir is a fresh temporary directory whenever the input names one.
func FuzzClusterConfig(f *testing.F) {
	table := readDomains(f)
	f.Add(table.file(f, nil))
	for _, overlays := range table.Refused {
		for _, overlay := range overlays {
			f.Add(table.file(f, overlay))
		}
	}
	f.Add([]byte(`{"intraGen": 1000, "rings": [["n0","n1"],["n2","n3"]],
	  "addrs": {"n0":"http://127.0.0.1:8100", "n1":"http://127.0.0.1:8101",
	            "n2":"http://127.0.0.1:8102", "n3":"http://127.0.0.1:8103"},
	  "originAddr": "http://127.0.0.1:8000", "capacityBytes": 0, "utilityPlacement": true}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		cfg, err := load(t, raw)
		if err != nil {
			return
		}
		if cfg.StoreDir != "" {
			cfg.StoreDir = t.TempDir()
		}
		want := cfg.check()
		cache, shield := "n0", "s0"
		if want == nil {
			// Each ring member and shield boots with a load counter of 8
			// bytes per hash value: keep a fuzzed cluster's under 32 MB.
			if (len(slices.Concat(cfg.Rings...))+len(cfg.Shields))*cfg.IntraGen > 1<<22 {
				return
			}
			cache, shield = cfg.Rings[0][0], ""
			if len(cfg.Shields) > 0 {
				shield = cfg.Shields[0]
			}
		}
		for path, err := range buildAll(cfg, cache, shield, false) {
			if want == nil && err != nil {
				t.Fatalf("check accepts %s, %s refuses it: %v", raw, path, err)
			}
			if want != nil && (err == nil || err.Error() != want.Error()) {
				t.Fatalf("check refuses %s with %q, %s returns %v", raw, want, path, err)
			}
		}
	})
}
