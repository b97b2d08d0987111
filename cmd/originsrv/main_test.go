package main

import (
	"encoding/json"
	"flag"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestFlagCensus pins the command line: a new flag is a visible edit here.
func TestFlagCensus(t *testing.T) {
	var got []string
	flags(new(options)).VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	want := []string{"catalog", "config", "heartbeat-interval", "listen", "miss-k", "pprof", "rebalance", "repair", "replicate"}
	if !slices.Equal(got, want) {
		t.Fatalf("flags = %v, want %v", got, want)
	}
}

// A config that still names a removed setting is refused at start, not
// silently ignored.
func TestRunRefusesUnknownConfigFields(t *testing.T) {
	for _, field := range []string{`"limitMode": "gradient"`, `"cloudID": "edge-a"`} {
		path := filepath.Join(t.TempDir(), "cluster.json")
		body := `{"intraGen": 1000, "rings": [["n0"]], "addrs": {"n0": "http://127.0.0.1:8100"}, ` + field + `}`
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		err := run([]string{"-listen", "127.0.0.1:0", "-config", path, "-catalog", filepath.Join(t.TempDir(), "none.trace")})
		if err == nil || !strings.Contains(err.Error(), "unknown field") {
			t.Errorf("config with %s: err = %v, want an unknown-field refusal", field, err)
		}
	}
}

// Every out-of-domain value of internal/node's domain table stops the
// origin before it serves, with the field named.
func TestRunRefusesOutOfDomainConfig(t *testing.T) {
	var table struct {
		Base    map[string]json.RawMessage              `json:"base"`
		Refused map[string][]map[string]json.RawMessage `json:"refused"`
	}
	raw, err := os.ReadFile(filepath.Join("..", "..", "internal", "node", "testdata", "cluster_domains.json"))
	if err == nil {
		err = json.Unmarshal(raw, &table)
	}
	if err != nil {
		t.Fatal(err)
	}
	catalog := filepath.Join(t.TempDir(), "catalog.trace")
	if err := os.WriteFile(catalog, []byte("T 10\nD http://a/1 100\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for field, overlays := range table.Refused {
		for _, overlay := range overlays {
			cfg := maps.Clone(table.Base)
			maps.Copy(cfg, overlay)
			cfg["storeDir"], _ = json.Marshal(t.TempDir()) // Fsync has a domain only with one
			raw, err := json.Marshal(cfg)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "cluster.json")
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() { done <- run([]string{"-listen", "127.0.0.1:0", "-config", path, "-catalog", catalog}) }()
			select {
			case err := <-done:
				if err == nil || !strings.Contains(err.Error(), field) {
					t.Errorf("%s: err = %v, want a refusal naming %s", overlay, err, field)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("%s accepted: the origin is serving", overlay)
			}
		}
	}
}
