package main

import (
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
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
