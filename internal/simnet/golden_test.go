package simnet

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/log_*.golden from the current code")

// TestLogGolden pins the event log of five fixed configurations byte for
// byte: single tier, tenants, shields, warm restarts, and warm restarts
// behind shields. A change that claims to leave the simulation's messages
// and layouts alone must leave these files alone. Regenerate them with
// `go test ./internal/simnet -run TestLogGolden -update` (`make golden`)
// after an intended change, and commit the diff.
func TestLogGolden(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"seed3", Config{Seed: 3}},
		{"seed11_tenants3", Config{Seed: 11, Tenants: 3}},
		{"seed5_shields2", Config{Seed: 5, Shields: 2}},
		{"seed8_warm", Config{Seed: 8, Warm: true}},
		{"seed12_warm_shields2", Config{Seed: 12, Warm: true, Shields: 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed() {
				t.Fatalf("run failed:\n%s", strings.Join(res.Failures, "\n"))
			}
			path := filepath.Join("testdata", "log_"+tc.name+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(res.Log), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden (regenerate with -update): %v", err)
			}
			if got := res.Log; got != string(want) {
				gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
				for i := 0; i < len(gl) && i < len(wl); i++ {
					if gl[i] != wl[i] {
						t.Fatalf("log differs from %s at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
					}
				}
				t.Fatalf("log differs from %s in length: %d lines, want %d", path, len(gl), len(wl))
			}
		})
	}
}
