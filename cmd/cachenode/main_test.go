package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"cachecloud/internal/admit"
	"cachecloud/internal/node"
)

func TestLoadConfig(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cluster.json")
	body := `{
	  "intraGen": 1000,
	  "rings": [["n0","n1"]],
	  "addrs": {"n0":"http://127.0.0.1:8100","n1":"http://127.0.0.1:8101"},
	  "originAddr": "http://127.0.0.1:8000",
	  "utilityPlacement": true,
	  "maxInflight": 128,
	  "missQueue": 48
	}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err := node.LoadClusterConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.IntraGen != 1000 || len(cfg.Rings) != 1 || !cfg.UtilityPlacement {
		t.Fatalf("cfg = %+v", cfg)
	}
	if cfg.Addrs["n1"] != "http://127.0.0.1:8101" {
		t.Fatalf("addrs = %v", cfg.Addrs)
	}
	if cfg.MaxInflight != 128 || cfg.MissQueue != 48 {
		t.Fatalf("overload knobs = %d/%d", cfg.MaxInflight, cfg.MissQueue)
	}
}

// A config that still names a removed setting is refused at start, not
// silently ignored.
func TestLoadConfigRefusesUnknownFields(t *testing.T) {
	for _, field := range []string{`"limitMode": "gradient"`, `"cloudID": "edge-a"`} {
		path := filepath.Join(t.TempDir(), "cluster.json")
		body := `{"intraGen": 1000, "rings": [["n0"]], "addrs": {"n0": "http://127.0.0.1:8100"}, ` + field + `}`
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := node.LoadClusterConfig(path); err == nil || !strings.Contains(err.Error(), "unknown field") {
			t.Errorf("config with %s: err = %v, want an unknown-field refusal", field, err)
		}
	}
}

// TestFlagCensus pins the command line: a new flag is a visible edit here.
func TestFlagCensus(t *testing.T) {
	var got []string
	flags(new(options)).VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	want := []string{"config", "fsync", "heartbeat", "listen", "max-inflight", "miss-queue", "name", "pprof", "store-dir"}
	if !slices.Equal(got, want) {
		t.Fatalf("flags = %v, want %v", got, want)
	}
}

func TestLoadConfigErrors(t *testing.T) {
	if _, err := node.LoadClusterConfig("/nonexistent.json"); err == nil {
		t.Fatal("missing config accepted")
	}
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte("{broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := node.LoadClusterConfig(path); err == nil {
		t.Fatal("malformed config accepted")
	}
}

func TestRunRequiresFlags(t *testing.T) {
	if err := run([]string{}); err == nil {
		t.Fatal("missing flags accepted")
	}
}

// A capacity below a miss's weight, from the flag or from the cluster file,
// stops the command before it serves, with the minimum named.
func TestRunRefusesMaxInflightBelowMissWeight(t *testing.T) {
	minimum := admit.Miss.Weight()
	small := strconv.Itoa(minimum - 1)
	dir := t.TempDir()
	for name, file := range map[string]string{"flag": "", "file": `"maxInflight": ` + small + `, `} {
		path := filepath.Join(dir, name+".json")
		body := `{` + file + `"intraGen": 1000, "rings": [["n0"]], "addrs": {"n0": "http://127.0.0.1:8100"}, "originAddr": "http://127.0.0.1:8000"}`
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		args := []string{"-config", path}
		if file == "" {
			args = append(args, "-max-inflight", small)
		}
		if err := runRefused(t, args...); !strings.Contains(err.Error(), "at least "+strconv.Itoa(minimum)) {
			t.Errorf("%s: err = %v, want a refusal naming the minimum %d", name, err, minimum)
		}
	}
}

// runRefused runs the command as node n0 with args added and returns the
// error it stops with; a command still serving after five seconds fails
// the test.
func runRefused(t *testing.T, args ...string) error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		done <- run(append([]string{"-name", "n0", "-listen", "127.0.0.1:0", "-heartbeat", "0"}, args...))
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatalf("%v: run returned no error", args)
		}
		return err
	case <-time.After(5 * time.Second):
		t.Fatalf("%v accepted: the node is serving", args)
		return nil
	}
}

// domains is internal/node's testdata/cluster_domains.json: a cluster file
// every node kind accepts, and per ClusterConfig field the overlays that
// each put that field outside its domain.
type domains struct {
	Base    map[string]json.RawMessage              `json:"base"`
	Refused map[string][]map[string]json.RawMessage `json:"refused"`
}

// write writes the base cluster with overlay's keys replaced and returns
// the file's path.
func (d domains) write(t *testing.T, overlay map[string]json.RawMessage) string {
	cfg := make(map[string]json.RawMessage)
	maps.Copy(cfg, d.Base)
	maps.Copy(cfg, overlay)
	raw, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cluster.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// Every out-of-domain value of the domain table stops the command before
// it serves, with the field named, whether it comes from the cluster file
// or from the flag that overrides the field. Negative -max-inflight and
// -miss-queue values were once dropped in favour of the file's.
func TestRunRefusesOutOfDomainConfig(t *testing.T) {
	var table domains
	raw, err := os.ReadFile(filepath.Join("..", "..", "internal", "node", "testdata", "cluster_domains.json"))
	if err == nil {
		err = json.Unmarshal(raw, &table)
	}
	if err != nil {
		t.Fatal(err)
	}
	base := table.write(t, nil)
	if cfg, err := node.LoadClusterConfig(base); err != nil {
		t.Fatal(err)
	} else if n, err := node.NewCacheNode("n0", cfg); err != nil {
		t.Fatalf("base cluster: %v", err)
	} else {
		n.Close()
	}
	flagOf := map[string]string{"maxInflight": "max-inflight", "missQueue": "miss-queue", "fsync": "fsync"}
	for field, overlays := range table.Refused {
		for _, overlay := range overlays {
			// Fsync has a domain only with a store directory.
			store := []string{"-store-dir", t.TempDir()}
			err := runRefused(t, append(store, "-config", table.write(t, overlay))...)
			if !strings.Contains(err.Error(), field) {
				t.Errorf("file %s: err = %v, want a refusal naming %s", overlay, err, field)
			}
			for key, v := range overlay {
				name, ok := flagOf[key]
				if !ok {
					continue
				}
				var value any
				if err := json.Unmarshal(v, &value); err != nil {
					t.Fatal(err)
				}
				err := runRefused(t, append(store, "-config", base, "-"+name, fmt.Sprint(value))...)
				if !strings.Contains(err.Error(), field) {
					t.Errorf("-%s %v: err = %v, want a refusal naming %s", name, value, err, field)
				}
			}
		}
	}
}

// callLog is a node.Transport that reaches nobody and records the path of
// every call.
type callLog struct {
	mu    sync.Mutex
	paths map[string]int
}

func (c *callLog) GetJSON(ctx context.Context, url string, _ any) error {
	return c.PostJSON(ctx, url, nil, nil)
}

func (c *callLog) PostJSON(_ context.Context, url string, _, _ any) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.paths[url[strings.LastIndex(url, "/"):]]++
	return nil
}

func (c *callLog) count(path string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.paths[path]
}

// A deployed node must keep running the reconcile pass, not only the
// heartbeat: startPeriodic starts both, stops both, and starts neither
// without a heartbeat period.
func TestStartPeriodicRunsHeartbeatAndReconcile(t *testing.T) {
	cfg := node.ClusterConfig{
		IntraGen:   100,
		Rings:      [][]string{{"n0", "n1"}},
		Addrs:      map[string]string{"n0": "http://n0", "n1": "http://n1"},
		OriginAddr: "http://origin",
	}
	calls := &callLog{paths: make(map[string]int)}
	n, err := node.NewCacheNodeWithTransport("n0", cfg, calls)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	startPeriodic(n, 0)()
	if got := calls.count("/heartbeat") + calls.count("/reconcile"); got != 0 {
		t.Fatalf("%d calls with the heartbeat off", got)
	}

	stop := startPeriodic(n, time.Millisecond)
	deadline := time.Now().Add(10 * time.Second)
	for calls.count("/reconcile") == 0 || calls.count("/heartbeat") < reconcileBeats {
		if time.Now().After(deadline) {
			t.Fatalf("after 10s: %d heartbeats, %d reconcile reports", calls.count("/heartbeat"), calls.count("/reconcile"))
		}
		time.Sleep(time.Millisecond)
	}
	stop()
	// A pass that was running when stop returned may still finish.
	time.Sleep(20 * time.Millisecond)
	beats, reports := calls.count("/heartbeat"), calls.count("/reconcile")
	time.Sleep(50 * time.Millisecond)
	if calls.count("/heartbeat") != beats || calls.count("/reconcile") != reports {
		t.Fatalf("calls after stop: heartbeats %d -> %d, reconcile %d -> %d", beats, calls.count("/heartbeat"), reports, calls.count("/reconcile"))
	}
}
