package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	neturl "net/url"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"cachecloud/internal/document"
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
	cfg, err := loadConfig(path)
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
		if _, err := loadConfig(path); err == nil || !strings.Contains(err.Error(), "unknown field") {
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
	if _, err := loadConfig("/nonexistent.json"); err == nil {
		t.Fatal("missing config accepted")
	}
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte("{broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadConfig(path); err == nil {
		t.Fatal("malformed config accepted")
	}
}

func TestRunRequiresFlags(t *testing.T) {
	if err := run([]string{}); err == nil {
		t.Fatal("missing flags accepted")
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

// storeFDs counts the process's open descriptors on files under dir.
func storeFDs(t *testing.T, dir string) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skip("no /proc/self/fd to count descriptors in")
	}
	n := 0
	for _, e := range ents {
		if target, err := os.Readlink("/proc/self/fd/" + e.Name()); err == nil && strings.HasPrefix(target, dir) {
			n++
		}
	}
	return n
}

// deadAddr returns a loopback address nothing listens on.
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close()
	return addr
}

// startRun writes cfg to a file and runs the command on addr with it and
// extra, returning once the node answers and a stop that sends the process
// SIGTERM and waits for run to return nil.
func startRun(t *testing.T, addr string, cfg node.ClusterConfig, extra ...string) (stop func()) {
	t.Helper()
	raw, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfgPath := filepath.Join(t.TempDir(), "cluster.json")
	if err := os.WriteFile(cfgPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		done <- run(append([]string{"-name", "n0", "-listen", addr, "-config", cfgPath}, extra...))
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if resp, err := http.Get("http://" + addr + "/healthz"); err == nil {
			_ = resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the node never answered")
		}
		time.Sleep(5 * time.Millisecond)
	}
	return func() {
		t.Helper()
		if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("run after SIGTERM: %v", err)
			}
		case <-time.After(15 * time.Second):
			t.Fatal("run did not return after SIGTERM")
		}
	}
}

// TestRunCountsOpenCircuits: a deployed node counts the circuits its
// transport opens. The ring's other member and the origin listen nowhere;
// four /doc requests whose beacon is that member make at least four failed
// attempts to it, which opens its circuit.
func TestRunCountsOpenCircuits(t *testing.T) {
	addr := deadAddr(t)
	cfg := node.ClusterConfig{
		IntraGen: 100, Rings: [][]string{{"n0", "n1"}},
		Addrs:      map[string]string{"n0": "http://" + addr, "n1": "http://" + deadAddr(t)},
		OriginAddr: "http://" + deadAddr(t),
	}
	stop := startRun(t, addr, cfg, "-heartbeat", "0")
	defer stop()

	var layout node.Assignments
	if err := getJSON("http://"+addr+"/subranges", &layout); err != nil {
		t.Fatal(err)
	}
	sent := 0
	for i := 0; sent < 4; i++ {
		url := fmt.Sprintf("http://live/doc/%d", i)
		if owner, err := layout.Owner(url, cfg.IntraGen); err != nil || owner != "n1" {
			continue
		}
		resp, err := http.Get("http://" + addr + "/doc?url=" + neturl.QueryEscape(url))
		if err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		sent++
	}

	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	opened := -1
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, "cachecloud_node_circuit_open_total{") {
			opened, _ = strconv.Atoi(line[strings.LastIndexByte(line, ' ')+1:])
		}
	}
	if opened < 1 {
		t.Fatalf("cachecloud_node_circuit_open_total = %d after %d /doc requests to a dead beacon, want >= 1", opened, sent)
	}
}

// getJSON decodes the JSON reply of a GET.
func getJSON(url string, out any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(out)
}

// TestRunShutsDownOnSIGTERM runs the command as deployed — its own server,
// transport and timers, a durable tier — and sends the process SIGTERM: run
// returns nil, the port and the peer connection the node was serving from
// its own loop are closed, the heartbeat has stopped and the durable tier
// is sealed.
func TestRunShutsDownOnSIGTERM(t *testing.T) {
	var beats atomic.Int64
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/heartbeat":
			beats.Add(1)
			_ = json.NewEncoder(w).Encode(node.HeartbeatResponse{})
		case "/fetch":
			_ = json.NewEncoder(w).Encode(node.FetchResponse{Doc: document.Document{URL: r.URL.Query().Get("url"), Size: 100, Version: 1}})
		default:
			http.NotFound(w, r)
		}
	}))
	defer origin.Close()
	addr := deadAddr(t) // run listens on it
	store := filepath.Join(t.TempDir(), "store")
	stop := startRun(t, addr, node.ClusterConfig{
		IntraGen: 100, Rings: [][]string{{"n0"}},
		Addrs: map[string]string{"n0": "http://" + addr}, OriginAddr: origin.URL,
	}, "-store-dir", store, "-heartbeat", "5ms")

	// A peer's calls: the node serves their connection from its own loop.
	tp := node.NewHTTPTransport(node.TransportOptions{RequestTimeout: time.Second, MaxRetries: -1, BreakerThreshold: -1})
	bg := context.Background()
	if err := tp.GetJSON(bg, "http://"+addr+"/doc?url=http%3A%2F%2Flive%2Fdoc%2F1", nil); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for beats.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no heartbeat reached the origin")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if storeFDs(t, store) == 0 {
		t.Fatal("the durable tier has no file open: the test would not see it sealed")
	}

	stop()
	if err := tp.GetJSON(bg, "http://"+addr+"/healthz", nil); err == nil {
		t.Error("the node still answers: the port or the connection it was serving is open")
	}
	if n := storeFDs(t, store); n != 0 {
		t.Errorf("%d descriptors still open on the durable tier", n)
	}
	after := beats.Load()
	time.Sleep(50 * time.Millisecond)
	if beats.Load() != after {
		t.Error("the heartbeat outlived the shutdown")
	}
}
