//go:build unix

package main

// The tests that run the command as deployed and end it as an operator
// does, with SIGTERM to the process: a signal only unix delivers that way.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	neturl "net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"cachecloud/internal/document"
	"cachecloud/internal/node"
)

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
