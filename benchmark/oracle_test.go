package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cachecloud/internal/document"
	"cachecloud/internal/node"
)

// fakeCluster serves /doc and /publish from one test server standing in
// for every node and the origin. doc decides each /doc reply.
func fakeCluster(t *testing.T, tenants bool, doc func(w http.ResponseWriter, tenant, url string)) (*engine, *schedule) {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /doc", func(w http.ResponseWriter, r *http.Request) {
		doc(w, r.Header.Get(node.TenantHeader), r.URL.Query().Get("url"))
	})
	mux.HandleFunc("POST /publish", func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(node.PublishResponse{Version: 5, Notified: 6})
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)

	sched := &schedule{catalog: []document.Document{
		{URL: "http://x/doc/0", Size: 100, Version: 1},
		{URL: "http://x/doc/1", Size: 100, Version: 1},
	}}
	nodes := make([]string, numNodes)
	for i := range nodes {
		nodes[i] = srv.URL
	}
	eng, err := newEngine(&workload{name: "fake", tenants: tenants}, sched, nodes, srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.close)
	return eng, sched
}

func reply(w http.ResponseWriter, key string, v document.Version) {
	_ = json.NewEncoder(w).Encode(node.DocResponse{Doc: document.Document{URL: key, Size: 100, Version: v}, Source: "local"})
}

// checked is a pass made of this one phase, after check().
func checked(eng *engine, ph *phase) *pass {
	empty := newPhase(nil)
	p := &pass{w: eng.w, eng: eng, warm: empty, closed: ph, open: empty}
	p.check()
	return p
}

// failsTheRun reports whether a pass made of this one phase fails check().
func failsTheRun(eng *engine, ph *phase) bool { return len(checked(eng, ph).problems) > 0 }

func TestOracleAcceptsAnHonestCluster(t *testing.T) {
	eng, _ := fakeCluster(t, true, func(w http.ResponseWriter, tenant, url string) {
		reply(w, document.TenantKey(tenant, url), 5)
	})
	ph := eng.run([]op{{doc: 0}, {kind: opPublish, doc: 0}, {doc: 0}, {doc: 1, tenant: 1, node: 2}, {doc: 1, tenant: 1, node: 2}}, 1, false)
	if failsTheRun(eng, ph) {
		t.Errorf("honest replies failed: statuses %v, first violation %q", ph.status, eng.orc.first)
	}
	if eng.publishes.Load() != 1 || eng.notified.Load() != 6 {
		t.Errorf("publish books: %d publishes, %d notified", eng.publishes.Load(), eng.notified.Load())
	}
}

func TestOracleCatchesAStaleVersion(t *testing.T) {
	eng, _ := fakeCluster(t, false, func(w http.ResponseWriter, tenant, url string) {
		reply(w, url, 1) // never applies the publish that was acknowledged at version 5
	})
	ph := eng.run([]op{{doc: 0}, {kind: opPublish, doc: 0}, {doc: 1}, {doc: 0}}, 1, false)
	want := []uint8{stOK, stOK, stOK, stViolated}
	for i, st := range ph.status {
		if st != want[i] {
			t.Errorf("op %d status %d, want %d", i, st, want[i])
		}
	}
	if eng.orc.stale.Load() != 1 || !failsTheRun(eng, ph) {
		t.Errorf("stale_served %d, run fails: %v", eng.orc.stale.Load(), failsTheRun(eng, ph))
	}
	if checked(eng, ph).hard == 0 {
		t.Error("a stale reply counts as something a stalled box could explain")
	}
}

func TestOracleCatchesAnotherTenantsKey(t *testing.T) {
	eng, _ := fakeCluster(t, true, func(w http.ResponseWriter, tenant, url string) {
		reply(w, document.TenantKey("beta", url), 1)
	})
	ph := eng.run([]op{{doc: 0, tenant: 2}, {doc: 0, tenant: 1}, {doc: 0}}, 1, false)
	want := []uint8{stOK, stViolated, stViolated}
	for i, st := range ph.status {
		if st != want[i] {
			t.Errorf("op %d status %d, want %d", i, st, want[i])
		}
	}
	if eng.orc.wrongKey.Load() != 2 || !failsTheRun(eng, ph) {
		t.Errorf("wrong keys %d, run fails: %v", eng.orc.wrongKey.Load(), failsTheRun(eng, ph))
	}
}

func TestOracleCatchesATenantVersionRegression(t *testing.T) {
	v := document.Version(4)
	eng, _ := fakeCluster(t, true, func(w http.ResponseWriter, tenant, url string) {
		reply(w, document.TenantKey(tenant, url), v)
		v-- // each reply older than the last
	})
	ph := eng.run([]op{{doc: 0, tenant: 1, node: 3}, {doc: 0, tenant: 1, node: 4}, {doc: 0, tenant: 1, node: 3}}, 1, false)
	// Node 4 serving version 3 is no regression: it is that node's first.
	want := []uint8{stOK, stOK, stViolated}
	for i, st := range ph.status {
		if st != want[i] {
			t.Errorf("op %d status %d, want %d", i, st, want[i])
		}
	}
	if eng.orc.regress.Load() != 1 || !strings.Contains(eng.orc.first, "back to") {
		t.Errorf("regressions %d, first %q", eng.orc.regress.Load(), eng.orc.first)
	}
}

func TestADroppedReplyFailsTheRun(t *testing.T) {
	eng, _ := fakeCluster(t, false, func(w http.ResponseWriter, tenant, url string) {
		if strings.HasSuffix(url, "/1") {
			conn, _, err := w.(http.Hijacker).Hijack()
			if err == nil {
				_ = conn.Close() // the request is swallowed
			}
			return
		}
		reply(w, url, 1)
	})
	ph := eng.run([]op{{doc: 0}, {doc: 1}, {doc: 0}}, 1, false)
	want := []uint8{stOK, stFailed, stOK}
	for i, st := range ph.status {
		if st != want[i] {
			t.Errorf("op %d status %d, want %d", i, st, want[i])
		}
	}
	if !failsTheRun(eng, ph) {
		t.Error("a dropped reply did not fail the run")
	}
}

func TestAShedReplyFailsTheRun(t *testing.T) {
	eng, _ := fakeCluster(t, false, func(w http.ResponseWriter, tenant, url string) {
		w.WriteHeader(http.StatusTooManyRequests)
	})
	ph := eng.run([]op{{doc: 0}}, 1, false)
	if ph.status[0] != stShed || !failsTheRun(eng, ph) {
		t.Errorf("status %d, run fails: %v", ph.status[0], failsTheRun(eng, ph))
	}
	// Shedding alone is what a stalled box causes too: the pass may be made
	// again if the generator was late as well, and fails the run otherwise.
	if p := checked(eng, ph); p.hard != 0 {
		t.Errorf("a shed reply is a hard failure: %v", p.problems)
	}
}
