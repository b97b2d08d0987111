package node

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"
)

// TestChaosRestartUnderLoadWarmBoot is the durability end-to-end: a node
// whose cache is warm is killed in the middle of a hot-document storm,
// documents are refreshed while it is down, and it is then restarted over
// its durable store. The warm-restart contract must hold under real
// sockets and -race:
//
//   - the replacement boots warm with exactly the entries that were
//     resident at the kill (evicted entries must not resurrect);
//   - revalidation against the beacons drops the copies refreshed while
//     the node was down and issues ZERO origin fetches;
//   - a full catalog sweep through the restarted node stays within the
//     origin-fetch bound: fetches ≤ catalog − revalidated-fresh (only
//     genuinely-stale and never-cached documents may reach the origin) —
//     a warm restart must not degenerate into a cold-miss storm;
//   - conservation (Requests == Served + Shed + Failed) and quiescence
//     hold on every node afterwards, the restarted one included.
func TestChaosRestartUnderLoadWarmBoot(t *testing.T) {
	checkLeaks(t)
	const (
		nodes    = 4
		ringSize = 2
		catalog  = 24
		clients  = 48
	)
	names := make([]string, nodes)
	for i := range names {
		names[i] = fmt.Sprintf("s%d", i)
	}
	docs := testCatalog(catalog)
	lc, _ := startStormCluster(t, names, ringSize, docs,
		ClusterConfig{IntraGen: 200, MaxInflight: 64, MissQueue: 64, StoreDir: t.TempDir()},
		2*time.Millisecond)
	victim := "s1"

	client := &http.Client{Timeout: 30 * time.Second}
	get := func(entry, url string) error {
		resp, err := client.Get(lc.Cfg.Addrs[entry] + "/doc?url=" + queryEscape(url))
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil
	}

	// Warm the victim: every catalog document requested through it.
	for _, d := range docs {
		if err := get(victim, d.URL); err != nil {
			t.Fatalf("warmup GET %s: %v", d.URL, err)
		}
	}
	heldAtCrash := lc.Caches[victim].StoredVersions()
	if len(heldAtCrash) == 0 {
		t.Fatal("victim cached nothing during warmup; test is vacuous")
	}

	// Storm the cluster and kill the victim mid-storm. Requests that race
	// the kill may fail at the socket — that is the point.
	var wg sync.WaitGroup
	var killOnce sync.Once
	for g := 0; g < clients; g++ {
		wg.Add(1)
		entry := names[g%nodes]
		url := docs[g%catalog].URL
		go func(i int) {
			defer wg.Done()
			if i == clients/2 {
				killOnce.Do(func() { lc.StopNode(victim) })
			}
			_ = get(entry, url)
		}(g)
	}
	wg.Wait()
	killOnce.Do(func() { lc.StopNode(victim) })

	// Refresh documents while the victim is down so some of its recovered
	// copies are genuinely stale. Only documents whose beacon is alive can
	// be published; skip the ones the dead victim owns.
	published := 0
	for _, d := range docs {
		if published == 3 {
			break
		}
		owner, err := lc.Origin.Assignments().Owner(d.URL, lc.Cfg.IntraGen)
		if err != nil || owner == victim {
			continue
		}
		if _, held := heldAtCrash[d.URL]; !held {
			continue
		}
		body, _ := json.Marshal(PublishRequest{URL: d.URL})
		resp, err := client.Post(lc.Cfg.OriginAddr+"/publish", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("publish %s: %v", d.URL, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("publish %s: status %d", d.URL, resp.StatusCode)
		}
		published++
	}
	if published == 0 {
		t.Fatal("no document could be refreshed while the victim was down")
	}

	// Restart over the same store directory: must boot warm with exactly
	// the resident set at the kill.
	cn, err := lc.RestartNode(victim, nil)
	if err != nil {
		t.Fatalf("restart %s: %v", victim, err)
	}
	warm, recovered := cn.WarmBootInfo()
	if !warm || recovered != len(heldAtCrash) {
		t.Fatalf("warm boot recovered %d entries (warm=%v), victim held %d at kill",
			recovered, warm, len(heldAtCrash))
	}

	// Revalidate: stale copies dropped through the beacons, zero origin
	// fetches.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	kept, dropped := cn.WarmRevalidate(ctx)
	if kept+dropped != recovered {
		t.Fatalf("revalidation books: kept %d + dropped %d != recovered %d", kept, dropped, recovered)
	}
	if dropped < published {
		t.Fatalf("revalidation dropped %d copies, but %d were refreshed while down", dropped, published)
	}
	if kept == 0 {
		t.Fatal("revalidation kept nothing; warm restart bought no state")
	}
	if f := cn.Admission().OriginFetches; f != 0 {
		t.Fatalf("revalidation issued %d origin fetches, want 0", f)
	}

	// Full catalog sweep through the restarted node: only genuinely-stale
	// and never-cached documents may reach the origin.
	for _, d := range docs {
		if err := get(victim, d.URL); err != nil {
			t.Fatalf("post-restart GET %s: %v", d.URL, err)
		}
	}
	fetches := cn.Admission().OriginFetches
	bound := int64(catalog - kept)
	if fetches > bound {
		t.Fatalf("restarted node fetched %d from origin, bound %d (catalog %d − revalidated %d)",
			fetches, bound, catalog, kept)
	}

	// Conservation and quiescence on every node, restarted one included.
	for name, n := range lc.Caches {
		st := n.Admission()
		if st.Served+st.Shed+st.Failed != st.Requests {
			t.Fatalf("%s conservation violated: served %d + shed %d + failed %d != requests %d",
				name, st.Served, st.Shed, st.Failed, st.Requests)
		}
		if st.GateInFlight != 0 || st.GateQueued != 0 || st.LimiterInFlight != 0 ||
			st.LimiterQueued != 0 || st.FlightsActive != 0 {
			t.Fatalf("%s not quiescent after the sweep: %+v", name, st)
		}
	}
}

// TestRestartColdWithoutStore pins the memory-only baseline: restarting a
// node with no durable tier boots cold (no recovery, revalidation no-op),
// so the warm path's gains are attributable to the store.
func TestRestartColdWithoutStore(t *testing.T) {
	docs := testCatalog(8)
	lc, _ := startStormCluster(t, []string{"a0", "a1"}, 2, docs,
		ClusterConfig{IntraGen: 50}, 0)

	client := &http.Client{Timeout: 30 * time.Second}
	for _, d := range docs {
		resp, err := client.Get(lc.Cfg.Addrs["a0"] + "/doc?url=" + queryEscape(d.URL))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if !lc.StopNode("a0") {
		t.Fatal("StopNode refused")
	}
	cn, err := lc.RestartNode("a0", nil)
	if err != nil {
		t.Fatal(err)
	}
	if warm, recovered := cn.WarmBootInfo(); warm || recovered != 0 {
		t.Fatalf("memory-only restart booted warm (recovered=%d)", recovered)
	}
	if kept, dropped := cn.WarmRevalidate(context.Background()); kept != 0 || dropped != 0 {
		t.Fatalf("cold revalidation did work: kept=%d dropped=%d", kept, dropped)
	}
	if len(cn.StoredVersions()) != 0 {
		t.Fatal("cold restart resurrected cache entries from nowhere")
	}
}
