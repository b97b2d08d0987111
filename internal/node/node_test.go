package node

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"cachecloud/internal/document"
)

func testCatalog(n int) []document.Document {
	docs := make([]document.Document, n)
	for i := range docs {
		docs[i] = document.Document{URL: fmt.Sprintf("http://live/doc/%d", i), Size: int64(1000 + i)}
	}
	return docs
}

// postJSON and getJSON are the tests' one-shot calls through a plain
// *http.Client: the client's Timeout, if any, is the deadline.
func postJSON(client *http.Client, url string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("node: marshal %s: %w", url, err)
	}
	return doJSON(context.Background(), client, http.MethodPost, url, body, out, client.Timeout)
}

func getJSON(client *http.Client, url string, out any) error {
	return doJSON(context.Background(), client, http.MethodGet, url, nil, out, client.Timeout)
}

func startCluster(t *testing.T, nodes, ringSize int, opts ClusterConfig) *LocalCluster {
	t.Helper()
	return startClusterWith(t, nodes, ringSize, opts, nil)
}

// startClusterWith is startCluster with per-participant transports.
func startClusterWith(t *testing.T, nodes, ringSize int, opts ClusterConfig, mk TransportFactory) *LocalCluster {
	t.Helper()
	names := make([]string, nodes)
	for i := range names {
		names[i] = fmt.Sprintf("live-%02d", i)
	}
	lc, err := StartLocalClusterWith(names, ringSize, testCatalog(200), opts, mk)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lc.Close)
	return lc
}

func getDoc(t *testing.T, client *http.Client, base, url string) DocResponse {
	t.Helper()
	var dr DocResponse
	if err := getJSON(client, base+"/doc?url="+queryEscape(url), &dr); err != nil {
		t.Fatalf("GET /doc: %v", err)
	}
	return dr
}

func cacheStats(t *testing.T, client *http.Client, base string) CacheStats {
	t.Helper()
	var st CacheStats
	if err := getJSON(client, base+"/stats", &st); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestEqualSplitLayout(t *testing.T) {
	cfg := ClusterConfig{IntraGen: 10, Rings: [][]string{{"a", "b"}, {"c"}}}
	a := layoutOf(newRings(cfg, false))
	if origin := layoutOf(newRings(cfg, true)); !reflect.DeepEqual(a, origin) {
		t.Fatalf("boot layout %+v, the origin's %+v", a, origin)
	}
	if a.Rings[0][0] != (Subrange{Node: "a", Lo: 0, Hi: 4}) {
		t.Fatalf("ring0[0] = %+v", a.Rings[0][0])
	}
	if a.Rings[0][1] != (Subrange{Node: "b", Lo: 5, Hi: 9}) {
		t.Fatalf("ring0[1] = %+v", a.Rings[0][1])
	}
	if a.Rings[1][0] != (Subrange{Node: "c", Lo: 0, Hi: 9}) {
		t.Fatalf("ring1[0] = %+v", a.Rings[1][0])
	}
	if got := a.ringOf("b"); got != 0 {
		t.Fatalf("ringOf(b) = %d", got)
	}
	if got := a.ringOf("zz"); got != -1 {
		t.Fatalf("ringOf(zz) = %d", got)
	}
	// What internal/ring refuses, and a node in two rings, fail the boot.
	addrs := map[string]string{"a": "http://a", "b": "http://b", "c": "http://c"}
	for _, rings := range [][][]string{{{"a", "a"}, {"b", "c"}}, {{"a", "b", "c"}, {}}, {{"a", "b"}, {"b", "c"}}} {
		err := ClusterConfig{IntraGen: 10, Rings: rings, Addrs: addrs, OriginAddr: "http://o"}.check()
		if err == nil || !strings.Contains(err.Error(), "Rings") {
			t.Fatalf("rings %v: err = %v, want a refusal naming Rings", rings, err)
		}
	}
}

func TestOwnerOfCoversAllDocs(t *testing.T) {
	cfg := ClusterConfig{IntraGen: 100, Rings: [][]string{{"a", "b"}, {"c", "d"}}}
	a := layoutOf(newRings(cfg, false))
	owners := map[string]int{}
	for i := 0; i < 500; i++ {
		o, err := a.ownerOf(fmt.Sprintf("u%d", i), cfg.IntraGen)
		if err != nil {
			t.Fatal(err)
		}
		owners[o]++
	}
	if len(owners) != 4 {
		t.Fatalf("only %d owners used: %v", len(owners), owners)
	}
}

func TestLiveClusterEndToEnd(t *testing.T) {
	lc := startCluster(t, 4, 2, ClusterConfig{})
	client := &http.Client{Timeout: 5 * time.Second}
	url := "http://live/doc/7"
	entry := lc.Cfg.Addrs["live-00"]

	// First request: origin miss, stored locally (ad hoc placement).
	dr := getDoc(t, client, entry, url)
	if dr.Source != "origin" || !dr.Stored {
		t.Fatalf("first request: %+v", dr)
	}
	if dr.Doc.Version != 1 || dr.Doc.Size != 1007 {
		t.Fatalf("wrong doc: %+v", dr.Doc)
	}

	// Second request at the same node: local hit.
	dr = getDoc(t, client, entry, url)
	if dr.Source != "local" {
		t.Fatalf("second request source = %s, want local", dr.Source)
	}

	// Request at a different node: served by the peer holder.
	other := lc.Cfg.Addrs["live-01"]
	dr = getDoc(t, client, other, url)
	if dr.Source != "peer" {
		t.Fatalf("cross-node request source = %s, want peer", dr.Source)
	}
}

func TestLiveUpdatePropagation(t *testing.T) {
	lc := startCluster(t, 4, 2, ClusterConfig{})
	client := &http.Client{Timeout: 5 * time.Second}
	url := "http://live/doc/3"

	// Two nodes hold the doc.
	getDoc(t, client, lc.Cfg.Addrs["live-00"], url)
	getDoc(t, client, lc.Cfg.Addrs["live-01"], url)

	var pr PublishResponse
	if err := postJSON(client, lc.Cfg.OriginAddr+"/publish", PublishRequest{URL: url}, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Version != 2 {
		t.Fatalf("published version = %d, want 2", pr.Version)
	}
	if pr.Notified != 2 {
		t.Fatalf("notified = %d, want 2 holders", pr.Notified)
	}

	// Both nodes must now serve version 2 locally.
	for _, name := range []string{"live-00", "live-01"} {
		dr := getDoc(t, client, lc.Cfg.Addrs[name], url)
		if dr.Source != "local" || dr.Doc.Version != 2 {
			t.Fatalf("%s after update: %+v", name, dr)
		}
	}
}

func TestLivePublishUnknownDoc(t *testing.T) {
	lc := startCluster(t, 2, 2, ClusterConfig{})
	client := &http.Client{Timeout: 5 * time.Second}
	err := postJSON(client, lc.Cfg.OriginAddr+"/publish", PublishRequest{URL: "nope"}, nil)
	if err == nil {
		t.Fatal("publish of unknown document succeeded")
	}
}

func TestLiveRebalanceMovesLoadAndRecords(t *testing.T) {
	lc := startCluster(t, 4, 2, ClusterConfig{})
	client := &http.Client{Timeout: 5 * time.Second}

	// Generate skewed beacon load: hammer a handful of documents.
	for i := 0; i < 12; i++ {
		url := fmt.Sprintf("http://live/doc/%d", i)
		for k := 0; k < 8; k++ {
			getDoc(t, client, lc.Cfg.Addrs["live-02"], url)
		}
	}
	before := lc.Origin.Assignments()

	var rr RebalanceResponse
	if err := postJSON(client, lc.Cfg.OriginAddr+"/rebalance", struct{}{}, &rr); err != nil {
		t.Fatal(err)
	}
	after := lc.Origin.Assignments()

	// The layout must remain a valid partition on every ring.
	for ringIdx, subs := range after.Rings {
		next := 0
		for _, s := range subs {
			if s.Lo != next || s.Hi < s.Lo {
				t.Fatalf("ring %d broken partition: %+v", ringIdx, subs)
			}
			next = s.Hi + 1
		}
		if next != lc.Cfg.IntraGen {
			t.Fatalf("ring %d partition ends at %d", ringIdx, next)
		}
	}
	_ = before

	// Every document must still be resolvable and serve correctly after
	// the rebalance (records moved with their sub-ranges).
	for i := 0; i < 12; i++ {
		url := fmt.Sprintf("http://live/doc/%d", i)
		dr := getDoc(t, client, lc.Cfg.Addrs["live-03"], url)
		if dr.Doc.URL != url {
			t.Fatalf("doc %s broken after rebalance: %+v", url, dr)
		}
		if dr.Source == "origin" {
			t.Fatalf("doc %s lost its holders after rebalance", url)
		}
	}

	// A second rebalance with no new load must leave the layout stable.
	if err := postJSON(client, lc.Cfg.OriginAddr+"/rebalance", struct{}{}, &rr); err != nil {
		t.Fatal(err)
	}
}

func TestLiveStatsEndpoints(t *testing.T) {
	lc := startCluster(t, 2, 2, ClusterConfig{})
	client := &http.Client{Timeout: 5 * time.Second}
	getDoc(t, client, lc.Cfg.Addrs["live-00"], "http://live/doc/1")
	getDoc(t, client, lc.Cfg.Addrs["live-00"], "http://live/doc/1")

	st := cacheStats(t, client, lc.Cfg.Addrs["live-00"])
	if st.Node != "live-00" || st.StoredDocs != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.LocalHits != 1 || st.OriginMiss != 1 {
		t.Fatalf("hit accounting = %+v", st)
	}
	if st.HitRate != 0.5 {
		t.Fatalf("hit rate = %v, want 0.5", st.HitRate)
	}

	var os OriginStats
	if err := getJSON(client, lc.Cfg.OriginAddr+"/stats", &os); err != nil {
		t.Fatal(err)
	}
	if os.Documents != 200 || os.Fetches != 1 {
		t.Fatalf("origin stats = %+v", os)
	}
}

func TestLiveUtilityPlacement(t *testing.T) {
	lc := startCluster(t, 4, 2, ClusterConfig{UtilityPlacement: true})
	client := &http.Client{Timeout: 5 * time.Second}
	url := "http://live/doc/9"

	// First retrieval: first copy in the cloud, DAC=1 → stored.
	dr := getDoc(t, client, lc.Cfg.Addrs["live-00"], url)
	if !dr.Stored {
		t.Fatalf("first copy not stored under utility placement: %+v", dr)
	}
}

func TestLiveClusterBadConfig(t *testing.T) {
	if _, err := StartLocalCluster([]string{"a"}, 2, nil, ClusterConfig{}); err == nil {
		t.Fatal("undersized cluster accepted")
	}
	if _, err := NewCacheNode("ghost", ClusterConfig{IntraGen: 10, Addrs: map[string]string{}}); err == nil {
		t.Fatal("cache node without address accepted")
	}
	if _, err := NewCacheNode("a", ClusterConfig{IntraGen: 0, Addrs: map[string]string{"a": "x"}}); err == nil {
		t.Fatal("cache node with zero IntraGen accepted")
	}
	if _, err := NewOriginNode(ClusterConfig{IntraGen: 0}, nil); err == nil {
		t.Fatal("origin with zero IntraGen accepted")
	}
	if _, err := NewOriginNode(ClusterConfig{IntraGen: 5}, nil); err == nil {
		t.Fatal("origin without rings accepted")
	}
}

func TestLiveFetchMissingDoc(t *testing.T) {
	lc := startCluster(t, 2, 2, ClusterConfig{})
	client := &http.Client{Timeout: 5 * time.Second}
	var fr FetchResponse
	err := getJSON(client, lc.Cfg.Addrs["live-00"]+"/fetch?url=absent", &fr)
	if err != errNotFound {
		t.Fatalf("err = %v, want errNotFound", err)
	}
}

// A full failure-handling cycle: records are lazily replicated to ring
// siblings, a node crashes, the origin detects it, repairs the sub-range
// layout, and lookups for the dead beacon's documents keep working with
// their holder lists intact.
func TestLiveFailureRepairWithReplication(t *testing.T) {
	lc := startCluster(t, 4, 2, ClusterConfig{})
	client := &http.Client{Timeout: 5 * time.Second}

	// Populate: every node requests a slice of the catalog so each beacon
	// owns some records and some docs have holders.
	urls := make([]string, 24)
	for i := range urls {
		urls[i] = fmt.Sprintf("http://live/doc/%d", i)
		nodeName := fmt.Sprintf("live-%02d", i%4)
		getDoc(t, client, lc.Cfg.Addrs[nodeName], urls[i])
	}

	// Lazy replication pass.
	if err := postJSON(client, lc.Cfg.OriginAddr+"/replicate", struct{}{}, nil); err != nil {
		t.Fatal(err)
	}

	// No dead nodes yet: repair is a no-op.
	var rr RepairResponse
	if err := postJSON(client, lc.Cfg.OriginAddr+"/repair", struct{}{}, &rr); err != nil {
		t.Fatal(err)
	}
	if len(rr.Removed) != 0 {
		t.Fatalf("healthy cluster repaired: %+v", rr)
	}

	// Crash one node.
	if !lc.StopNode("live-01") {
		t.Fatal("StopNode failed")
	}
	if lc.StopNode("live-01") {
		t.Fatal("double StopNode succeeded")
	}

	if err := postJSON(client, lc.Cfg.OriginAddr+"/repair", struct{}{}, &rr); err != nil {
		t.Fatal(err)
	}
	if len(rr.Removed) != 1 || rr.Removed[0] != "live-01" {
		t.Fatalf("repair removed %v, want [live-01]", rr.Removed)
	}

	// The layout must no longer mention the dead node and must still be a
	// valid partition per ring.
	after := lc.Origin.Assignments()
	for ringIdx, subs := range after.Rings {
		next := 0
		for _, s := range subs {
			if s.Node == "live-01" {
				t.Fatal("dead node still in assignment")
			}
			if s.Lo != next {
				t.Fatalf("ring %d broken partition after repair: %+v", ringIdx, subs)
			}
			next = s.Hi + 1
		}
		if next != lc.Cfg.IntraGen {
			t.Fatalf("ring %d partition ends at %d after repair", ringIdx, next)
		}
	}

	// Every document must still be servable from a surviving node, and
	// documents whose copies live on surviving holders must not fall back
	// to the origin (their records were recovered from replicas).
	recoveredWithHolders := 0
	for i, u := range urls {
		if i%4 == 1 {
			continue // stored only on the dead node
		}
		dr := getDoc(t, client, lc.Cfg.Addrs["live-00"], u)
		if dr.Doc.URL != u {
			t.Fatalf("doc %s unservable after repair", u)
		}
		if dr.Source != "origin" {
			recoveredWithHolders++
		}
	}
	if recoveredWithHolders == 0 {
		t.Fatal("no lookups survived the crash — replica promotion failed")
	}

	// Updates still propagate through the repaired layout.
	var pr PublishResponse
	if err := postJSON(client, lc.Cfg.OriginAddr+"/publish", PublishRequest{URL: urls[0]}, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Version != 2 {
		t.Fatalf("publish after repair version = %d", pr.Version)
	}
}

// Without the replication pass, a crash loses the dead beacon's records:
// lookups for its documents return empty holder lists and requests fall
// back to the origin.
func TestLiveFailureWithoutReplicationLosesRecords(t *testing.T) {
	lc := startCluster(t, 4, 2, ClusterConfig{})
	client := &http.Client{Timeout: 5 * time.Second}
	urls := make([]string, 24)
	for i := range urls {
		urls[i] = fmt.Sprintf("http://live/doc/%d", i)
		getDoc(t, client, lc.Cfg.Addrs["live-02"], urls[i])
	}
	lc.StopNode("live-01")
	var rr RepairResponse
	if err := postJSON(client, lc.Cfg.OriginAddr+"/repair", struct{}{}, &rr); err != nil {
		t.Fatal(err)
	}
	// Documents beaconed at the dead node lost their records; a request at
	// a node that does NOT store them must go back to the origin for at
	// least one of them.
	originFalls := 0
	for _, u := range urls {
		dr := getDoc(t, client, lc.Cfg.Addrs["live-00"], u)
		if dr.Source == "origin" {
			originFalls++
		}
	}
	if originFalls == 0 {
		t.Fatal("expected some origin fallbacks after unreplicated crash")
	}
}

// Concurrent wire traffic against a live cluster must stay consistent
// (run with -race).
func TestLiveConcurrentTraffic(t *testing.T) {
	lc := startCluster(t, 4, 2, ClusterConfig{})
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			client := &http.Client{Timeout: 5 * time.Second}
			nodeName := fmt.Sprintf("live-%02d", worker%4)
			for i := 0; i < 40; i++ {
				url := fmt.Sprintf("http://live/doc/%d", (worker*7+i)%50)
				var dr DocResponse
				if err := getJSON(client, lc.Cfg.Addrs[nodeName]+"/doc?url="+queryEscape(url), &dr); err != nil {
					t.Error(err)
					return
				}
				if i%10 == 5 {
					_ = postJSON(client, lc.Cfg.OriginAddr+"/publish", PublishRequest{URL: url}, nil)
				}
			}
		}(w)
	}
	// Rebalances and replication race with the traffic.
	wg.Add(1)
	go func() {
		defer wg.Done()
		client := &http.Client{Timeout: 10 * time.Second}
		for i := 0; i < 5; i++ {
			if err := postJSON(client, lc.Cfg.OriginAddr+"/rebalance", struct{}{}, nil); err != nil {
				t.Error(err)
				return
			}
			if err := postJSON(client, lc.Cfg.OriginAddr+"/replicate", struct{}{}, nil); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()

	// Every document must still serve.
	client := &http.Client{Timeout: 5 * time.Second}
	for i := 0; i < 50; i++ {
		url := fmt.Sprintf("http://live/doc/%d", i)
		dr := getDoc(t, client, lc.Cfg.Addrs["live-00"], url)
		if dr.Doc.URL != url {
			t.Fatalf("doc %s broken after concurrent stress", url)
		}
	}
}

func TestLiveSubrangesObservability(t *testing.T) {
	lc := startCluster(t, 4, 2, ClusterConfig{})
	client := &http.Client{Timeout: 5 * time.Second}
	var a Assignments
	if err := getJSON(client, lc.Cfg.Addrs["live-00"]+"/subranges", &a); err != nil {
		t.Fatal(err)
	}
	if len(a.Rings) != 2 {
		t.Fatalf("rings = %d", len(a.Rings))
	}
	for ringIdx, subs := range a.Rings {
		next := 0
		for _, s := range subs {
			if s.Lo != next {
				t.Fatalf("ring %d gap at %d", ringIdx, next)
			}
			next = s.Hi + 1
		}
		if next != lc.Cfg.IntraGen {
			t.Fatalf("ring %d ends at %d", ringIdx, next)
		}
	}
}

func TestMetricsEndpoints(t *testing.T) {
	lc := startCluster(t, 2, 2, ClusterConfig{})
	client := &http.Client{Timeout: 5 * time.Second}
	getDoc(t, client, lc.Cfg.Addrs["live-00"], "http://live/doc/1")

	fetchText := func(url string) string {
		resp, err := client.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = resp.Body.Close() }()
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Fatalf("content type %q", ct)
		}
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}

	nodeMetrics := fetchText(lc.Cfg.Addrs["live-00"] + "/metrics")
	for _, want := range []string{
		"cachecloud_node_local_hits_total", "cachecloud_node_stored_documents",
		`node="live-00"`, "# TYPE",
	} {
		if !strings.Contains(nodeMetrics, want) {
			t.Fatalf("node metrics missing %q:\n%s", want, nodeMetrics)
		}
	}
	if !strings.Contains(nodeMetrics, "cachecloud_node_stored_documents{node=\"live-00\"} 1") {
		t.Fatalf("stored_documents gauge wrong:\n%s", nodeMetrics)
	}

	originMetrics := fetchText(lc.Cfg.OriginAddr + "/metrics")
	for _, want := range []string{
		"cachecloud_origin_documents 200", "cachecloud_origin_fetches_total 1",
		"cachecloud_origin_nodes_down 0",
	} {
		if !strings.Contains(originMetrics, want) {
			t.Fatalf("origin metrics missing %q:\n%s", want, originMetrics)
		}
	}
}

// A store-backed node must expose the durable-tier gauges; their closures
// only run at render time, so an actual scrape is the test.
func TestDurableMetricsExposition(t *testing.T) {
	lc := startCluster(t, 2, 2, ClusterConfig{StoreDir: t.TempDir()})
	client := &http.Client{Timeout: 5 * time.Second}
	getDoc(t, client, lc.Cfg.Addrs["live-00"], "http://live/doc/1")

	resp, err := client.Get(lc.Cfg.Addrs["live-00"] + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		"cachecloud_node_store_segments{node=\"live-00\"} 1",
		"cachecloud_node_store_bytes",
		"cachecloud_node_store_dead_bytes",
		"cachecloud_node_store_truncations_total",
		"cachecloud_node_store_compactions_total",
		"cachecloud_node_warm_boot{node=\"live-00\"} 0",
		"cachecloud_node_warm_recovered",
		"cachecloud_node_warm_revalidated_total",
		"cachecloud_node_warm_dropped_total",
		"cachecloud_node_durable_errors_total{node=\"live-00\"} 0",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("durable metrics missing %q:\n%s", want, text)
		}
	}
}
