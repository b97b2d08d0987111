package node

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cachecloud/internal/admit"
	"cachecloud/internal/document"
	"cachecloud/internal/tenant"
)

// tenantGet issues GET /doc to one node on behalf of a tenant (the
// empty ID is the default tenant: no header on the wire). It never
// fails the test itself so storm goroutines can call it; the caller
// inspects the status code.
func tenantGet(c *http.Client, base, tid, url string) (DocResponse, int, []byte, error) {
	req, err := http.NewRequest(http.MethodGet, base+"/doc?url="+queryEscape(url), nil)
	if err != nil {
		return DocResponse{}, 0, nil, err
	}
	if tid != "" {
		req.Header.Set(TenantHeader, tid)
	}
	resp, err := c.Do(req)
	if err != nil {
		return DocResponse{}, 0, nil, err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	var dr DocResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, &dr); err != nil {
			return DocResponse{}, resp.StatusCode, body, err
		}
	}
	return dr, resp.StatusCode, body, nil
}

// TestTenantIsolationProperty is the cross-tenant isolation property
// test: a random (seeded) schedule of per-tenant document requests,
// origin publishes, global purges, and one crash/warm-restart cycle
// runs against a live multi-tenant cluster, with a per-tenant model map
// of the version each tenant must observe. The isolation law under
// test:
//
//   - a scoped tenant's copy is version-sticky: origin publishes fan
//     out only to default-tenant (plain-key) holders, and global purges
//     target only the plain key, so once a tenant has fetched a
//     document it keeps observing exactly that version — across other
//     tenants' traffic, publishes, purges, and a durable-log replay;
//   - the default tenant always tracks the origin's current version;
//   - no request is ever answered with another tenant's document (the
//     served key's tenant label must match the requester on every
//     single response);
//   - the durable log replays only keys whose tenant label and version
//     match what that tenant actually fetched;
//   - per-tenant conservation holds on every node at quiescence.
func TestTenantIsolationProperty(t *testing.T) {
	const (
		nodes    = 4
		ringSize = 2
		catalog  = 12
		steps    = 240
	)
	names := make([]string, nodes)
	for i := range names {
		names[i] = fmt.Sprintf("s%d", i)
	}
	docs := testCatalog(catalog)
	lc, err := StartLocalCluster(names, ringSize, docs, ClusterConfig{
		IntraGen: 200, MaxInflight: 64, MissQueue: 64, StoreDir: t.TempDir(),
		Tenants: map[string]tenant.Quota{
			"acme":    {Weight: 1},
			"globex":  {Weight: 1},
			"initech": {Weight: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lc.Close)

	httpc := &http.Client{Timeout: 30 * time.Second}
	tenants := []string{"", "acme", "globex", "initech"}
	scoped := tenants[1:]

	// model[tid][url] is the version tenant tid observed on its first
	// fetch of url — sticky forever after. originVersion[url] is the
	// origin's current version, which the default tenant must track.
	model := make(map[string]map[string]document.Version, len(scoped))
	for _, tid := range scoped {
		model[tid] = make(map[string]document.Version)
	}
	originVersion := make(map[string]document.Version, catalog)

	checkGet := func(entry, tid, u string) {
		t.Helper()
		dr, code, body, err := tenantGet(httpc, lc.Cfg.Addrs[entry], tid, u)
		if err != nil || code != http.StatusOK {
			t.Fatalf("GET %s as %q via %s: code %d err %v body %s", u, tid, entry, code, err, body)
		}
		gotTid, gotURL := document.SplitTenantKey(dr.Doc.URL)
		if gotTid != tid || gotURL != u {
			t.Fatalf("tenant %q asked for %s, served key (%q,%s): cross-tenant leak", tid, u, gotTid, gotURL)
		}
		if tid == "" {
			if v, known := originVersion[u]; known {
				if dr.Doc.Version != v {
					t.Fatalf("default tenant saw %s v%d, origin is at v%d", u, dr.Doc.Version, v)
				}
			} else {
				originVersion[u] = dr.Doc.Version
			}
			return
		}
		if v, known := model[tid][u]; known {
			if dr.Doc.Version != v {
				t.Fatalf("tenant %q saw %s v%d, first fetched v%d: cross-tenant invalidation leak",
					tid, u, dr.Doc.Version, v)
			}
		} else {
			model[tid][u] = dr.Doc.Version
		}
	}

	rng := rand.New(rand.NewSource(1849))
	restartAt := steps / 2
	for step := 0; step < steps; step++ {
		if step == restartAt {
			// Make sure the victim holds scoped copies, then crash it and
			// restart it over its durable log.
			for _, tid := range scoped {
				for i := 0; i < 3; i++ {
					checkGet("s1", tid, docs[i].URL)
				}
			}
			held := lc.Caches["s1"].StoredVersions()
			if len(held) == 0 {
				t.Fatal("victim held nothing before the crash; restart leg is vacuous")
			}
			if !lc.StopNode("s1") {
				t.Fatal("StopNode refused")
			}
			cn, err := lc.RestartNode("s1", nil)
			if err != nil {
				t.Fatalf("restart s1: %v", err)
			}
			warm, recovered := cn.WarmBootInfo()
			if !warm || recovered != len(held) {
				t.Fatalf("warm boot recovered %d (warm=%v), held %d at kill", recovered, warm, len(held))
			}
			// Durable-log replay isolation: every recovered scoped key must
			// belong to a tenant that actually fetched it, at exactly the
			// version that tenant observed.
			for key, v := range cn.StoredVersions() {
				tid, plain := document.SplitTenantKey(key)
				if tid == "" {
					continue
				}
				want, known := model[tid][plain]
				if !known {
					t.Fatalf("replay resurrected %s for tenant %q, which never fetched it", plain, tid)
				}
				if v != want {
					t.Fatalf("replay gave tenant %q %s v%d, it fetched v%d", tid, plain, v, want)
				}
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			kept, dropped := cn.WarmRevalidate(ctx)
			if kept+dropped != recovered {
				t.Fatalf("revalidation books: kept %d + dropped %d != recovered %d", kept, dropped, recovered)
			}
			// Anti-entropy on the survivors re-registers their copies with
			// the restarted node's rebuilt beacon records.
			for _, name := range names {
				lc.Caches[name].Reconcile(ctx)
			}
			cancel()
		}
		u := docs[rng.Intn(catalog)].URL
		switch op := rng.Intn(100); {
		case op < 70:
			checkGet(names[rng.Intn(nodes)], tenants[rng.Intn(len(tenants))], u)
		case op < 85:
			var pr PublishResponse
			if err := postJSON(httpc, lc.Cfg.OriginAddr+"/publish", PublishRequest{URL: u}, &pr); err != nil {
				t.Fatalf("publish %s: %v", u, err)
			}
			originVersion[u] = pr.Version
		default:
			var gpr PurgeResponse
			if err := postJSON(httpc, lc.Cfg.OriginAddr+"/purge", PurgeRequest{URL: u, Scope: PurgeScopeGlobal}, &gpr); err != nil {
				t.Fatalf("purge %s: %v", u, err)
			}
		}
	}

	// Final sweep: every recorded (tenant, url) observation must still
	// hold from fresh entry points after all the churn.
	for _, tid := range scoped {
		for u := range model[tid] {
			checkGet(names[rng.Intn(nodes)], tid, u)
			checkGet(names[rng.Intn(nodes)], tid, u)
		}
	}
	for u := range originVersion {
		checkGet(names[rng.Intn(nodes)], "", u)
	}

	// Per-tenant conservation on every node at quiescence.
	for name, n := range lc.Caches {
		for tid, ts := range n.TenantAdmission() {
			if ts.Served+ts.Shed+ts.Failed != ts.Requests {
				t.Fatalf("%s tenant %q conservation violated: served %d + shed %d + failed %d != requests %d",
					name, tid, ts.Served, ts.Shed, ts.Failed, ts.Requests)
			}
		}
	}

	// Tenant visibility on the observability surfaces: /stats carries the
	// per-tenant block, /metrics the tenant-labelled series.
	resp, err := httpc.Get(lc.Cfg.Addrs["s0"] + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	statsBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var st CacheStats
	if err := json.Unmarshal(statsBody, &st); err != nil {
		t.Fatalf("decode /stats: %v", err)
	}
	if _, ok := st.Tenants["acme"]; !ok {
		t.Fatalf("/stats has no tenant block for acme: %s", statsBody)
	}
	resp, err = httpc.Get(lc.Cfg.Addrs["s0"] + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metricsBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	want := `cachecloud_node_tenant_requests_total{node="s0",tenant="acme"}`
	if !strings.Contains(string(metricsBody), want) {
		t.Fatalf("/metrics missing tenant-labelled series %s", want)
	}
}

// TestTenantQuotaEvictionsMetric: a tenant evicting under its byte quota
// shows on /metrics, per tenant, and nowhere in the /stats JSON.
func TestTenantQuotaEvictionsMetric(t *testing.T) {
	lc := startCluster(t, 2, 2, ClusterConfig{
		Tenants: map[string]tenant.Quota{"acme": {Weight: 1, Bytes: 2500}, "globex": {Weight: 1}},
	})
	httpc := &http.Client{Timeout: 10 * time.Second}
	base := lc.Cfg.Addrs["live-00"]
	for _, d := range testCatalog(4) { // ~1 KB each: the third and fourth store evict
		for _, tid := range []string{"acme", "globex"} {
			if _, code, body, err := tenantGet(httpc, base, tid, d.URL); err != nil || code != http.StatusOK {
				t.Fatalf("%s get %s: status %d err %v: %s", tid, d.URL, code, err, body)
			}
		}
	}
	get := func(path string) string {
		resp, err := httpc.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	metrics := get("/metrics")
	for _, want := range []string{
		`cachecloud_node_tenant_quota_evictions_total{node="live-00",tenant="acme"} 2`,
		`cachecloud_node_tenant_quota_evictions_total{node="live-00",tenant="globex"} 0`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics lacks %s", want)
		}
	}
	if stats := get("/stats"); strings.Contains(strings.ToLower(stats), "evict") {
		t.Errorf("/stats JSON grew an eviction field: %s", stats)
	}
}

// TestTenantHeaderValidation pins the wire contract: an invalid tenant
// ID is a 400 before any admission or counter work, on /doc and on the
// cooperation endpoints that fold the tenant into the key.
func TestTenantHeaderValidation(t *testing.T) {
	lc := startCluster(t, 2, 2, ClusterConfig{
		Tenants: map[string]tenant.Quota{"acme": {Weight: 1}},
	})
	httpc := &http.Client{Timeout: 10 * time.Second}
	badID := strings.Repeat("a", 65) // over the 64-byte ID bound
	for _, path := range []string{"/doc?url=", "/lookup?url=", "/fetch?url="} {
		req, err := http.NewRequest(http.MethodGet, lc.Cfg.Addrs["live-00"]+path+queryEscape("http://live/doc/0"), nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(TenantHeader, badID)
		resp, err := httpc.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET %s with invalid tenant: status %d, want 400", path, resp.StatusCode)
		}
	}
	for _, n := range lc.Caches {
		for tid, ts := range n.TenantAdmission() {
			if ts.Requests != 0 {
				t.Fatalf("invalid-tenant request was counted against %q: %+v", tid, ts)
			}
		}
	}
}

// TestChaosNoisyNeighborTenantStorm is the noisy-neighbor end-to-end
// under -race: an aggressor tenant throws a hot-document flash crowd at
// a cluster whose origin is slowed, while a victim tenant keeps serving
// its warm working set. The multi-tenant contract under chaos:
//
//   - the victim's hit ratio under the storm stays within epsilon of its
//     solo baseline (the aggressor cannot evict the victim's copies or
//     starve it out of admission);
//   - the aggressor's resident bytes never exceed its byte quota on any
//     node;
//   - the aggressor is shed at its fair share with a typed 429 whose
//     body names the tenant and the tenant-share reason;
//   - per-tenant conservation (Requests == Served + Shed + Failed) is
//     exact on every node at quiescence, for every tenant.
func TestChaosNoisyNeighborTenantStorm(t *testing.T) {
	checkLeaks(t)
	const (
		nodes       = 4
		ringSize    = 2
		catalog     = 32
		workingSet  = 16
		aggrClients = 64
		aggrRounds  = 6
		aggrQuota   = 4000 // ~3 of the ~1KB catalog documents per node
		epsilon     = 0.1
	)
	names := make([]string, nodes)
	for i := range names {
		names[i] = fmt.Sprintf("s%d", i)
	}
	docs := testCatalog(catalog)
	victimDocs := docs[:workingSet]
	aggrDocs := docs[workingSet:]
	lc, _ := startStormCluster(t, names, ringSize, docs, ClusterConfig{
		IntraGen: 200, MaxInflight: 32, MissQueue: 32,
		Tenants: map[string]tenant.Quota{
			"victim": {Weight: 7},
			"aggr":   {Weight: 1, Bytes: aggrQuota},
		},
	}, 5*time.Millisecond)
	httpc := &http.Client{Timeout: 30 * time.Second}

	// Prime the victim's working set through its edge node, then measure
	// the solo baseline hit ratio with no competing traffic.
	for _, d := range victimDocs {
		if _, code, body, err := tenantGet(httpc, lc.Cfg.Addrs["s0"], "victim", d.URL); err != nil || code != http.StatusOK {
			t.Fatalf("prime %s: code %d err %v body %s", d.URL, code, err, body)
		}
	}
	baselineHits := 0
	for _, d := range victimDocs {
		dr, code, _, err := tenantGet(httpc, lc.Cfg.Addrs["s0"], "victim", d.URL)
		if err != nil || code != http.StatusOK {
			t.Fatalf("baseline GET %s: code %d err %v", d.URL, code, err)
		}
		if dr.Source != "origin" {
			baselineHits++
		}
	}
	baseline := float64(baselineHits) / float64(workingSet)
	if baseline < 0.9 {
		t.Fatalf("solo baseline hit ratio %.2f; working set did not prime", baseline)
	}

	// The storm: aggressor flash crowd across every entry node against a
	// slowed origin, victim measured traffic through its own edge node,
	// concurrently.
	var wg sync.WaitGroup
	var shedBody atomic.Value // first 429 body carrying the tenant-share reason
	for g := 0; g < aggrClients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)*7919 + 11))
			for i := 0; i < aggrRounds; i++ {
				entry := names[rng.Intn(nodes)]
				u := aggrDocs[rng.Intn(len(aggrDocs))].URL
				_, code, body, err := tenantGet(httpc, lc.Cfg.Addrs[entry], "aggr", u)
				if err != nil {
					continue
				}
				if code == http.StatusTooManyRequests &&
					strings.Contains(string(body), admit.ReasonTenantShare) &&
					shedBody.Load() == nil {
					shedBody.Store(body)
				}
			}
		}(g)
	}
	stormHits, stormTotal := 0, 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		for pass := 0; pass < 3; pass++ {
			for _, d := range victimDocs {
				dr, code, _, err := tenantGet(httpc, lc.Cfg.Addrs["s0"], "victim", d.URL)
				stormTotal++
				if err == nil && code == http.StatusOK && dr.Source != "origin" {
					stormHits++
				}
			}
		}
	}()
	wg.Wait()

	// Victim isolation: hit ratio under the storm within epsilon of solo.
	stormRatio := float64(stormHits) / float64(stormTotal)
	if stormRatio < baseline-epsilon {
		t.Fatalf("victim hit ratio degraded %.3f -> %.3f under the aggressor storm (epsilon %.2f)",
			baseline, stormRatio, epsilon)
	}

	// The aggressor was shed at its share, with a typed body naming it.
	body, _ := shedBody.Load().([]byte)
	if body == nil {
		t.Fatal("aggressor storm produced no tenant-share 429; fair share never engaged")
	}
	if !strings.Contains(string(body), `"tenant":"aggr"`) {
		t.Fatalf("tenant-share 429 body does not name the tenant: %s", body)
	}

	var aggrShed int64
	for name, n := range lc.Caches {
		stats := n.TenantAdmission()
		for tid, ts := range stats {
			if ts.Served+ts.Shed+ts.Failed != ts.Requests {
				t.Fatalf("%s tenant %q conservation violated: served %d + shed %d + failed %d != requests %d",
					name, tid, ts.Served, ts.Shed, ts.Failed, ts.Requests)
			}
		}
		// Quota isolation: the aggressor's residency is capped per node;
		// the victim was never shed (its share dwarfs its concurrency).
		if rb := stats["aggr"].ResidentBytes; rb > aggrQuota {
			t.Fatalf("%s aggr resident bytes %d exceed quota %d", name, rb, aggrQuota)
		}
		if vs := stats["victim"].Shed; vs != 0 {
			t.Fatalf("%s shed %d victim requests during the aggressor's storm", name, vs)
		}
		aggrShed += stats["aggr"].Shed
	}
	if aggrShed == 0 {
		t.Fatal("no node shed the aggressor; the storm never hit the fair share")
	}

	// Cluster quiescence after the storm.
	if sum := sumAdmission(lc); sum.GateInFlight != 0 || sum.GateQueued != 0 ||
		sum.LimiterInFlight != 0 || sum.LimiterQueued != 0 || sum.FlightsActive != 0 {
		t.Fatalf("cluster not quiescent after the storm: %+v", sum)
	}
}

// TestTenantOverflowConservation: tenant IDs past the ones that get
// counters of their own are counted under one entry that /stats and
// /metrics name, and conservation holds for it as for every other: per
// entry, and summed against the node's own counters.
func TestTenantOverflowConservation(t *testing.T) {
	lc := startCluster(t, 2, 2, ClusterConfig{
		Tenants: map[string]tenant.Quota{"acme": {Weight: 1}},
	})
	httpc := &http.Client{Timeout: 10 * time.Second}
	base, n := lc.Cfg.Addrs["live-00"], lc.Caches["live-00"]
	const beyond = 40
	ids := []string{"", "acme", overflowTenant}
	for i := 0; i < maxUnregisteredTenants+beyond; i++ {
		ids = append(ids, fmt.Sprintf("t%d", i))
	}
	for round := 0; round < 2; round++ { // a miss, then a hit
		for _, tid := range ids {
			if _, code, body, err := tenantGet(httpc, base, tid, "http://live/doc/1"); err != nil || code != http.StatusOK {
				t.Fatalf("tenant %q: %d %s %v", tid, code, body, err)
			}
		}
	}
	stats := n.TenantAdmission()
	if got := len(stats); got != maxUnregisteredTenants+3 {
		t.Errorf("%d entries, want the default tenant, acme, %d more and %q", got, maxUnregisteredTenants, overflowTenant)
	}
	if got := stats[overflowTenant].Requests; got != 2*(beyond+1) {
		t.Errorf("%d requests under %q, want %d", got, overflowTenant, 2*(beyond+1))
	}
	var sum int64
	for tid, ts := range stats {
		if ts.Served+ts.Shed+ts.Failed != ts.Requests {
			t.Errorf("tenant %q: %+v does not add up", tid, ts)
		}
		sum += ts.Requests
	}
	if st := n.Admission(); sum != st.Requests || sum != int64(2*len(ids)) {
		t.Errorf("the tenants' entries count %d requests, the node %d, sent %d", sum, st.Requests, 2*len(ids))
	}
	var st CacheStats
	if err := getJSON(httpc, base+"/stats", &st); err != nil {
		t.Fatal(err)
	}
	if got := st.Tenants[overflowTenant].Requests; got != 2*(beyond+1) {
		t.Errorf("/stats counts %d requests under %q", got, overflowTenant)
	}
	resp, err := httpc.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if want := fmt.Sprintf("cachecloud_node_tenant_requests_total{node=\"live-00\",tenant=%q} %d\n", overflowTenant, 2*(beyond+1)); !strings.Contains(string(metrics), want) {
		t.Errorf("/metrics lacks %q", want)
	}
}
