package node

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cachecloud/internal/document"
)

// shieldCluster boots a two-shield cluster, its participants on the
// transports mk makes (nil: their own), and returns it plus the shield
// names in failover order for this cloud (owner first).
func shieldCluster(t *testing.T, opts ClusterConfig, mk TransportFactory) (*LocalCluster, []string) {
	t.Helper()
	opts.Shields = []string{"s0", "s1"}
	lc := startClusterWith(t, 4, 2, opts, mk)
	router, err := NewShieldRouter(lc.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	order := []string{router.Owner()}
	for _, name := range lc.Cfg.Shields {
		if name != router.Owner() {
			order = append(order, name)
		}
	}
	return lc, order
}

// TestShieldTierEndToEnd drives the full two-tier protocol over live HTTP:
// a cloud miss resolves cloud → shield → origin and subscribes the cloud,
// the first publish sends one versioned update to each shield (none has
// declined one yet) which fans out to the subscribed cloud, a global purge
// empties both tiers, and a
// cloud-scoped purge drops only the edge copies — the next miss is a
// shield hit.
func TestShieldTierEndToEnd(t *testing.T) {
	lc, order := shieldCluster(t, ClusterConfig{}, nil)
	client := &http.Client{Timeout: 5 * time.Second}
	url := "http://live/doc/7"
	entry := lc.Cfg.Addrs["live-00"]
	owner := lc.Shields[order[0]]

	// Miss path: cloud → shield → origin.
	dr := getDoc(t, client, entry, url)
	if dr.Source != "origin" || !dr.Stored {
		t.Fatalf("first request: %+v", dr)
	}
	st := cacheStats(t, client, entry)
	if st.ShieldFetches != 1 || st.ShieldHits != 0 || st.ShieldDegraded != 0 {
		t.Fatalf("first-miss shield stats: %+v", st)
	}
	if v, held := owner.HeldVersions()[url]; !held || v != 1 {
		t.Fatalf("owner shield copy: held=%v v=%d", held, v)
	}
	if subs := owner.Subscribers(url); len(subs) != 1 || subs[0] != "cloud0" {
		t.Fatalf("owner shield subscribers = %v", subs)
	}
	if held := lc.Shields[order[1]].HeldVersions(); len(held) != 0 {
		t.Fatalf("non-owner shield holds %v", held)
	}

	// Publish: one update per shield, fanned to the cloud.
	var pr PublishResponse
	if err := postJSON(client, lc.Cfg.OriginAddr+"/publish", PublishRequest{URL: url}, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Version != 2 || pr.ShieldsNotified != 2 || pr.Notified != 1 {
		t.Fatalf("publish: %+v", pr)
	}
	for _, name := range order {
		if got := lc.Shields[name].UpdatesIn(); got != 1 {
			t.Fatalf("shield %s saw %d updates, want exactly 1", name, got)
		}
	}
	if v := lc.Caches["live-00"].StoredVersions()[url]; v != 2 {
		t.Fatalf("cloud copy not refreshed through the tier: v=%d", v)
	}
	if v := owner.HeldVersions()[url]; v != 2 {
		t.Fatalf("shield copy not refreshed: v=%d", v)
	}

	// Global purge: both tiers drop the document and the generation bumps.
	var gpr PurgeResponse
	if err := postJSON(client, lc.Cfg.OriginAddr+"/purge", PurgeRequest{URL: url, Scope: PurgeScopeGlobal}, &gpr); err != nil {
		t.Fatal(err)
	}
	if gpr.ShieldsNotified != 2 || gpr.Dropped < 1 {
		t.Fatalf("global purge: %+v", gpr)
	}
	if _, held := owner.HeldVersions()[url]; held {
		t.Fatal("shield kept copy past a global purge")
	}
	for name, cn := range lc.Caches {
		if _, stored := cn.StoredVersions()[url]; stored {
			t.Fatalf("cache %s kept copy past a global purge", name)
		}
		for _, wr := range cn.Records() {
			if wr.URL == url {
				t.Fatalf("cache %s kept lookup record past a global purge", name)
			}
		}
		for _, wr := range cn.ReplicaSnapshot() {
			if wr.URL == url {
				t.Fatalf("cache %s kept replica past a global purge", name)
			}
		}
	}
	if gen := lc.Origin.PurgeGens()[url]; gen != 1 {
		t.Fatalf("purge generation = %d, want 1", gen)
	}

	// Re-fetch: the shield re-fetches from the origin and records the
	// current purge generation.
	dr = getDoc(t, client, entry, url)
	if dr.Doc.Version != 2 {
		t.Fatalf("post-purge fetch: %+v", dr)
	}
	if gen := owner.PurgeSeen(url); gen != 1 {
		t.Fatalf("shield purgeSeen = %d, want 1", gen)
	}

	// Cloud-scoped purge: edge copies drop, the shield keeps its copy, so
	// the next miss is absorbed by the shield tier.
	var cpr PurgeResponse
	req := PurgeRequest{URL: url, Scope: PurgeScopeCloud, Cloud: "cloud0"}
	if err := postJSON(client, lc.Cfg.OriginAddr+"/purge", req, &cpr); err != nil {
		t.Fatal(err)
	}
	if _, held := owner.HeldVersions()[url]; !held {
		t.Fatal("cloud-scoped purge dropped the shield copy")
	}
	for name, cn := range lc.Caches {
		if _, stored := cn.StoredVersions()[url]; stored {
			t.Fatalf("cache %s kept copy past a cloud-scoped purge", name)
		}
	}
	dr = getDoc(t, client, entry, url)
	if dr.Doc.Version != 2 {
		t.Fatalf("post-scoped-purge fetch: %+v", dr)
	}
	st = cacheStats(t, client, entry)
	if st.ShieldHits == 0 {
		t.Fatalf("re-fetch after scoped purge was not a shield hit: %+v", st)
	}
	if fetches := lc.Origin.Stats().Fetches; fetches != 2 {
		t.Fatalf("origin served %d fetches, want 2 (initial + post-global-purge)", fetches)
	}
}

// TestShieldFailoverAndDegraded kills shields out from under the clouds:
// with the owner down the fetch walks the ring to the sibling; with the
// whole tier down it degrades to a direct origin fetch, and the next
// reconcile pass re-subscribes the orphaned copy so publishes reach it
// again.
func TestShieldFailoverAndDegraded(t *testing.T) {
	lc, order := shieldCluster(t, ClusterConfig{StoreDir: t.TempDir()}, nil)
	client := &http.Client{Timeout: 5 * time.Second}
	url := "http://live/doc/11"
	entry := lc.Cfg.Addrs["live-01"]

	// Owner down: ring-order failover to the sibling shield.
	if !lc.StopNode(order[0]) {
		t.Fatalf("stop shield %s", order[0])
	}
	dr := getDoc(t, client, entry, url)
	if dr.Source != "origin" || dr.Doc.Version != 1 {
		t.Fatalf("failover fetch: %+v", dr)
	}
	st := cacheStats(t, client, entry)
	if st.ShieldFailover != 1 || st.ShieldDegraded != 0 {
		t.Fatalf("failover stats: %+v", st)
	}
	if _, held := lc.Shields[order[1]].HeldVersions()[url]; !held {
		t.Fatal("sibling shield did not absorb the failover fetch")
	}

	// Whole tier down: degraded direct-origin fetch, no subscription.
	if !lc.StopNode(order[1]) {
		t.Fatalf("stop shield %s", order[1])
	}
	url2 := "http://live/doc/12"
	dr = getDoc(t, client, entry, url2)
	if dr.Doc.Version != 1 {
		t.Fatalf("degraded fetch: %+v", dr)
	}
	st = cacheStats(t, client, entry)
	if st.ShieldDegraded != 1 {
		t.Fatalf("degraded stats: %+v", st)
	}

	// Heal the tier (warm restart from the durable log) and reconcile: the
	// degraded copy re-subscribes, so the next publish refreshes it.
	sn0, err := lc.RestartShield(order[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	// The owner never held a document before its crash, so its log is
	// empty and the boot is cold; only the recovered count matters.
	if _, recovered := sn0.WarmBootInfo(); recovered != 0 {
		t.Fatalf("owner recovered %d docs from an empty log", recovered)
	}
	sn1, err := lc.RestartShield(order[1], nil)
	if err != nil {
		t.Fatal(err)
	}
	if warm, recovered := sn1.WarmBootInfo(); !warm || recovered != 1 {
		t.Fatalf("sibling warm boot: warm=%v recovered=%d", warm, recovered)
	}
	holder := lc.Caches["live-01"]
	holder.Reconcile(context.Background())
	// The subscription may land on either shield: the holder's circuit
	// breaker for the crashed owner can still be open, in which case the
	// re-subscribing fetch fails over to the sibling — any live shield
	// carrying the subscription restores update delivery.
	subs := append(sn0.Subscribers(url2), sn1.Subscribers(url2)...)
	if len(subs) != 1 || subs[0] != "cloud0" {
		t.Fatalf("degraded copy not re-subscribed: sn0=%v sn1=%v",
			sn0.Subscribers(url2), sn1.Subscribers(url2))
	}
	var pr PublishResponse
	if err := postJSON(client, lc.Cfg.OriginAddr+"/publish", PublishRequest{URL: url2}, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.ShieldsNotified != 2 {
		t.Fatalf("post-heal publish: %+v", pr)
	}
	if v := holder.StoredVersions()[url2]; v != 2 {
		t.Fatalf("degraded copy not refreshed after re-subscription: v=%d", v)
	}
}

// TestShieldResyncAfterMissedTraffic crashes a shield, publishes and
// globally purges past it, then checks Reconcile catches the survivor up:
// stale held copies refresh from the origin and fan to subscribed clouds,
// missed purge generations drop copies.
func TestShieldResyncAfterMissedTraffic(t *testing.T) {
	lc, order := shieldCluster(t, ClusterConfig{}, nil)
	client := &http.Client{Timeout: 5 * time.Second}
	urlA, urlB := "http://live/doc/20", "http://live/doc/21"
	entry := lc.Cfg.Addrs["live-02"]

	getDoc(t, client, entry, urlA)
	getDoc(t, client, entry, urlB)
	owner := lc.Shields[order[0]]
	if len(owner.HeldVersions()) != 2 {
		t.Fatalf("owner held = %v", owner.HeldVersions())
	}

	// Partition the owner by swapping its handler for a 503; publishes and
	// purges land only on the sibling.
	srv := lc.byName[order[0]]
	old := srv.Config.Handler
	srv.Config.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "partitioned", http.StatusServiceUnavailable)
	})
	var pr PublishResponse
	if err := postJSON(client, lc.Cfg.OriginAddr+"/publish", PublishRequest{URL: urlA}, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.ShieldsNotified != 1 {
		t.Fatalf("partitioned publish: %+v", pr)
	}
	var gpr PurgeResponse
	if err := postJSON(client, lc.Cfg.OriginAddr+"/purge", PurgeRequest{URL: urlB, Scope: PurgeScopeGlobal}, &gpr); err != nil {
		t.Fatal(err)
	}
	if gpr.ShieldsNotified != 1 {
		t.Fatalf("partitioned purge: %+v", gpr)
	}
	srv.Config.Handler = old

	// The healed shield is stale: urlA at version 1 (origin at 2), urlB
	// still held past its purge. Resync fixes both and re-fans urlA.
	refreshed, purged := owner.Reconcile(context.Background())
	if refreshed != 1 || purged != 1 {
		t.Fatalf("resync: refreshed=%d purged=%d", refreshed, purged)
	}
	held := owner.HeldVersions()
	if held[urlA] != 2 {
		t.Fatalf("resync did not refresh urlA: %v", held)
	}
	if _, ok := held[urlB]; ok {
		t.Fatal("resync kept urlB past its purge generation")
	}
	if gen := owner.PurgeSeen(urlB); gen != 1 {
		t.Fatalf("resync purgeSeen = %d", gen)
	}
	if v := lc.Caches["live-02"].StoredVersions()[urlA]; v != 2 {
		t.Fatalf("resync fan-out did not refresh the cloud copy: v=%d", v)
	}
	if _, stored := lc.Caches["live-02"].StoredVersions()[urlB]; stored {
		t.Fatal("resync did not purge the cloud copy of urlB")
	}
}

// TestShieldObservability scrapes the shield's operational surface over
// live HTTP: /healthz identity, /stats accounting after a miss, Prometheus
// exposition on /metrics, and the /subranges assignment push.
func TestShieldObservability(t *testing.T) {
	lc, order := shieldCluster(t, ClusterConfig{}, nil)
	client := &http.Client{Timeout: 5 * time.Second}
	url := "http://live/doc/30"
	getDoc(t, client, lc.Cfg.Addrs["live-00"], url)

	owner := lc.Shields[order[0]]
	if owner.Name() != order[0] {
		t.Fatalf("Name() = %q, want %q", owner.Name(), order[0])
	}

	getJSON := func(addr string, out any) {
		resp, err := client.Get(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = resp.Body.Close() }()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d", addr, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}

	for _, name := range order {
		base := lc.Cfg.ShieldAddrs[name]
		var hz map[string]string
		getJSON(base+"/healthz", &hz)
		if hz["status"] != "ok" || hz["shield"] != name {
			t.Fatalf("healthz for %s = %v", name, hz)
		}
		var st ShieldStats
		getJSON(base+"/stats", &st)
		if st.Shield != name {
			t.Fatalf("stats shield = %q, want %q", st.Shield, name)
		}
		if name == order[0] {
			if st.HeldDocs != 1 || st.Subscriptions != 1 || st.Fetches != 1 || st.OriginFetches != 1 {
				t.Fatalf("owner stats after one miss: %+v", st)
			}
		} else if st.HeldDocs != 0 || st.Fetches != 0 {
			t.Fatalf("idle sibling stats: %+v", st)
		}
	}

	resp, err := client.Get(lc.Cfg.ShieldAddrs[order[0]] + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	text := string(raw)
	for _, want := range []string{
		"cachecloud_shield_fetches_total{shield=\"" + order[0] + "\"} 1",
		"cachecloud_shield_held_documents{shield=\"" + order[0] + "\"} 1",
		"cachecloud_shield_subscriptions{shield=\"" + order[0] + "\"} 1",
		"cachecloud_shield_origin_fetch_total",
		"# TYPE",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("shield metrics missing %q:\n%s", want, text)
		}
	}
	if owner.Metrics() == nil {
		t.Fatal("Metrics() registry is nil")
	}

	// The origin re-pushes beacon assignments to shields the same way it
	// does to cache nodes; a layout push must be accepted and a malformed
	// one rejected.
	var sr SubrangesResponse
	if err := postJSON(client, lc.Cfg.ShieldAddrs[order[0]]+"/subranges", Assignments{}, &sr); err != nil {
		t.Fatal(err)
	}
	bad, err := client.Post(lc.Cfg.ShieldAddrs[order[0]]+"/subranges", "application/json",
		strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	_ = bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed subranges push: %d", bad.StatusCode)
	}
}

// stubShield builds a lone shield, s0 of a two-node cloud, whose outbound
// calls go to tp.
func stubShield(t *testing.T, tp Transport, storeDir string) *ShieldNode {
	t.Helper()
	cfg := ClusterConfig{
		StoreDir:    storeDir,
		Fsync:       "never",
		IntraGen:    16,
		Rings:       [][]string{{"a", "b"}},
		Addrs:       map[string]string{"a": "http://a", "b": "http://b"},
		OriginAddr:  "http://origin",
		Shields:     []string{"s0"},
		ShieldAddrs: map[string]string{"s0": "http://s0"},
	}
	sn, err := NewShieldNodeWithTransport("s0", cfg, tp)
	if err != nil {
		t.Fatal(err)
	}
	return sn
}

// sfetch sends one /sfetch query to a shield's handler and returns the
// status and the decoded reply.
func sfetch(t *testing.T, h http.Handler, query string) (int, ShieldFetchResponse) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/sfetch?"+query, nil))
	var sfr ShieldFetchResponse
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &sfr); err != nil {
			t.Fatalf("sfetch?%s: %v", query, err)
		}
	}
	return rec.Code, sfr
}

// TestSfetchRefusesUnknownCloud: the shield routes one cloud, so a fetch
// naming any other is refused before it moves a counter or a table entry —
// it could only leave a subscription no fan-out can reach.
func TestSfetchRefusesUnknownCloud(t *testing.T) {
	sn := stubShield(t, originStub{}, "")
	h := sn.Handler()
	if code, _ := sfetch(t, h, "url="+queryEscape("http://shield/doc/0")+"&cloud="+liveCloud); code != http.StatusOK {
		t.Fatalf("fetch for %s: status %d", liveCloud, code)
	}
	for i := 0; i < 10000; i++ {
		q := fmt.Sprintf("url=%s&cloud=invented-%d", queryEscape(fmt.Sprintf("http://shield/doc/%d", i)), i)
		if code, _ := sfetch(t, h, q); code != http.StatusBadRequest {
			t.Fatalf("fetch %d for an invented cloud: status %d, want 400", i, code)
		}
	}
	if st := sn.Stats(); st.Subscriptions != 1 || st.HeldDocs != 1 || st.Fetches != 1 || st.OriginFetches != 1 {
		t.Fatalf("after 10,000 fetches for invented clouds: %+v", st)
	}
}

// versionedOrigin answers every origin fetch with the document at version v.
type versionedOrigin struct {
	fuzzTransport
	v *document.Version
}

func (o versionedOrigin) GetJSON(ctx context.Context, url string, out any) error {
	fr, ok := out.(*FetchResponse)
	if !ok {
		return fmt.Errorf("origin stub: unexpected call %s", url)
	}
	fr.Doc = document.Document{URL: "http://shield/doc/hint", Size: 1000, Version: *o.v}
	return nil
}

// TestShieldHintForcesRefresh: a shield holding version 1 of a document the
// origin has at version 2 — it missed the publish — serves its copy to a
// fetch whose hint it satisfies, and refreshes from the origin for a cloud
// that already has version 2, so the cloud never moves backwards.
func TestShieldHintForcesRefresh(t *testing.T) {
	v := document.Version(1)
	sn := stubShield(t, versionedOrigin{v: &v}, "")
	h := sn.Handler()
	q := "url=" + queryEscape("http://shield/doc/hint") + "&cloud=" + liveCloud + "&v="
	if _, sfr := sfetch(t, h, q+"0"); sfr.Doc.Version != 1 || sfr.ShieldHit {
		t.Fatalf("first fetch: %+v, want an origin fetch of version 1", sfr)
	}
	v = 2
	if _, sfr := sfetch(t, h, q+"1"); sfr.Doc.Version != 1 || !sfr.ShieldHit {
		t.Fatalf("fetch with hint 1: %+v, want the held version 1 as a hit", sfr)
	}
	if _, sfr := sfetch(t, h, q+"2"); sfr.Doc.Version != 2 || sfr.ShieldHit {
		t.Fatalf("fetch with hint 2: %+v, want version 2 from the origin", sfr)
	}
	if held := sn.HeldVersions()["http://shield/doc/hint"]; held != 2 {
		t.Fatalf("shield holds version %d after the refresh, want 2", held)
	}
}
