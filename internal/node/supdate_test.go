package node

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cachecloud/internal/document"
)

// Messages that reach no copy: the origin skips a shield that declined an
// update until the document is fetched again (originDoc, ShieldNode.
// handleUpdate), and a beacon that holds the document answers a registering
// lookup with it (CacheNode.handleLookup).

// scrape returns base's /metrics body.
func scrape(t *testing.T, client *http.Client, base string) string {
	t.Helper()
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

func publish(t *testing.T, client *http.Client, lc *LocalCluster, url string) PublishResponse {
	t.Helper()
	var pr PublishResponse
	if err := postJSON(client, lc.Cfg.OriginAddr+"/publish", PublishRequest{URL: url}, &pr); err != nil {
		t.Fatal(err)
	}
	return pr
}

// TestShieldKeepsUpdateDuringMiss lands a publish while the shield's origin
// fetch of the document is in flight: the origin has computed the fetch's
// version-1 reply and holds it. The shield has no copy yet, but it may not
// decline the update — the fetch would then store version 1 after version 2
// was acknowledged, and the cloud would serve it. It keeps the update and
// the fetch's older result is discarded.
func TestShieldKeepsUpdateDuringMiss(t *testing.T) {
	lc, order := shieldCluster(t, ClusterConfig{}, nil)
	client := &http.Client{Timeout: 10 * time.Second}
	url := "http://live/doc/40"
	owner := lc.Shields[order[0]]

	var originSrv *httptest.Server
	for _, s := range lc.servers {
		if s.URL == lc.Cfg.OriginAddr {
			originSrv = s
		}
	}
	// The origin's first /fetch of url computes its reply, then waits for
	// release before writing it.
	computed, release := make(chan struct{}), make(chan struct{})
	var held atomic.Bool
	inner := originSrv.Config.Handler
	originSrv.Config.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/fetch" || r.URL.Query().Get("url") != url {
			inner.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, r)
		if held.CompareAndSwap(false, true) {
			close(computed)
			<-release
		}
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		_, _ = w.Write(rec.Body.Bytes())
	})

	type reply struct {
		dr  DocResponse
		err error
	}
	served := make(chan reply, 1)
	go func() {
		var dr DocResponse
		err := getJSON(client, lc.Cfg.Addrs["live-00"]+"/doc?url="+queryEscape(url), &dr)
		served <- reply{dr, err}
	}()
	select {
	case <-computed:
	case got := <-served:
		t.Fatalf("the miss ended before the origin held its fetch: %+v, %v", got.dr, got.err)
	}
	pr := publish(t, client, lc, url)
	close(release)
	got := <-served
	if got.err != nil {
		t.Fatal(got.err)
	}
	if pr.Version != 2 {
		t.Fatalf("publish: %+v", pr)
	}
	if got.dr.Doc.Version != 2 {
		t.Fatalf("the cloud served version %d after version 2 was acknowledged: %+v", got.dr.Doc.Version, got.dr)
	}
	if v := owner.HeldVersions()[url]; v != 2 {
		t.Fatalf("owner shield holds version %d, want 2", v)
	}
	if v := lc.Caches["live-00"].StoredVersions()[url]; v != 2 {
		t.Fatalf("the cloud stores version %d, want 2", v)
	}
}

// declineHolder is an origin transport that holds one shield's Held: false
// reply to an /supdate and runs during before the origin reads it.
type declineHolder struct {
	Transport
	mu     sync.Mutex
	shield string // the shield's base URL
	during func()
}

func (h *declineHolder) PostJSON(ctx context.Context, url string, in, out any) error {
	err := h.Transport.PostJSON(ctx, url, in, out)
	h.mu.Lock()
	var during func()
	if sur, ok := out.(*ShieldUpdateResponse); ok && err == nil && !sur.Held && url == h.shield+"/supdate" {
		during, h.during = h.during, nil
	}
	h.mu.Unlock()
	if during != nil {
		during()
	}
	return err
}

// TestDeclineRacingFetchIsNotTaken holds a shield's Held: false reply at
// the origin while that shield fetches the document through the origin.
// The reply is stale by the time the origin reads it — the shield now holds
// a copy — so the origin must not skip the shield on the next publish.
func TestDeclineRacingFetchIsNotTaken(t *testing.T) {
	dh := &declineHolder{Transport: NewHTTPTransport(TransportOptions{})}
	lc, order := shieldCluster(t, ClusterConfig{}, func(name string) Transport {
		if name == "origin" {
			return dh
		}
		return nil
	})
	client := &http.Client{Timeout: 10 * time.Second}
	url := "http://live/doc/41"
	other := lc.Shields[order[1]]
	base := lc.Cfg.ShieldAddrs[order[1]]

	var fetchErr error
	ran := make(chan struct{})
	dh.mu.Lock()
	dh.shield = base
	dh.during = func() {
		defer close(ran)
		var sfr ShieldFetchResponse
		fetchErr = getJSON(client, base+"/sfetch?cloud="+liveCloud+"&url="+queryEscape(url), &sfr)
	}
	dh.mu.Unlock()

	if pr := publish(t, client, lc, url); pr.Version != 2 || pr.ShieldsNotified != 2 {
		t.Fatalf("first publish: %+v", pr)
	}
	<-ran
	if fetchErr != nil {
		t.Fatal(fetchErr)
	}
	if v := other.HeldVersions()[url]; v != 2 {
		t.Fatalf("shield %s holds version %d after its fetch, want 2", order[1], v)
	}
	pr := publish(t, client, lc, url)
	if v := other.HeldVersions()[url]; v != 3 || other.UpdatesIn() != 2 {
		t.Fatalf("second publish %+v skipped shield %s, which holds version %d (%d updates in)",
			pr, order[1], v, other.UpdatesIn())
	}
}

// TestOriginSkipsShieldWithoutCopy follows one document held by the owner
// shield only: the first publish reaches both shields and the other one
// declines, the second reaches the owner alone, and once the other shield
// has fetched the document — the /sfetch a cloud sends it when the owner is
// unreachable — the third reaches both again.
func TestOriginSkipsShieldWithoutCopy(t *testing.T) {
	lc, order := shieldCluster(t, ClusterConfig{}, nil)
	client := &http.Client{Timeout: 5 * time.Second}
	url := "http://live/doc/42"
	owner, other := lc.Shields[order[0]], lc.Shields[order[1]]
	getDoc(t, client, lc.Cfg.Addrs["live-00"], url)

	if pr := publish(t, client, lc, url); pr.ShieldsNotified != 2 || pr.ShieldsSkipped != 0 || pr.Notified != 1 {
		t.Fatalf("first publish: %+v", pr)
	}
	if pr := publish(t, client, lc, url); pr.ShieldsNotified != 1 || pr.ShieldsSkipped != 1 || pr.Notified != 1 {
		t.Fatalf("second publish: %+v", pr)
	}
	if owner.UpdatesIn() != 2 || other.UpdatesIn() != 1 {
		t.Fatalf("updates in: owner %d, other %d; want 2 and 1", owner.UpdatesIn(), other.UpdatesIn())
	}
	if v := lc.Caches["live-00"].StoredVersions()[url]; v != 3 {
		t.Fatalf("the cloud stores version %d, want 3", v)
	}
	want := "cachecloud_origin_supdates_skipped_total 1\n"
	if m := scrape(t, client, lc.Cfg.OriginAddr); !strings.Contains(m, want) {
		t.Fatalf("origin /metrics lacks %q:\n%s", want, m)
	}

	var sfr ShieldFetchResponse
	q := fmt.Sprintf("/sfetch?cloud=%s&v=3&url=%s", liveCloud, queryEscape(url))
	if err := getJSON(client, lc.Cfg.ShieldAddrs[order[1]]+q, &sfr); err != nil || sfr.Doc.Version != 3 || sfr.ShieldHit {
		t.Fatalf("failover fetch: %+v, %v", sfr, err)
	}
	if pr := publish(t, client, lc, url); pr.ShieldsNotified != 2 || pr.ShieldsSkipped != 0 {
		t.Fatalf("third publish: %+v", pr)
	}
	if v := other.HeldVersions()[url]; v != 4 {
		t.Fatalf("shield %s holds version %d, want 4", order[1], v)
	}
}

// TestFetchNamesItsShield: a shield's origin fetch says which shield it is,
// and clears that shield's decline only. Shield B declines the document and
// shield A then fetches it: the next publish still skips B. A fetch that
// names no shield, or one the origin does not know (a cloud's degraded
// direct fetch is the first), may be anyone's and clears every decline.
func TestFetchNamesItsShield(t *testing.T) {
	lc, order := shieldCluster(t, ClusterConfig{}, nil)
	client := &http.Client{Timeout: 5 * time.Second}
	url := "http://live/doc/44"
	owner, other := lc.Shields[order[0]], lc.Shields[order[1]]
	getDoc(t, client, lc.Cfg.Addrs["live-00"], url)
	if pr := publish(t, client, lc, url); pr.ShieldsNotified != 2 || pr.ShieldsSkipped != 0 {
		t.Fatalf("first publish: %+v", pr)
	}

	// The owner fetches the document again: a cloud asks for a version
	// above the one it holds.
	var sfr ShieldFetchResponse
	q := fmt.Sprintf("/sfetch?cloud=%s&v=3&url=%s", liveCloud, queryEscape(url))
	if err := getJSON(client, lc.Cfg.ShieldAddrs[order[0]]+q, &sfr); err != nil || sfr.Doc.Version != 2 || sfr.ShieldHit {
		t.Fatalf("the owner's refresh: %+v, %v", sfr, err)
	}
	if pr := publish(t, client, lc, url); pr.ShieldsNotified != 1 || pr.ShieldsSkipped != 1 {
		t.Fatalf("the publish after the owner's fetch: %+v, want %s skipped", pr, order[1])
	}
	if owner.UpdatesIn() != 2 || other.UpdatesIn() != 1 {
		t.Fatalf("updates in: owner %d, other %d; want 2 and 1", owner.UpdatesIn(), other.UpdatesIn())
	}

	for _, fetch := range []string{"", "&shield=nobody"} {
		var fr FetchResponse
		if err := getJSON(client, lc.Cfg.OriginAddr+"/fetch?url="+queryEscape(url)+fetch, &fr); err != nil {
			t.Fatal(err)
		}
		if pr := publish(t, client, lc, url); pr.ShieldsNotified != 2 || pr.ShieldsSkipped != 0 {
			t.Fatalf("the publish after a fetch %q: %+v, want no shield skipped", fetch, pr)
		}
		if pr := publish(t, client, lc, url); pr.ShieldsNotified != 1 || pr.ShieldsSkipped != 1 {
			t.Fatalf("the publish after that: %+v, want %s skipped again", pr, order[1])
		}
	}
}

// TestBeaconAnswersWithItsCopy has a node miss on a document its beacon
// holds: the registering lookup's answer carries the beacon's copy and the
// miss is served as a peer hit with no /fetch at any node. A plain lookup,
// and a beacon copy older than the record's version, leave the answer
// without one.
func TestBeaconAnswersWithItsCopy(t *testing.T) {
	lc := startCluster(t, 4, 2, ClusterConfig{})
	client := &http.Client{Timeout: 5 * time.Second}
	url := "http://live/doc/43"
	beacon, err := lc.Caches["live-00"].AssignmentsView().Owner(url, lc.Cfg.IntraGen)
	if err != nil {
		t.Fatal(err)
	}
	requester := "live-00"
	if beacon == requester {
		requester = "live-01"
	}
	var fetches atomic.Int64
	for name := range lc.Caches {
		srv := lc.byName[name]
		inner := srv.Config.Handler
		srv.Config.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/fetch" {
				fetches.Add(1)
			}
			inner.ServeHTTP(w, r)
		})
	}

	if dr := getDoc(t, client, lc.Cfg.Addrs[beacon], url); dr.Source != "origin" || !dr.Stored {
		t.Fatalf("the beacon's own miss: %+v", dr)
	}
	dr := getDoc(t, client, lc.Cfg.Addrs[requester], url)
	if dr.Source != "peer" || !dr.Stored || dr.Doc.Version != 1 {
		t.Fatalf("miss at %s, whose beacon %s holds the document: %+v", requester, beacon, dr)
	}
	if n := fetches.Load(); n != 0 {
		t.Fatalf("%d /fetch calls served; the lookup's answer carried the copy", n)
	}
	if st := cacheStats(t, client, lc.Cfg.Addrs[requester]); st.PeerHits != 1 || st.OriginMiss != 0 {
		t.Fatalf("requester stats: %+v", st)
	}
	want := fmt.Sprintf("cachecloud_node_lookup_copies_total{node=%q} 1\n", beacon)
	if m := scrape(t, client, lc.Cfg.Addrs[beacon]); !strings.Contains(m, want) {
		t.Fatalf("beacon /metrics lacks %q:\n%s", want, m)
	}

	bn := lc.Caches[beacon]
	lookup := func(query string) LookupResponse {
		t.Helper()
		w := httptest.NewRecorder()
		bn.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/lookup?url="+queryEscape(url)+query, nil))
		var lr LookupResponse
		if err := json.Unmarshal(w.Body.Bytes(), &lr); w.Code != http.StatusOK || err != nil {
			t.Fatalf("lookup%s: %d %s", query, w.Code, w.Body)
		}
		return lr
	}
	if lr := lookup(""); lr.Doc != nil {
		t.Fatalf("a plain lookup carried the beacon's copy: %+v", lr)
	}
	// The record moves past the beacon's copy, as when a publish's push to
	// it is still on its way.
	bn.dir.update(bn.now(), document.Document{URL: url, Size: 1043, Version: 2})
	if lr := lookup("&holder=" + requester + "&seq=1"); lr.Version != 2 || lr.Doc != nil {
		t.Fatalf("a lookup at version 2 carried the beacon's version-1 copy: %+v", lr)
	}
}
