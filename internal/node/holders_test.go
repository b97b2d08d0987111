package node

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"cachecloud/internal/document"
)

// hookTransport lets a test observe, hold or withhold one node's outbound
// calls. next performs the real call.
type hookTransport struct {
	inner Transport

	mu    sync.Mutex
	calls []string // "GET /lookup", "POST /deregister", ... in send order
	get   func(rawurl string, next func() error) error
	post  func(rawurl string, in any, next func() error) error
}

func (h *hookTransport) onGet(f func(rawurl string, next func() error) error) {
	h.mu.Lock()
	h.get = f
	h.mu.Unlock()
}

func (h *hookTransport) onPost(f func(rawurl string, in any, next func() error) error) {
	h.mu.Lock()
	h.post = f
	h.mu.Unlock()
}

// note records one call and returns the hooks in force.
func (h *hookTransport) note(method, rawurl string) (get func(string, func() error) error, post func(string, any, func() error) error) {
	u, _ := url.Parse(rawurl)
	h.mu.Lock()
	defer h.mu.Unlock()
	h.calls = append(h.calls, method+" "+u.Path)
	return h.get, h.post
}

func (h *hookTransport) sent() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]string(nil), h.calls...)
}

func (h *hookTransport) GetJSON(ctx context.Context, rawurl string, out any) error {
	get, _ := h.note("GET", rawurl)
	next := func() error { return h.inner.GetJSON(ctx, rawurl, out) }
	if get != nil {
		return get(rawurl, next)
	}
	return next()
}

func (h *hookTransport) PostJSON(ctx context.Context, rawurl string, in, out any) error {
	_, post := h.note("POST", rawurl)
	next := func() error { return h.inner.PostJSON(ctx, rawurl, in, out) }
	if post != nil {
		return post(rawurl, in, next)
	}
	return next()
}

// hookedCluster starts a cluster whose node `hooked` sends through a
// hookTransport. Every other participant uses the production transport.
func hookedCluster(t *testing.T, nodes int, hooked string, docs []document.Document, opts ClusterConfig) (*LocalCluster, *hookTransport) {
	t.Helper()
	names := make([]string, nodes)
	for i := range names {
		names[i] = fmt.Sprintf("live-%02d", i)
	}
	hook := &hookTransport{inner: NewHTTPTransport(TransportOptions{})}
	lc, err := StartLocalClusterWith(names, 2, docs, opts, func(name string) Transport {
		if name == hooked {
			return hook
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lc.Close)
	return lc, hook
}

// listed reports whether beacon's owned record for url lists holder.
func listed(beacon *CacheNode, url, holder string) bool {
	for _, wr := range beacon.Records() {
		if wr.URL != url {
			continue
		}
		for _, h := range wr.Holders {
			if h == holder {
				return true
			}
		}
	}
	return false
}

// remoteDocs returns catalog URLs whose beacon is not `self`, grouped by
// beacon, in catalog order.
func remoteDocs(t *testing.T, cn *CacheNode, docs []document.Document) map[string][]string {
	t.Helper()
	out := make(map[string][]string)
	for _, d := range docs {
		owner, _, err := cn.beaconURL(d.URL)
		if err != nil {
			t.Fatal(err)
		}
		if owner != cn.name {
			out[owner] = append(out[owner], d.URL)
		}
	}
	return out
}

// TestMissCostsTwoHops is the counting-transport test: a remote-beacon
// miss that stores its document and evicts four others, all owned by
// other beacons, sends exactly two messages before the reply (/lookup and
// /fetch), and the evicted copies leave the beacons' records with the next
// lookup to that beacon or the next flush.
func TestMissCostsTwoHops(t *testing.T) {
	docs := testCatalog(60)
	const self = "live-00"
	// Find four small documents and one big one, none owned by self. The
	// big one shares its beacon with the first small one so that a later
	// lookup there carries that drop.
	probe, err := NewCacheNode(self, ClusterConfig{
		IntraGen: 64, Rings: [][]string{{"live-00", "live-02"}, {"live-01", "live-03"}},
		Addrs: map[string]string{"live-00": "http://live-00", "live-01": "http://live-01", "live-02": "http://live-02",
			"live-03": "http://live-03"},
		OriginAddr: "http://origin",
	})
	if err != nil {
		t.Fatal(err)
	}
	var small []string
	var big, later string
	for _, urls := range remoteDocs(t, probe, docs) {
		if big == "" && len(urls) >= 3 {
			small, big, later = append(small, urls[0]), urls[1], urls[2]
			continue
		}
		for _, u := range urls {
			if len(small) < 4 {
				small = append(small, u)
			}
		}
	}
	if big == "" || len(small) < 4 {
		t.Fatalf("catalog too small: big=%q small=%v", big, small)
	}
	for i := range docs {
		docs[i].Size = 1000
		if docs[i].URL == big {
			docs[i].Size = 3500
		}
	}

	lc, hook := hookedCluster(t, 4, self, docs, ClusterConfig{IntraGen: 64, CapacityBytes: 4000})
	cn := lc.Caches[self]
	client := &http.Client{Timeout: 5 * time.Second}
	base := lc.Cfg.Addrs[self]
	for _, u := range small {
		if dr := getDoc(t, client, base, u); !dr.Stored {
			t.Fatalf("warm-up did not store %s: %+v", u, dr)
		}
	}

	before := len(hook.sent())
	dr := getDoc(t, client, base, big)
	if !dr.Stored || dr.Source != "origin" {
		t.Fatalf("big doc: %+v", dr)
	}
	calls := hook.sent()[before:]
	if len(calls) != 2 || calls[0] != "GET /lookup" || calls[1] != "GET /fetch" {
		t.Fatalf("miss with 4 evictions sent %v, want exactly [GET /lookup, GET /fetch]", calls)
	}
	for _, u := range small {
		if cn.store.Has(u) {
			t.Fatalf("%s was not evicted", u)
		}
	}
	if got := cn.PendingDrops(); got != 4 {
		t.Fatalf("pending drops = %d, want 4", got)
	}
	// Until a message reaches them the beacons list a superset.
	owner0, _, _ := cn.beaconURL(small[0])
	if !listed(lc.Caches[owner0], small[0], self) {
		t.Fatalf("beacon %s dropped %s before any message could tell it", owner0, small[0])
	}

	// The next lookup this node sends to that beacon carries the drop.
	before = len(hook.sent())
	getDoc(t, client, base, later)
	for _, c := range hook.sent()[before:] {
		if strings.Contains(c, "register") {
			t.Fatalf("piggybacked drop used %s", c)
		}
	}
	if listed(lc.Caches[owner0], small[0], self) {
		t.Fatalf("beacon %s still lists %s for %s after a lookup from it", owner0, self, small[0])
	}
	if got := cn.dropsPiggybacked.Value(); got < 1 {
		t.Fatalf("drops_piggybacked_total = %d, want >= 1", got)
	}

	// A flush clears the rest, one batched /deregister per beacon.
	cn.flushDrops(context.Background())
	for _, u := range small {
		owner, _, _ := cn.beaconURL(u)
		if listed(lc.Caches[owner], u, self) {
			t.Fatalf("beacon %s still lists %s for %s after the flush", owner, self, u)
		}
	}
	if got := cn.PendingDrops(); got != 0 {
		t.Fatalf("pending drops after flush = %d, want 0", got)
	}
	// Every stored copy is still listed.
	for _, u := range []string{big, later} {
		if !cn.store.Has(u) {
			continue
		}
		owner, _, _ := cn.beaconURL(u)
		if !listed(lc.Caches[owner], u, self) {
			t.Fatalf("beacon %s does not list %s for stored %s", owner, self, u)
		}
	}
}

// evictingCluster is a cluster whose hooked node holds exactly two of the
// catalog's equal-sized documents, so storing a third evicts the least
// recently used one. It returns three URLs whose beacons are outside the
// node's own ring, in catalog order.
func evictingCluster(t *testing.T, self string) (*LocalCluster, *hookTransport, []string) {
	t.Helper()
	docs := testCatalog(40)
	for i := range docs {
		docs[i].Size = 1000
	}
	lc, hook := hookedCluster(t, 4, self, docs, ClusterConfig{IntraGen: 64, CapacityBytes: 2000})
	cn := lc.Caches[self]
	view := cn.AssignmentsView()
	var urls []string
	for _, d := range docs {
		if owner, _, _ := cn.beaconURL(d.URL); view.ringOf(owner) != view.ringOf(self) {
			urls = append(urls, d.URL)
		}
	}
	if len(urls) < 3 {
		t.Fatal("catalog too small")
	}
	return lc, hook, urls[:3]
}

// TestLateDropDoesNotUnlistAReRegisteredHolder is the reordering-transport
// test: the node evicts D and its drop is sent but delayed in the network;
// the node fetches D again (the lookup lists it under a newer number); the
// old drop then arrives. The beacon must ignore it, so the next publish
// still reaches the node. On the parent this order unlists a holder.
func TestLateDropDoesNotUnlistAReRegisteredHolder(t *testing.T) {
	const self = "live-00"
	lc, hook, urls := evictingCluster(t, self)
	cn := lc.Caches[self]
	client := &http.Client{Timeout: 5 * time.Second}
	base := lc.Cfg.Addrs[self]
	d := urls[0]
	owner, _, _ := cn.beaconURL(d)

	var delayed []func() error
	hook.onPost(func(rawurl string, in any, next func() error) error {
		if strings.HasSuffix(rawurl, "/deregister") {
			delayed = append(delayed, next) // "sent", but still in the network
			return nil
		}
		return next()
	})
	getDoc(t, client, base, d)
	getDoc(t, client, base, urls[1])
	getDoc(t, client, base, urls[2]) // evicts d
	if cn.store.Has(d) {
		t.Fatal("d was not evicted")
	}
	cn.flushDrops(context.Background())
	if len(delayed) == 0 {
		t.Fatal("flush sent no /deregister")
	}
	if dr := getDoc(t, client, base, d); !dr.Stored { // lists the node again
		t.Fatalf("re-fetch did not store: %+v", dr)
	}
	hook.onPost(nil)
	for _, deliver := range delayed {
		if err := deliver(); err != nil {
			t.Fatal(err)
		}
	}
	if !listed(lc.Caches[owner], d, self) {
		t.Fatalf("late drop unlisted %s at beacon %s although it holds %s again", self, owner, d)
	}
	if got := lc.Caches[owner].dir.staleDrops.Value(); got != 1 {
		t.Fatalf("drops_ignored_stale_total = %d at the beacon, want 1", got)
	}
	var pr PublishResponse
	if err := postJSON(client, lc.Cfg.OriginAddr+"/publish", PublishRequest{URL: d}, &pr); err != nil {
		t.Fatal(err)
	}
	if cp, ok := cn.store.Peek(d); !ok || cp.Doc.Version != pr.Version {
		t.Fatalf("publish of v%d did not reach the re-registered holder: %+v (stored=%v)", pr.Version, cp.Doc, ok)
	}
}

// TestPublishDuringMissIsNotLost is the blocking-transport test: a miss
// has fetched version 1 and is held before it stores; version 2 is
// published meanwhile. The node is already listed (its lookup did that),
// so the push reaches it, is kept, and wins over the fetched copy.
func TestPublishDuringMissIsNotLost(t *testing.T) {
	const self = "live-00"
	docs := testCatalog(40)
	lc, hook := hookedCluster(t, 4, self, docs, ClusterConfig{IntraGen: 64})
	cn := lc.Caches[self]
	client := &http.Client{Timeout: 5 * time.Second}
	var d string
	for _, us := range remoteDocs(t, cn, docs) {
		d = us[0]
		break
	}
	owner, _, _ := cn.beaconURL(d)

	fetched, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	hook.onGet(func(rawurl string, next func() error) error {
		err := next()
		if strings.Contains(rawurl, "/fetch?") {
			once.Do(func() { close(fetched) })
			<-release
		}
		return err
	})
	reply := make(chan DocResponse, 1)
	go func() {
		var dr DocResponse
		if err := getJSON(client, lc.Cfg.Addrs[self]+"/doc?url="+queryEscape(d), &dr); err != nil {
			t.Errorf("GET /doc: %v", err)
		}
		reply <- dr
	}()
	<-fetched
	var pr PublishResponse
	if err := postJSON(client, lc.Cfg.OriginAddr+"/publish", PublishRequest{URL: d}, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Version != 2 || pr.Notified != 1 {
		t.Fatalf("publish during the miss: %+v, want version 2 pushed to the one listed node", pr)
	}
	close(release)
	dr := <-reply
	if dr.Doc.Version != 2 || !dr.Stored {
		t.Fatalf("miss overlapping a publish served %+v, want the pushed version 2, stored", dr)
	}
	if cp, ok := cn.store.Peek(d); !ok || cp.Doc.Version != 2 {
		t.Fatalf("stored %+v (ok=%v), want version 2", cp.Doc, ok)
	}
	if !listed(lc.Caches[owner], d, self) {
		t.Fatalf("beacon %s does not list %s", owner, self)
	}
}

// TestDropCancelledByReStore: a drop still pending when the node stores
// the document again is cancelled, not sent.
func TestDropCancelledByReStore(t *testing.T) {
	const self = "live-00"
	lc, hook, urls := evictingCluster(t, self)
	cn := lc.Caches[self]
	client := &http.Client{Timeout: 5 * time.Second}
	base := lc.Cfg.Addrs[self]
	d := urls[0]
	owner, _, _ := cn.beaconURL(d)

	getDoc(t, client, base, d)
	getDoc(t, client, base, urls[1])
	getDoc(t, client, base, urls[2]) // evicts d
	// Make sure the pending drop of d is still queued (a lookup to its
	// beacon may have taken it along): queue one more.
	cn.enqueueDrops([]string{d})
	getDoc(t, client, base, d) // stores d again, evicts urls[1]
	if !cn.store.Has(d) {
		t.Fatal("d was not stored again")
	}
	cancelled0 := cn.dropsCancelled.Value()
	before := len(hook.sent())
	cn.flushDrops(context.Background())
	if got := cn.dropsCancelled.Value() - cancelled0; got < 1 {
		t.Fatalf("drops_cancelled_total moved by %d, want >= 1", got)
	}
	for _, c := range hook.sent()[before:] {
		if c != "POST /deregister" {
			t.Fatalf("flush sent %s", c)
		}
	}
	if !listed(lc.Caches[owner], d, self) {
		t.Fatalf("beacon %s unlisted %s although it holds %s", owner, self, d)
	}
	if got := cn.PendingDrops(); got != 0 {
		t.Fatalf("pending drops = %d, want 0", got)
	}
}

// TestDropRoutedByAssignmentAtSendTime: a rebalance between the eviction
// and the flush moves the document's beacon duty; the drop goes to the new
// owner, where the migrated record lists the node.
func TestDropRoutedByAssignmentAtSendTime(t *testing.T) {
	const self = "live-00"
	lc, hook, urls := evictingCluster(t, self)
	cn := lc.Caches[self]
	client := &http.Client{Timeout: 5 * time.Second}
	base := lc.Cfg.Addrs[self]
	d := urls[0]
	oldOwner, _, _ := cn.beaconURL(d)

	getDoc(t, client, base, d)
	getDoc(t, client, base, urls[1])
	// Hold every lookup's piggyback back so that d's drop is still queued
	// at the rebalance, whichever beacon the third document has.
	cn.hmu.Lock()
	cn.misses[d] = missState{n: 1}
	cn.hmu.Unlock()
	getDoc(t, client, base, urls[2]) // evicts d
	if cn.store.Has(d) || cn.PendingDrops() == 0 {
		t.Fatalf("d evicted=%v pending=%d", !cn.store.Has(d), cn.PendingDrops())
	}

	// Swap the two sub-ranges of d's ring and install everywhere.
	next := cn.AssignmentsView()
	ring := next.ringOf(oldOwner)
	swapped := append([]Subrange(nil), next.Rings[ring]...)
	swapped[0].Node, swapped[1].Node = swapped[1].Node, swapped[0].Node
	next.Rings = append([][]Subrange(nil), next.Rings...)
	next.Rings[ring] = swapped
	for name := range lc.Caches {
		if err := postJSON(client, lc.Cfg.Addrs[name]+"/subranges", next, nil); err != nil {
			t.Fatal(err)
		}
	}
	newOwner, newBase, _ := cn.beaconURL(d)
	if newOwner == oldOwner {
		t.Fatal("the swap did not move d")
	}
	if !listed(lc.Caches[newOwner], d, self) {
		t.Fatalf("migrated record at %s does not list %s", newOwner, self)
	}

	cn.hmu.Lock()
	delete(cn.misses, d)
	cn.hmu.Unlock()
	var targets []string
	hook.onPost(func(rawurl string, in any, next func() error) error {
		if req, ok := in.(DeregisterRequest); ok {
			for _, u := range req.URLs {
				if u == d {
					targets = append(targets, rawurl)
				}
			}
		}
		return next()
	})
	cn.flushDrops(context.Background())
	if len(targets) != 1 || targets[0] != newBase+"/deregister" {
		t.Fatalf("drop of d went to %v, want %s/deregister", targets, newBase)
	}
	if listed(lc.Caches[newOwner], d, self) {
		t.Fatalf("new beacon %s still lists %s", newOwner, self)
	}
}

// TestLookupAndDeregisterWireCompatibility pins the message forms: a plain
// GET /lookup?url= only reads, the registering and batched forms do what
// they say, and the two forms nothing has sent since registration moved
// onto /lookup — POST /register and the single-URL /deregister body — are
// gone.
func TestLookupAndDeregisterWireCompatibility(t *testing.T) {
	cfg := ClusterConfig{
		IntraGen: 16, Rings: [][]string{{"n0"}, {"n1"}}, // the test's URLs all hash into n0's ring
		Addrs:      map[string]string{"n0": "http://127.0.0.1:1", "n1": "http://127.0.0.1:2"},
		OriginAddr: "http://127.0.0.1:3",
	}
	cn, err := NewCacheNodeWithTransport("n0", cfg, fuzzTransport{})
	if err != nil {
		t.Fatal(err)
	}
	h := cn.Handler()
	do := func(method, target, body string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(method, target, strings.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	u, v := "http://live/doc/1", "http://live/doc/2"

	if rec := do("GET", "/lookup?url="+queryEscape(u), ""); rec.Code != 200 {
		t.Fatalf("plain lookup: %d %s", rec.Code, rec.Body)
	}
	if listed(cn, u, "n1") || cn.dir.registered.Value() != 0 {
		t.Fatal("a plain lookup registered a holder")
	}
	if rec := do("GET", lookupQuery(u, "n1", 10, nil), ""); rec.Code != 200 || !listed(cn, u, "n1") {
		t.Fatalf("registering lookup: %d %s listed=%v", rec.Code, rec.Body, listed(cn, u, "n1"))
	}
	// The requester is left out of its own answer.
	if rec := do("GET", lookupQuery(u, "n1", 11, nil), ""); strings.Contains(rec.Body.String(), `"n1"`) {
		t.Fatalf("lookup answer lists the requester: %s", rec.Body)
	}
	if rec := do("GET", "/lookup?url=u&holder=stranger&seq=1", ""); rec.Code != 400 {
		t.Fatalf("unknown holder: %d", rec.Code)
	}
	if rec := do("GET", "/lookup?url=u&holder=n1&seq=x", ""); rec.Code != 400 {
		t.Fatalf("bad seq: %d", rec.Code)
	}
	if rec := do("GET", "/lookup?url=u&drop=v", ""); rec.Code != 400 {
		t.Fatalf("drops without a holder: %d", rec.Code)
	}
	// A lookup for v carrying a drop of u, numbered after u's registration.
	if rec := do("GET", lookupQuery(v, "n1", 12, []string{u}), ""); rec.Code != 200 || listed(cn, u, "n1") || !listed(cn, v, "n1") {
		t.Fatalf("piggybacked drop: %d listed(u)=%v listed(v)=%v", rec.Code, listed(cn, u, "n1"), listed(cn, v, "n1"))
	}
	// The deleted forms: no /register route, and a single-URL /deregister
	// body names no document any more.
	if rec := do("POST", "/register", `{"url":"`+u+`","node":"n1"}`); rec.Code != 404 && rec.Code != 405 {
		t.Fatalf("POST /register: %d, want no such route", rec.Code)
	}
	do("POST", "/deregister", `{"url":"`+v+`","node":"n1"}`)
	if listed(cn, u, "n1") || !listed(cn, v, "n1") {
		t.Fatalf("after the deleted forms: listed(u)=%v listed(v)=%v, want both unchanged", listed(cn, u, "n1"), listed(cn, v, "n1"))
	}
	// An unnumbered batch always applies; a registration without a number
	// comes from a hand-off.
	do("POST", "/deregister", `{"node":"n1","urls":["`+v+`"]}`)
	if listed(cn, v, "n1") {
		t.Fatal("unnumbered /deregister did not apply to a numbered entry")
	}
	do("POST", "/records/import", `{"records":[{"url":"`+u+`","holders":["n1"],"version":1}]}`)
	if !listed(cn, u, "n1") {
		t.Fatal("/records/import did not list")
	}
	// A name outside the cluster is refused whichever message carries it
	// (the parent commit listed it from all three of these).
	for target, body := range map[string]string{
		"/reconcile":       `{"node":"stranger","seq":1,"entries":[{"url":"` + u + `","version":1}]}`,
		"/records/import":  `{"records":[{"url":"` + u + `","holders":["stranger"],"version":1}]}`,
		"/records/replica": `{"records":[{"url":"` + u + `","holders":["stranger"],"version":1}],"from":"n1"}`,
	} {
		if rec := do("POST", target, body); rec.Code != 400 || listed(cn, u, "stranger") {
			t.Fatalf("%s naming a stranger: %d %s", target, rec.Code, rec.Body)
		}
	}
	// Batched body, numbered below the registration it meets: ignored.
	do("GET", lookupQuery(v, "n1", 20, nil), "")
	do("POST", "/deregister", `{"node":"n1","seq":15,"urls":["`+u+`","`+v+`"]}`)
	if listed(cn, u, "n1") || !listed(cn, v, "n1") {
		t.Fatalf("batched drop 15: listed(u)=%v (unnumbered entry, want dropped) listed(v)=%v (entry 20, want kept)", listed(cn, u, "n1"), listed(cn, v, "n1"))
	}
	if got := cn.dir.staleDrops.Value(); got != 1 {
		t.Fatalf("drops_ignored_stale_total = %d, want 1", got)
	}
}

// TestLookupUpdateRace hammers /lookup and /update on one URL. Run under
// -race: handleUpdate used to read the record's rate monitors (which decay
// in place) after releasing n.mu, concurrently with localLookup's Observe.
func TestLookupUpdateRace(t *testing.T) {
	lc := startCluster(t, 2, 2, ClusterConfig{IntraGen: 16})
	u := "http://live/doc/5"
	var beacon *CacheNode
	for _, cn := range lc.Caches {
		if owner, _, _ := cn.beaconURL(u); owner == cn.name {
			beacon = cn
		}
	}
	h := beacon.Handler()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				var req *http.Request
				if g%2 == 0 {
					req = httptest.NewRequest("GET", "/lookup?url="+queryEscape(u), nil)
				} else {
					body := fmt.Sprintf(`{"doc":{"url":%q,"size":100,"version":%d}}`, u, i+2)
					req = httptest.NewRequest("POST", "/update", strings.NewReader(body))
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != 200 {
					t.Errorf("%s: %d %s", req.URL.Path, rec.Code, rec.Body)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestMetricsExposeHolderMaintenance checks the registry-only surface.
func TestMetricsExposeHolderMaintenance(t *testing.T) {
	lc := startCluster(t, 2, 2, ClusterConfig{IntraGen: 16})
	client := &http.Client{Timeout: 5 * time.Second}
	for _, d := range testCatalog(6) {
		getDoc(t, client, lc.Cfg.Addrs["live-00"], d.URL)
	}
	resp, err := client.Get(lc.Cfg.Addrs["live-00"] + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"lookup_registered_total", "drops_piggybacked_total", "drops_batched_total",
		"drops_cancelled_total", "drops_ignored_stale_total", "pending_drops",
	} {
		if !strings.Contains(string(body), "cachecloud_node_"+name) {
			t.Errorf("/metrics lacks cachecloud_node_%s", name)
		}
	}
}
