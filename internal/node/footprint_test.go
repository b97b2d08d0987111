package node

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"cachecloud/internal/cache"
	"cachecloud/internal/document"
	"cachecloud/internal/durable"
	"cachecloud/internal/obs"
	"cachecloud/internal/tenant"
)

// Footprint tests and the directory and origin micro-benchmarks: what one
// document costs a beacon point, a shield, a store and the origin, in bytes
// and in time under the node's lock. Each byte budget sits 10-25% above
// what its table costs now and below what it cost before the table last
// shrank (each budget's comment has both figures, CHANGES.md the history):
// a revert fails it.

// liveHeap returns the bytes the heap holds after a collection.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// wireRecords returns one WireRecord per URL listing the given holders.
func wireRecords(urls []string, holders ...string) []WireRecord {
	recs := make([]WireRecord, len(urls))
	for i, u := range urls {
		recs[i] = WireRecord{URL: u, Holders: append([]string(nil), holders...), Version: 1}
	}
	return recs
}

// TestDirectoryFootprint: 10,000 owned records, each looked up by its two
// holders, then 10,000 replicas a sibling pushed and nobody ever looked up,
// then 10,000 more owned records whose two holders registered and dropped
// them again — most of a large directory, whose caches hold a few percent
// of it. The URLs and the push are built before the first measurement and
// stay alive, so the difference is the tables' and the records' own.
func TestDirectoryFootprint(t *testing.T) {
	const (
		n             = 10000
		ownedBudget   = 190 // bytes a record: 171 now; 203 with the monitors allocated apart, 427 with a holder map and two monitor pointers
		replicaBudget = 155 // 139 now; 171 with a replica's record the owned one's size, 363 with a holder map
		emptiedBudget = 140 // 123 now; 155 with the monitors allocated apart, 203 with the emptied holder array kept
	)
	urls := urlsOf(t, testLayout(), "a", 2*n)
	own, emptied := urls[:n], urls[n:]
	push := wireRecords(urlsOf(t, testLayout(), "b", n), "c", "d")
	d := newTestDirectory("a")
	h0 := liveHeap()
	for i, u := range own {
		d.lookup(0, u, "c", uint64(2*i+1), nil)
		d.lookup(0, u, "b", uint64(2*i+2), nil)
	}
	h1 := liveHeap()
	if err := d.acceptReplicas("b", true, push); err != nil {
		t.Fatal(err)
	}
	h2 := liveHeap()
	if owned, _, replicas := d.counts(); owned != n || replicas != n {
		t.Fatalf("%d owned and %d replica records, want %d of each", owned, replicas, n)
	}
	for i, u := range emptied {
		d.lookup(0, u, "c", uint64(2*i+1), nil)
		d.lookup(0, u, "b", uint64(2*i+2), nil)
	}
	d.deregister("c", 0, emptied)
	d.deregister("b", 0, emptied)
	h3 := liveHeap()
	perOwned, perReplica, perEmptied := (h1-h0)/n, (h2-h1)/n, (h3-h2)/n
	t.Logf("owned record with 2 holders, looked up: %d B; never-observed replica with 2 holders: %d B; owned record both holders dropped: %d B",
		perOwned, perReplica, perEmptied)
	if perOwned > ownedBudget {
		t.Errorf("an owned record costs %d B, budget %d", perOwned, ownedBudget)
	}
	if perReplica > replicaBudget {
		t.Errorf("a never-observed replica costs %d B, budget %d", perReplica, replicaBudget)
	}
	if perEmptied > emptiedBudget {
		t.Errorf("an owned record nobody holds costs %d B, budget %d", perEmptied, emptiedBudget)
	}
	runtime.KeepAlive(urls)
	runtime.KeepAlive(push)
	runtime.KeepAlive(d)
}

// TestEmptyReplicaFootprint: a sibling pushes 10,000 records nobody holds
// (no holder, version 0). Nothing of them is kept: 0 B a record, where on
// the parent commit each became a 91 B replica.
func TestEmptyReplicaFootprint(t *testing.T) {
	const (
		n      = 10000
		budget = 8 // bytes a record: 0 now; 91 as a replica
	)
	push := make([]WireRecord, n)
	for i, u := range urlsOf(t, testLayout(), "b", n) {
		push[i] = WireRecord{URL: u}
	}
	d := newTestDirectory("a")
	h0 := liveHeap()
	if err := d.acceptReplicas("b", true, push); err != nil {
		t.Fatal(err)
	}
	h1 := liveHeap()
	per := (h1 - h0) / n
	t.Logf("replica of a record nobody holds: %d B", per)
	if _, _, replicas := d.counts(); replicas != 0 || per > budget {
		t.Errorf("%d replicas kept of %d empty records, %d B a record, budget %d", replicas, n, per, budget)
	}
	runtime.KeepAlive(push)
	runtime.KeepAlive(d)
}

// TestBootAllocatesNoLoadCounters: a cache and a shield boot from the
// layout of the configured rings and count no beacon load, so building
// them allocates no per-IrH counters. At the largest IntraGen and 32 rings
// of two, each allocated 32.1 MB on the parent commit (8 B per IrH value
// and ring member); now about 0.1 MB.
func TestBootAllocatesNoLoadCounters(t *testing.T) {
	const budget = 4 << 20
	cfg := ClusterConfig{IntraGen: maxIntraGen, Addrs: map[string]string{}, OriginAddr: "http://127.0.0.1:1",
		Shields: []string{"s0"}, ShieldAddrs: map[string]string{"s0": "http://127.0.0.1:2"}}
	for r := 0; r < 32; r++ {
		a, b := fmt.Sprintf("n%02da", r), fmt.Sprintf("n%02db", r)
		cfg.Rings = append(cfg.Rings, []string{a, b})
		cfg.Addrs[a], cfg.Addrs[b] = "http://127.0.0.1:3", "http://127.0.0.1:4"
	}
	allocated := func(build func() (io.Closer, error)) uint64 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		n, err := build()
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		_ = n.Close()
		return m1.TotalAlloc - m0.TotalAlloc
	}
	cache := allocated(func() (io.Closer, error) { return NewCacheNodeWithTransport("n00a", cfg, fuzzTransport{}) })
	shield := allocated(func() (io.Closer, error) { return NewShieldNodeWithTransport("s0", cfg, fuzzTransport{}) })
	t.Logf("boot allocates %.1f MB for a cache, %.1f MB for a shield", float64(cache)/(1<<20), float64(shield)/(1<<20))
	if cache > budget || shield > budget {
		t.Errorf("boot allocated %d B for a cache and %d B for a shield, budget %d each", cache, shield, budget)
	}
}

// TestOriginCatalogFootprint: an origin built over a catalog of 20,000
// documents. The catalog is built before the first measurement and stays
// alive, so the difference is the origin's own table, not the URL strings
// its entries share with the caller's.
func TestOriginCatalogFootprint(t *testing.T) {
	const (
		n      = 20000
		budget = 50 // bytes a document: 40 now, 95 keyed by URL in a map
	)
	docs := testCatalog(n)
	h0 := liveHeap()
	o, err := NewOriginNodeWithTransport(trioConfig(), docs, fuzzTransport{})
	if err != nil {
		t.Fatal(err)
	}
	h1 := liveHeap()
	if got := o.Stats().Documents; got != n {
		t.Fatalf("%d documents, want %d", got, n)
	}
	per := (h1 - h0) / n
	t.Logf("catalog document: %d B", per)
	if per > budget {
		t.Errorf("a catalog document costs the origin %d B, budget %d", per, budget)
	}
	runtime.KeepAlive(o)
	runtime.KeepAlive(docs)
}

// discardReply is a ResponseWriter that keeps nothing of a reply but its
// status.
type discardReply struct {
	header http.Header
	code   int
}

func (w *discardReply) Header() http.Header         { return w.header }
func (w *discardReply) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardReply) WriteHeader(code int)        { w.code = code }

// BenchmarkOriginFetch is the origin's side of a miss no cache can serve:
// its /fetch handler over a 20k-document catalog, one request value per
// document reused across iterations.
func BenchmarkOriginFetch(b *testing.B) {
	const n = 20000
	o, err := NewOriginNodeWithTransport(trioConfig(), testCatalog(n), fuzzTransport{})
	if err != nil {
		b.Fatal(err)
	}
	h := o.Handler()
	reqs := make([]*http.Request, n)
	for i := range reqs {
		reqs[i] = httptest.NewRequest("GET", "/fetch?url="+queryEscape(fmt.Sprintf("http://live/doc/%d", i)), nil)
	}
	w := &discardReply{header: make(http.Header)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ServeHTTP(w, reqs[i%n])
		if w.code != http.StatusOK {
			b.Fatalf("fetch %d: status %d", i%n, w.code)
		}
	}
}

// originStub answers every origin fetch with a version-1 document and
// refuses everything else.
type originStub struct{ fuzzTransport }

func (originStub) GetJSON(ctx context.Context, url string, out any) error {
	fr, ok := out.(*FetchResponse)
	if !ok {
		return fmt.Errorf("origin stub: unexpected call %s", url)
	}
	fr.Doc = document.Document{Size: 1000, Version: 1}
	return nil
}

// TestShieldFootprint: a shield that fetched 10,000 documents for one
// cloud, through its own /sfetch handler, holds 10,000 copies with one
// subscriber each, memory-only and with a durable store attached. The cloud
// ID arrives unescaped, as CacheNode.shieldFetch sends it: a table that keys
// on the parsed value pins the request's query string per document.
func TestShieldFootprint(t *testing.T) {
	const (
		n      = 10000
		budget = 205 // bytes a held document, with a store or without: 164 now, 242 with the store's index, 552 with three maps and a set per URL
	)
	for _, mirrored := range []bool{false, true} {
		storeDir := ""
		if mirrored {
			storeDir = t.TempDir()
		}
		sn := stubShield(t, originStub{}, storeDir)
		handler := sn.Handler()
		h0 := liveHeap()
		for i := 0; i < n; i++ {
			target := "/sfetch?url=" + queryEscape(fmt.Sprintf("http://shield/doc/%05d", i)) + "&cloud=cloud0&v=0"
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
			if rec.Code != http.StatusOK {
				t.Fatalf("sfetch %d: status %d: %s", i, rec.Code, rec.Body)
			}
		}
		h1 := liveHeap()
		if st := sn.Stats(); st.HeldDocs != n || st.Subscriptions != n || st.DurableErrors != 0 {
			t.Fatalf("shield holds %d documents and %d subscriptions, want %d of each; %d disk-tier errors", st.HeldDocs, st.Subscriptions, n, st.DurableErrors)
		}
		per := (h1 - h0) / n
		t.Logf("held document with 1 subscriber, store attached %v: %d B", mirrored, per)
		if per > budget {
			t.Errorf("a held document costs the shield %d B (store attached %v), budget %d", per, mirrored, budget)
		}
		runtime.KeepAlive(sn)
		if err := sn.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStoreFootprint: a node's store after 10,000 documents were each asked
// for, missed and then stored, memory-only and mirrored into a durable
// store. The URL strings are built first and stay alive, so the difference
// is the slots' and the tables'. The durable store keeps no table of its
// own, so both are held to one budget.
func TestStoreFootprint(t *testing.T) {
	const (
		n      = 10000
		budget = 165 // bytes a stored document, mirrored or not: 155 now; 234 mirrored with the store's index, 278 memory-only with six URL-keyed tables
	)
	urls := make([]string, n)
	for i := range urls {
		urls[i] = document.TenantKey("acme", fmt.Sprintf("http://store/doc/%05d", i))
	}
	perDocument := func(st *durable.Store) int64 {
		c := cache.New("e0", 0)
		var q *durable.Queue
		if st != nil {
			q = durable.NewQueue(st)
			c.SetDurable(q)
		}
		h0 := liveHeap()
		for i, u := range urls {
			now := int64(i >> 8)
			c.Get(u, now)
			if _, err := c.Put(document.Copy{Doc: document.Document{URL: u, Size: 1000, Version: 1}, FetchedAt: now}, now); err != nil {
				t.Fatal(err)
			}
		}
		h1 := liveHeap()
		if c.Len() != n || q.Errors() != 0 || (st != nil && st.Len() != n) {
			t.Fatalf("%d stored, %d disk-tier errors", c.Len(), q.Errors())
		}
		runtime.KeepAlive(c)
		runtime.KeepAlive(st)
		return (h1 - h0) / n
	}
	st, err := durable.Open(t.TempDir(), durable.Options{Fsync: durable.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = st.Close() }()
	memory, mirrored := perDocument(nil), perDocument(st)
	t.Logf("stored document: %d B memory-only, %d B with the durable tier", memory, mirrored)
	if memory > budget {
		t.Errorf("a stored document costs %d B, budget %d", memory, budget)
	}
	if mirrored > budget {
		t.Errorf("a stored document with the durable tier costs %d B, budget %d", mirrored, budget)
	}
	runtime.KeepAlive(urls)
}

// TestUnstoredURLFootprint: a node's store after 10,000 URLs were each asked
// for once and never stored, bare and folded with a tenant. Each URL is
// built fresh for its one Get and dropped after it, as /doc's parameter is
// (queryArg unescapes into a new string), so the difference is all the
// store keeps for a URL it does not hold: its access monitor.
func TestUnstoredURLFootprint(t *testing.T) {
	const (
		n      = 10000
		budget = 54 // bytes a URL, bare or tenant-folded: 43 now, 97 bare and 113 tenant-folded with the URL string as the key
	)
	for _, tenant := range []string{"", "acme"} {
		c := cache.New("e0", 0)
		h0 := liveHeap()
		for i := 0; i < n; i++ {
			u := document.TenantKey(tenant, fmt.Sprintf("http://origin.example/doc/%06d", i))
			if _, ok := c.Get(u, int64(i>>8)); ok {
				t.Fatalf("%q is stored", u)
			}
		}
		h1 := liveHeap()
		per := (h1 - h0) / n
		t.Logf("URL asked for and not stored, tenant %q: %d B", tenant, per)
		if per > budget {
			t.Errorf("a URL asked for and not stored (tenant %q) costs %d B, budget %d", tenant, per, budget)
		}
		runtime.KeepAlive(c)
	}
}

// benchDirectory returns a's directory in a cluster of six, with n owned
// records listing the given holders, and the records' URLs.
func benchDirectory(n int, holders ...string) (*directory, []string) {
	names := []string{"a", "b", "c", "d", "e", "f"}
	d := newDirectory("a", 16, names, testLayout(), obs.NewRegistry("bench", nil))
	urls := make([]string, 0, n)
	for i := 0; len(urls) < n; i++ {
		u := fmt.Sprintf("http://dir/doc/%06d", i)
		if owner, _ := testLayout().ownerOf(u, 16); owner == "a" {
			urls = append(urls, u)
			for _, h := range holders {
				d.lookup(0, u, h, 1, nil)
			}
		}
	}
	return d, urls
}

var benchSink int

// BenchmarkDirectoryLookup is the beacon side of a cooperative miss on a
// 20k-record directory: a registering lookup that carries two drops.
func BenchmarkDirectoryLookup(b *testing.B) {
	d, urls := benchDirectory(20000, "b", "c")
	drops := make([]string, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := urls[i%len(urls)]
		drops[0], drops[1] = urls[(i+7)%len(urls)], urls[(i+13)%len(urls)]
		lr := d.lookup(int64(i>>16), u, "d", uint64(i+2), drops)
		benchSink += len(lr.Holders)
	}
}

// BenchmarkDirectoryUpdate is the beacon side of a publish: fold the update
// in and hand back the six holders to push it to.
func BenchmarkDirectoryUpdate(b *testing.B) {
	d, urls := benchDirectory(20000, "f", "e", "d", "c", "b", "a")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, fan := d.update(int64(i>>16), document.Document{URL: urls[i%len(urls)], Version: document.Version(i)})
		benchSink += len(fan)
	}
}

// BenchmarkDirectoryInstall is one rebalance at a beacon point: 20k owned
// records and 20k replicas, and a layout that moves half of each across —
// the owned half is handed off, the replica half promoted. The directory is
// rebuilt outside the timer for every iteration.
func BenchmarkDirectoryInstall(b *testing.B) {
	const n = 20000
	old := testLayout()
	// a and b swap the upper half of a's range for the lower half of b's.
	next := Assignments{Rings: [][]Subrange{
		{{Node: "a", Lo: 0, Hi: 2}, {Node: "b", Lo: 3, Hi: 5}, {Node: "a", Lo: 6, Hi: 8}, {Node: "b", Lo: 9, Hi: 10}, {Node: "c", Lo: 11, Hi: 15}},
		old.Rings[1],
	}}
	var mine, theirs []string
	for i := 0; len(mine) < n || len(theirs) < n; i++ {
		u := fmt.Sprintf("http://dir/doc/%06d", i)
		switch owner, _ := old.ownerOf(u, 16); {
		case owner == "a" && len(mine) < n:
			mine = append(mine, u)
		case owner == "b" && len(theirs) < n:
			theirs = append(theirs, u)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d := newTestDirectory("a")
		for _, u := range mine {
			d.lookup(0, u, "c", 1, nil)
			d.lookup(0, u, "d", 1, nil)
		}
		if err := d.acceptReplicas("b", true, wireRecords(theirs, "c", "d")); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		out, promoted := d.install(next)
		benchSink += len(out) + promoted
		if promoted == 0 || len(out) == 0 {
			b.Fatalf("install promoted %d and handed off %d batches: the layouts do not differ", promoted, len(out))
		}
	}
}

// TestTenantTableFootprint: any client can put any valid ID in the tenant
// header, so 100,000 distinct ones must leave the per-tenant tables the size
// a few dozen leave them: the first maxUnregisteredTenants get counters of
// their own, the rest are counted under overflowTenant, and the fair share
// keeps nothing for a tenant without a quota. Each ID does here what
// handleDoc does with it and nothing else: the tables a /doc fills per
// document asked for (ROADMAP 6(c)) are not this test's.
func TestTenantTableFootprint(t *testing.T) {
	const ids = 100000
	cfg := trioConfig()
	cfg.Tenants = map[string]tenant.Quota{"acme": {Weight: 1}}
	n, err := NewCacheNodeWithTransport("n0", cfg, scriptedNet{})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	doc := func(id string) {
		n.tenantCounts.request(id)
		release, ok := n.tenantAcquire(id)
		if !ok {
			t.Fatalf("tenant %q was shed", id)
		}
		n.tenantCounts.served(id)
		release()
	}
	doc("acme")
	h0 := liveHeap()
	for i := 0; i < ids; i++ {
		doc(fmt.Sprintf("t%d", i))
	}
	grown := liveHeap() - h0
	stats := n.TenantAdmission()
	t.Logf("%d tenant IDs: %d entries in the table, %d B of heap grown", ids, len(stats), grown)
	if want := maxUnregisteredTenants + 3; len(stats) != want { // and acme, the default tenant, the overflow entry
		t.Errorf("%d entries, want %d", len(stats), want)
	}
	if got := stats[overflowTenant].Requests; got != ids-maxUnregisteredTenants {
		t.Errorf("%d requests under %q, want %d", got, overflowTenant, ids-maxUnregisteredTenants)
	}
	if grown > 64<<10 { // 64 entries of four counters and their keys; a map entry an ID would be megabytes
		t.Errorf("the heap grew by %d B: something keeps state for every ID", grown)
	}
}
