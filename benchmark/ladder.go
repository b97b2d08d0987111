package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"time"

	"cachecloud/internal/admit"
	"cachecloud/internal/cache"
	"cachecloud/internal/core"
	"cachecloud/internal/document"
	"cachecloud/internal/durable"
	"cachecloud/internal/node"
	"cachecloud/internal/obs"
	"cachecloud/internal/placement"
	"cachecloud/internal/tenant"
)

// ladderWorkload is the cluster the handler and wire rungs run against:
// the hot-local catalog warm at every node, behind shields so the shield
// handler has copies to serve.
var ladderWorkload = workload{
	name: "ladder", docs: 500, alpha: 0.9, peakReq: 4, shields: 2,
	warm: warmEveryDoc, closedOpsPerSec: 1, peakRate: 1, slo: time.Millisecond,
}

// Fixed iteration counts by the size of the timed call.
const (
	ladderReps  = 5
	itersNano   = 20000 // sub-microsecond calls
	itersMicro  = 2000  // handlers, disk appends
	itersWire   = 400   // loopback round trips
	replayItems = 10000 // entries in the log durable.Open replays
)

// sink keeps the compiler from discarding the timed calls.
var sink int

// timeRung runs fn iters times, ladderReps times over, on this goroutine,
// and returns the median nanoseconds per call.
func timeRung(iters int, fn func(i int)) float64 {
	reps := make([]float64, ladderReps)
	for r := range reps {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			fn(r*iters + i)
		}
		reps[r] = float64(time.Since(t0)) / float64(iters)
	}
	return median(reps)
}

// runLadder times one call into each layer of the request path. Each rung
// is one goroutine, a fixed iteration count, the median of five.
func runLadder(seed int64, tmpRoot string) (map[string]metric, error) {
	out := make(map[string]metric)
	ns := func(name string, v float64) { out[name] = metric{v, "ns"} }

	sched := buildSchedule(&ladderWorkload, seed, 1)
	docs := sched.catalog
	urls := make([]string, len(docs))
	hashes := make([]document.Hash, len(docs))
	for i, d := range docs {
		urls[i], hashes[i] = d.URL, document.HashURL(d.URL)
	}
	pick := func(i int) int { return i % len(docs) }

	// --- pure functions and in-memory structures ---
	ns("document.hash_ns", timeRung(itersNano, func(i int) {
		h := document.HashURL(urls[pick(i)])
		sink += h.IrH(intraGen) + h.RingIndex(numNodes/ringSize)
	}))
	ns("document.tenant_key_ns", timeRung(itersNano, func(i int) {
		t, u := document.SplitTenantKey(document.TenantKey("alpha", urls[pick(i)]))
		sink += len(t) + len(u)
	}))

	names := nodeNames()
	cloud, err := core.New(core.Config{NumRings: numNodes / ringSize, IntraGen: intraGen}, names, nil)
	if err != nil {
		return nil, err
	}
	for i, d := range docs {
		for _, id := range names {
			if _, err := cloud.Cache(id).Put(document.Copy{Doc: d}, 0); err != nil {
				return nil, err
			}
			if err := cloud.RegisterHolderHash(d.URL, hashes[i], id); err != nil {
				return nil, err
			}
		}
	}
	ns("core.lookup_ns", timeRung(itersNano, func(i int) {
		res, _ := cloud.LookupHash(urls[pick(i)], hashes[pick(i)], 1)
		sink += len(res.Holders)
	}))
	ns("core.update_ns", timeRung(itersNano, func(i int) {
		d := docs[pick(i)]
		d.Version = document.Version(i + 2) // a new version every call, so all 6 holders apply it
		res, _ := cloud.UpdateHash(d, hashes[pick(i)], 1)
		sink += len(res.Notified)
	}))

	store := cache.New("rung", 0)
	for _, d := range docs {
		if _, err := store.Put(document.Copy{Doc: d}, 0); err != nil {
			return nil, err
		}
	}
	ns("cache.get_ns", timeRung(itersNano, func(i int) {
		cp, _ := store.Get(urls[pick(i)], 1)
		sink += int(cp.Doc.Size)
	}))
	ns("cache.apply_update_ns", timeRung(itersNano, func(i int) {
		d := docs[pick(i)]
		d.Version = document.Version(i + 2)
		if store.ApplyUpdate(d, 1) {
			sink++
		}
	}))
	// 100 equal documents fill the cache; every Put of another evicts one.
	full := cache.New("full", 100*1000)
	pool := make([]document.Copy, 4096)
	for i := range pool {
		pool[i] = document.Copy{Doc: document.Document{URL: fmt.Sprintf("http://rung/%d", i), Size: 1000, Version: 1}}
	}
	ns("cache.put_evict_ns", timeRung(itersNano, func(i int) {
		ev, _ := full.Put(pool[i%len(pool)], 1)
		sink += len(ev)
	}))

	gate := admit.NewGate(admit.GateOptions{})
	ctx := context.Background()
	ns("admit.gate_ns", timeRung(itersNano, func(int) {
		if release, err := gate.Acquire(ctx, admit.Hit); err == nil {
			release()
		}
	}))
	reg, err := tenant.NewRegistry(map[string]tenant.Quota{"alpha": {Weight: 3}, "beta": {Weight: 1}})
	if err != nil {
		return nil, err
	}
	fair := tenant.NewFairShare(reg, node.DefaultMaxInflight)
	ns("tenant.fairshare_ns", timeRung(itersNano, func(int) {
		if release, ok := fair.TryAcquire("alpha"); ok {
			release()
		}
	}))
	util, err := placement.NewUtility(placement.EqualOn(true, true, true, true), 0.5)
	if err != nil {
		return nil, err
	}
	ns("placement.utility_ns", timeRung(itersNano, func(i int) {
		d := docs[pick(i)]
		dec := util.ShouldStore(placement.Context{
			Now: 1, CacheID: names[0], DocURL: d.URL, DocSize: d.Size,
			LocalAccessRate: 2, MeanLocalRate: 1, CloudLookupRate: 5, CloudUpdateRate: 1,
			ReplicaCount: 2, Residence: 100, HolderResidence: 50,
		})
		if dec.Store {
			sink++
		}
	}))
	hist, ctr := obs.NewHistogram(obs.DefaultLatencyBounds()), &obs.Counter{}
	ns("obs.observe_ns", timeRung(itersNano, func(i int) {
		hist.Observe(float64(i%40) / 10)
		ctr.Inc()
	}))
	ns("node.encode_doc_ns", timeRung(itersNano, func(i int) {
		b, _ := json.Marshal(node.DocResponse{Doc: docs[pick(i)], Source: "local", Stored: true})
		sink += len(b)
	}))

	// --- the disk tier ---
	dir, err := os.MkdirTemp(tmpRoot, "ladder-")
	if err != nil {
		return nil, err
	}
	defer func() { _ = os.RemoveAll(dir) }()
	st, err := durable.Open(dir+"/put", durable.Options{Fsync: durable.FsyncOnRotate})
	if err != nil {
		return nil, err
	}
	ns("durable.put_ns", timeRung(itersMicro, func(i int) {
		d := docs[pick(i)]
		d.Version = document.Version(i + 1)
		if st.Put(document.Copy{Doc: d}) == nil {
			sink++
		}
	}))
	if err := st.Close(); err != nil {
		return nil, err
	}
	if st, err = durable.Open(dir+"/replay", durable.Options{Fsync: durable.FsyncOnRotate}); err != nil {
		return nil, err
	}
	for i := 0; i < replayItems; i++ {
		d := document.Document{URL: fmt.Sprintf("http://rung/%d", i), Size: 1000, Version: 1}
		if err := st.Put(document.Copy{Doc: d}); err != nil {
			return nil, err
		}
	}
	if err := st.Close(); err != nil {
		return nil, err
	}
	var openErr error
	out["durable.open_replay_ms"] = metric{timeRung(1, func(int) {
		s, err := durable.Open(dir+"/replay", durable.Options{Fsync: durable.FsyncOnRotate})
		if err != nil {
			openErr = err
			return
		}
		sink += s.Len()
		_ = s.Close()
	}) / 1e6, "ms"}
	if openErr != nil {
		return nil, openErr
	}

	// --- handlers and the wire, against a warm cluster ---
	cl, err := startCluster(&ladderWorkload, docs, nil, tmpRoot)
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	eng, err := newEngine(&ladderWorkload, sched, cl.nodeAddrs(), cl.cfg.OriginAddr, nil)
	if err != nil {
		return nil, err
	}
	defer eng.close()
	if warm := eng.run(sched.warm, warmWorkers, false); countNot(warm.status, stOK) > 0 {
		return nil, fmt.Errorf("ladder: warm-up failed")
	}

	edge := cl.caches[0]
	assign := edge.AssignmentsView()
	ns("ring.owner_ns", timeRung(itersNano, func(i int) {
		owner, _ := assign.Owner(urls[pick(i)], intraGen)
		sink += len(owner)
	}))
	// Lookups are timed at a node for the documents whose beacon it is.
	var owned []string
	for _, u := range urls {
		if owner, _ := assign.Owner(u, intraGen); owner == names[0] {
			owned = append(owned, u)
		}
	}
	if len(owned) == 0 {
		return nil, fmt.Errorf("ladder: %s owns no document", names[0])
	}
	// serve pushes one request through a handler into a ResponseRecorder.
	serve := func(h http.Handler, method, target string, body []byte) {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(method, target, rd))
		if w.Code == http.StatusOK {
			sink++
		}
	}
	esc := func(u string) string { return url.QueryEscape(u) }
	edgeH := edge.Handler()
	ns("node.doc_hit_handler_ns", timeRung(itersMicro, func(i int) {
		serve(edgeH, http.MethodGet, "/doc?url="+esc(urls[pick(i)]), nil)
	}))
	ns("node.lookup_handler_ns", timeRung(itersMicro, func(i int) {
		serve(edgeH, http.MethodGet, "/lookup?url="+esc(owned[i%len(owned)]), nil)
	}))
	ns("node.fetch_handler_ns", timeRung(itersMicro, func(i int) {
		serve(edgeH, http.MethodGet, "/fetch?url="+esc(urls[pick(i)]), nil)
	}))
	ns("node.apply_handler_ns", timeRung(itersMicro, func(i int) {
		d := docs[pick(i)]
		d.Version = document.Version(i + 2)
		body, _ := json.Marshal(node.UpdateRequest{Doc: d, Replicas: numNodes})
		serve(edgeH, http.MethodPost, "/apply", body)
	}))
	// The cloud's owning shield holds every document after the warm-up.
	var shieldH http.Handler
	for _, sn := range cl.shields {
		if len(sn.HeldVersions()) > 0 {
			shieldH = sn.Handler()
		}
	}
	if shieldH == nil {
		return nil, fmt.Errorf("ladder: no shield holds a document")
	}
	ns("node.sfetch_handler_ns", timeRung(itersMicro, func(i int) {
		serve(shieldH, http.MethodGet, "/sfetch?cloud=cloud0&v=0&url="+esc(urls[pick(i)]), nil)
	}))
	originH := cl.origin.Handler()
	ns("node.origin_fetch_handler_ns", timeRung(itersMicro, func(i int) {
		serve(originH, http.MethodGet, "/fetch?url="+esc(urls[pick(i)]), nil)
	}))

	tp := node.NewHTTPTransport(node.TransportOptions{})
	healthz := cl.nodeAddrs()[0] + "/healthz"
	ns("node.http_hop_ns", timeRung(itersWire, func(int) {
		var reply map[string]string
		if tp.GetJSON(ctx, healthz, &reply) == nil {
			sink++
		}
	}))
	hits := make([]op, ladderReps*itersWire)
	for i := range hits {
		hits[i].doc = int32(pick(i))
	}
	wire := newPhase(hits)
	wire.start = time.Now()
	ns("node.doc_hit_wire_ns", timeRung(itersWire, func(i int) { eng.exec(wire, i) }))
	if countNot(wire.status, stOK) > 0 {
		return nil, fmt.Errorf("ladder: wire rung requests failed")
	}

	// The remainders: what the rungs above do not explain.
	v := func(name string) float64 { return out[name].Value }
	ns("ladder.handler_gap_ns", v("node.doc_hit_handler_ns")-v("document.tenant_key_ns")-v("cache.get_ns")-
		v("admit.gate_ns")-v("obs.observe_ns")-v("node.encode_doc_ns"))
	ns("ladder.wire_gap_ns", v("node.doc_hit_wire_ns")-v("node.http_hop_ns")-v("node.doc_hit_handler_ns"))
	return out, nil
}

func countNot(status []uint8, want uint8) int { return len(status) - countIs(status, want) }

func countIs(status []uint8, want uint8) int {
	n := 0
	for _, s := range status {
		if s == want {
			n++
		}
	}
	return n
}
