package node

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cachecloud/internal/admit"
	"cachecloud/internal/document"
)

// countingOrigin wraps the origin handler with a slowed /fetch — by a fixed
// delay, or held until the test releases it — and precise in-flight
// accounting measured across the whole slowed window: the number the
// adaptive limiters must bound.
type countingOrigin struct {
	inner   http.Handler
	delay   time.Duration
	current atomic.Int64
	high    atomic.Int64

	mu   sync.Mutex
	held chan struct{} // non-nil: a /fetch waits for it to be closed
}

// hold makes every /fetch from now on wait for the returned release.
func (co *countingOrigin) hold() (release func()) {
	ch := make(chan struct{})
	co.mu.Lock()
	co.held = ch
	co.mu.Unlock()
	return func() {
		co.mu.Lock()
		co.held = nil
		co.mu.Unlock()
		close(ch)
	}
}

func (co *countingOrigin) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/fetch" {
		cur := co.current.Add(1)
		defer co.current.Add(-1)
		for {
			hw := co.high.Load()
			if cur <= hw || co.high.CompareAndSwap(hw, cur) {
				break
			}
		}
		if co.delay > 0 {
			time.Sleep(co.delay)
		}
		co.mu.Lock()
		held := co.held
		co.mu.Unlock()
		if held != nil {
			<-held
		}
	}
	co.inner.ServeHTTP(w, r)
}

// startStormCluster boots a cluster by hand (instead of through
// StartLocalCluster) so the origin sits behind a countingOrigin wrapper.
func startStormCluster(t *testing.T, names []string, ringSize int, docs []document.Document, cfg ClusterConfig, originDelay time.Duration) (*LocalCluster, *countingOrigin) {
	t.Helper()
	if cfg.IntraGen == 0 {
		cfg.IntraGen = 200
	}
	numRings := len(names) / ringSize
	if numRings < 1 {
		numRings = 1
	}
	cfg.Rings = make([][]string, numRings)
	for i, name := range names {
		cfg.Rings[i%numRings] = append(cfg.Rings[i%numRings], name)
	}
	cfg.Addrs = make(map[string]string, len(names))

	lc := &LocalCluster{
		Caches: make(map[string]*CacheNode, len(names)),
		byName: make(map[string]*httptest.Server, len(names)),
	}
	t.Cleanup(lc.Close)
	var srvs []*httptest.Server
	for _, name := range names {
		srv := httptest.NewUnstartedServer(nil)
		cfg.Addrs[name] = "http://" + srv.Listener.Addr().String()
		lc.servers = append(lc.servers, srv)
		lc.byName[name] = srv
		srvs = append(srvs, srv)
	}
	originSrv := httptest.NewUnstartedServer(nil)
	cfg.OriginAddr = "http://" + originSrv.Listener.Addr().String()
	lc.servers = append(lc.servers, originSrv)

	for i, name := range names {
		cn, err := NewCacheNode(name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		lc.Caches[name] = cn
		srvs[i].Config.Handler = cn.Handler()
		srvs[i].Start()
	}
	on, err := NewOriginNode(cfg, docs)
	if err != nil {
		t.Fatal(err)
	}
	lc.Origin = on
	co := &countingOrigin{inner: on.Handler(), delay: originDelay}
	originSrv.Config.Handler = co
	originSrv.Start()
	lc.Cfg = cfg
	return lc, co
}

// inFlights counts the goroutines inside a coalesced origin fetch, as its
// leader or as a follower: a flight's followers leave no other trace until
// it ends.
func inFlights() int64 {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return int64(strings.Count(string(buf[:n]), "admit.(*Coalescer[...]).Do("))
		}
		buf = make([]byte, 2*len(buf))
	}
}

// sumAdmission folds every node's overload-layer snapshot into one.
func sumAdmission(lc *LocalCluster) AdmissionStats {
	var out AdmissionStats
	for _, n := range lc.Caches {
		st := n.Admission()
		out.Requests += st.Requests
		out.Served += st.Served
		out.Shed += st.Shed
		out.Failed += st.Failed
		out.OriginFetches += st.OriginFetches
		out.Coalesced += st.Coalesced
		out.GateInFlight += st.GateInFlight
		out.GateQueued += st.GateQueued
		out.LimiterInFlight += st.LimiterInFlight
		out.LimiterQueued += st.LimiterQueued
		out.FlightsActive += st.FlightsActive
	}
	return out
}

// TestChaosStormHotDocVsSlowOrigin is the overload end-to-end: repeated
// hot-document miss storms (every burst concentrates many concurrent
// clients on a few cold documents) hit a cluster whose origin answers no
// fetch of a burst until every requester of that burst has either been
// refused or is waiting on a fetch — so what coalesces does not depend on
// how fast a hop is. The overload layer must keep the storm civil:
//
//   - the origin's in-flight fetches never exceed the summed adaptive
//     limiter ceilings (miss-storm protection);
//   - concurrent misses for the same document coalesce onto shared
//     fetches (singleflight);
//   - goodput stays positive in every burst — shedding is partial,
//     never a full outage;
//   - conservation holds: every offered request is exactly one of
//     served, shed, or failed, with zero failures (sheds are deliberate
//     429s, not errors), and the gates drain to quiescence.
//
// Run under -race this doubles as the no-deadlock check for the
// gate/limiter/coalescer composition.
func TestChaosStormHotDocVsSlowOrigin(t *testing.T) {
	checkLeaks(t)
	const (
		nodes       = 4
		ringSize    = 2
		maxInflight = 16 // per-node gate weight; limiter ceiling = 16/4 = 4
		bursts      = 3
		hotPerBurst = 3
		clients     = 80
	)
	names := make([]string, nodes)
	for i := range names {
		names[i] = fmt.Sprintf("s%d", i)
	}
	docs := testCatalog(bursts * hotPerBurst)
	lc, co := startStormCluster(t, names, ringSize, docs,
		ClusterConfig{IntraGen: 200, MaxInflight: maxInflight, MissQueue: 16}, 0)

	limitCapSum := 0
	for _, n := range lc.Caches {
		limitCapSum += n.limiter.Max()
	}

	client := &http.Client{Timeout: 30 * time.Second}
	get := func(entry, url string) {
		resp, err := client.Get(lc.Cfg.Addrs[entry] + "/doc?url=" + queryEscape(url))
		if err != nil {
			t.Errorf("GET %s via %s: %v", url, entry, err)
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	// parked counts the requests that have nothing left to do but wait for
	// the origin or have been turned away. A burst's documents are cold
	// everywhere and the origin answers nothing, so no request can be served
	// any other way: every one ends up refused, or in a flight as its leader
	// or a follower — and a flight ends only when the origin is released
	// (three leaders a node fit the limiter's four tokens and the miss
	// queue's sixteen places, so none of them is shed).
	parked := func() int64 {
		st := sumAdmission(lc)
		return st.Shed + st.Failed + inFlights()
	}

	offered := 0
	for b := 0; b < bursts; b++ {
		before := sumAdmission(lc)
		parkedBefore := parked()
		release := co.hold()
		var wg sync.WaitGroup
		for g := 0; g < clients; g++ {
			wg.Add(1)
			url := docs[b*hotPerBurst+g%hotPerBurst].URL
			entry := names[g%nodes]
			go func() {
				defer wg.Done()
				get(entry, url)
			}()
		}
		for start := time.Now(); parked()-parkedBefore < clients; time.Sleep(time.Millisecond) {
			if time.Since(start) > 20*time.Second {
				release()
				t.Fatalf("burst %d: %d of %d requests reached a fetch or a refusal", b, parked()-parkedBefore, clients)
			}
		}
		release()
		wg.Wait()
		offered += clients

		after := sumAdmission(lc)
		if served := after.Served - before.Served; served == 0 {
			t.Fatalf("burst %d: goodput collapsed to zero (shed=%d failed=%d)",
				b, after.Shed-before.Shed, after.Failed-before.Failed)
		}
		coal := after.Coalesced - before.Coalesced
		if coal < hotPerBurst {
			t.Fatalf("burst %d: only %d coalesced fetches, want >= %d (one per hot doc)",
				b, coal, hotPerBurst)
		}
		// Every request a burst served came out of a flight: a leader's
		// successful origin fetch or a follower's share of one.
		if served, fetched := after.Served-before.Served, after.OriginFetches-before.OriginFetches; served != fetched+coal {
			t.Fatalf("burst %d: served %d, but %d origin fetches + %d coalesced", b, served, fetched, coal)
		}
	}

	// Quiescence: all client goroutines have returned, so the gates and
	// limiters must have drained and the books must balance exactly.
	final := sumAdmission(lc)
	if final.Requests != int64(offered) {
		t.Fatalf("requests = %d, want %d offered", final.Requests, offered)
	}
	if got := final.Served + final.Shed + final.Failed; got != final.Requests {
		t.Fatalf("conservation violated: served %d + shed %d + failed %d = %d != requests %d",
			final.Served, final.Shed, final.Failed, got, final.Requests)
	}
	if final.Failed != 0 {
		t.Fatalf("failed = %d, want 0 (overload must shed, not error)", final.Failed)
	}
	if final.GateInFlight != 0 || final.GateQueued != 0 || final.LimiterInFlight != 0 ||
		final.LimiterQueued != 0 || final.FlightsActive != 0 {
		t.Fatalf("not quiescent: %+v", final)
	}

	// Miss-storm protection: across the whole run the slowed origin never
	// saw more concurrent fetches than the summed limiter ceilings.
	if hw := co.high.Load(); hw > int64(limitCapSum) {
		t.Fatalf("origin in-flight high water %d exceeds summed limiter cap %d", hw, limitCapSum)
	}
	if co.high.Load() == 0 || final.OriginFetches == 0 {
		t.Fatal("storm never reached the origin; test is vacuous")
	}
	// The origin's own accounting agrees with the middleware's.
	if ohw := lc.Origin.FetchHighWater(); ohw > int64(limitCapSum) {
		t.Fatalf("origin-side high water %d exceeds summed limiter cap %d", ohw, limitCapSum)
	}
}

// TestStormShedIsTypedOnTheWire drives a node past its miss-queue cap
// and checks the wire contract of a shed: HTTP 429 with both Retry-After
// headers, while hit-class traffic keeps being served.
func TestStormShedIsTypedOnTheWire(t *testing.T) {
	// One node, tiny gate: capacity 4 admits a single miss (weight 4);
	// MissQueue 1 queues one more; the rest shed immediately.
	docs := testCatalog(40)
	lc, _ := startStormCluster(t, []string{"solo"}, 1, docs,
		ClusterConfig{IntraGen: 50, MaxInflight: 4, MissQueue: 1}, 50*time.Millisecond)

	client := &http.Client{Timeout: 30 * time.Second}
	base := lc.Cfg.Addrs["solo"]

	// Prime one document so the hit path has something to serve.
	resp, err := client.Get(base + "/doc?url=" + queryEscape(docs[0].URL))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	var saw429 atomic.Int64
	var sawRetryAfter atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 24; g++ {
		wg.Add(1)
		url := docs[1+g%36].URL // cold documents: all miss-class
		go func() {
			defer wg.Done()
			resp, err := client.Get(base + "/doc?url=" + queryEscape(url))
			if err != nil {
				return
			}
			defer resp.Body.Close()
			io.Copy(io.Discard, resp.Body)
			if resp.StatusCode == http.StatusTooManyRequests {
				saw429.Add(1)
				if resp.Header.Get("Retry-After") != "" && resp.Header.Get(RetryAfterMsHeader) != "" {
					sawRetryAfter.Add(1)
				}
			}
		}()
	}
	wg.Wait()

	if saw429.Load() == 0 {
		t.Fatal("no request was shed; storm too small for the configured gate")
	}
	if sawRetryAfter.Load() != saw429.Load() {
		t.Fatalf("%d of %d shed replies missing Retry-After headers",
			saw429.Load()-sawRetryAfter.Load(), saw429.Load())
	}
	// The hit path must still be served while misses are shed.
	resp, err = client.Get(base + "/doc?url=" + queryEscape(docs[0].URL))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hit-class request got %d during a miss storm", resp.StatusCode)
	}
	st := lc.Caches["solo"].Admission()
	if st.Shed == 0 || st.ShedByClass[2] == 0 {
		t.Fatalf("shed accounting empty: %+v", st)
	}
	if st.Served+st.Shed+st.Failed != st.Requests {
		t.Fatalf("conservation violated: %+v", st)
	}
}

// TestMaxInflightBelowMissWeightRefused: a gate whose capacity is below a
// miss's weight could never admit one, so every miss would wait out its
// queue deadline and be shed. Such a capacity is refused at boot, with the
// minimum named; the minimum itself serves a miss.
func TestMaxInflightBelowMissWeightRefused(t *testing.T) {
	minimum := admit.Miss.Weight()
	for capacity := 1; capacity < minimum; capacity++ {
		cfg := ClusterConfig{IntraGen: 50, MaxInflight: capacity}
		_, err := StartLocalCluster([]string{"a", "b"}, 2, testCatalog(4), cfg)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("at least %d", minimum)) {
			t.Fatalf("MaxInflight %d: err = %v, want a refusal naming the minimum %d", capacity, err, minimum)
		}
	}
	lc := startCluster(t, 2, 2, ClusterConfig{IntraGen: 50, MaxInflight: minimum})
	c, err := NewClient(lc.Cfg, "live-00")
	if err != nil {
		t.Fatal(err)
	}
	if dr, by, err := c.Get(testCatalog(1)[0].URL); err != nil || by != "live-00" || dr.Source != "origin" {
		t.Fatalf("MaxInflight %d: miss answered (%+v, %q, %v), want live-00 serving it from the origin", minimum, dr, by, err)
	}
}
