package node

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// seenRequest is what the scripted peer saw of one request.
type seenRequest struct {
	method, target, contentType, tenant, body string
	deadlineMs                                int64
}

// scriptedPeer is one net/http server whose reply depends on the path. It
// counts the connections it accepts and remembers the last request. With
// served set, its handler stands behind the nodes' choice of server path
// (serve.go), so its connections are served by the loop.
type scriptedPeer struct {
	srv     *httptest.Server
	served  *servedConns
	addr    string
	conns   atomic.Int64
	stalled chan struct{} // one token per /stall reply that has flushed its head
	mu      sync.Mutex
	last    seenRequest
}

var bigBody = strings.Repeat("x", 8<<10)

func newScriptedPeer(t *testing.T, served bool) *scriptedPeer {
	t.Helper()
	p := &scriptedPeer{stalled: make(chan struct{}, 16)}
	stop := make(chan struct{})
	var h http.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		seen := seenRequest{method: r.Method, target: r.RequestURI, contentType: r.Header.Get("Content-Type"),
			tenant: r.Header.Get(TenantHeader), body: strings.TrimSpace(string(body))}
		fmt.Sscan(r.Header.Get(DeadlineHeader), &seen.deadlineMs)
		p.mu.Lock()
		p.last = seen
		p.mu.Unlock()
		raw := func(reply string) {
			conn, _, err := w.(http.Hijacker).Hijack()
			if err != nil {
				t.Error(err)
				return
			}
			_, _ = io.WriteString(conn, reply)
			_ = conn.Close()
		}
		switch r.URL.Path {
		case "/len":
			w.Header().Set("Content-Length", "16")
			io.WriteString(w, `{"n":1,"s":"ab"}`)
		case "/chunked": // over net/http's 2 KB write buffer, so it is streamed
			io.WriteString(w, `{"n":2,"s":"`)
			for i := 0; i < 3; i++ {
				io.WriteString(w, strings.Repeat("y", 1000))
				w.(http.Flusher).Flush()
			}
			io.WriteString(w, `"}`)
		case "/404":
			http.Error(w, bigBody, http.StatusNotFound)
		case "/429ms":
			w.Header().Set(RetryAfterMsHeader, "500")
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			io.WriteString(w, bigBody)
		case "/429s":
			w.Header().Set("retry-after", "1")
			w.WriteHeader(http.StatusTooManyRequests)
		case "/429":
			w.WriteHeader(http.StatusTooManyRequests)
		case "/400":
			w.WriteHeader(http.StatusBadRequest)
			io.WriteString(w, bigBody)
		case "/500":
			w.WriteHeader(http.StatusInternalServerError)
			io.WriteString(w, bigBody)
		case "/close":
			w.Header().Set("Connection", "close")
			io.WriteString(w, `{"n":3}`)
		case "/http10":
			raw("HTTP/1.0 200 OK\r\nContent-Length: 8\r\n\r\n{\"n\":10}")
		case "/badstatus":
			raw("HTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}")
		case "/badheader":
			raw("HTTP/1.1 200 OK\r\nno colon here\r\nContent-Length: 2\r\n\r\n{}")
		case "/badlength":
			raw("HTTP/1.1 200 OK\r\nContent-Length: two\r\n\r\n{}")
		case "/stall": // the head and part of the body, then nothing
			w.Header().Set("Content-Length", "100")
			io.WriteString(w, `{"n":4,`)
			w.(http.Flusher).Flush()
			p.stalled <- struct{}{}
			select {
			case <-r.Context().Done():
			case <-stop:
			}
		default:
			io.WriteString(w, `{"n":0}`)
		}
	})
	if served {
		p.served = &servedConns{}
		h = p.served.handler(h)
	}
	p.srv = httptest.NewUnstartedServer(h)
	p.srv.Config.ConnState = func(c net.Conn, s http.ConnState) {
		if s == http.StateNew {
			p.conns.Add(1)
		}
	}
	p.srv.Start()
	p.addr = strings.TrimPrefix(p.srv.URL, "http://")
	t.Cleanup(func() {
		close(stop)
		p.closeClientConns()
		p.srv.Close()
		peerConns.closeIdle([]string{p.addr})
	})
	return p
}

// closeClientConns closes the peer's end of every connection, whoever
// serves it.
func (p *scriptedPeer) closeClientConns() {
	p.srv.CloseClientConnections()
	if p.served != nil {
		p.served.close(p.srv.Config)
	}
}

func (p *scriptedPeer) seen() seenRequest {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.last
}

// bothPaths returns a transport that makes its own exchanges and one that
// is handed an *http.Client — the reference the first is compared with.
// Neither retries; both run on mc.
func bothPaths(t *testing.T, mc *manualClock) (direct, ref *HTTPTransport) {
	t.Helper()
	rt := &http.Transport{}
	t.Cleanup(rt.CloseIdleConnections)
	opts := TransportOptions{MaxRetries: -1, BreakerThreshold: -1, Clock: mc}
	direct = fastTransport(opts)
	opts.Client = &http.Client{Transport: rt}
	ref = fastTransport(opts)
	if !direct.direct || ref.direct {
		t.Fatal("the transports do not take the paths the test is about")
	}
	return direct, ref
}

// outcome names what a call returned, to the precision callers can tell
// outcomes apart: the decoded value, or the class of the error and what it
// carries.
func outcome(err error, out map[string]any) string {
	var se *statusError
	switch {
	case err == nil:
		return fmt.Sprint("ok ", out)
	case errors.Is(err, ErrNotFound):
		return "not found"
	case errors.Is(err, ErrShed):
		ra, _ := ShedRetryAfter(err)
		return fmt.Sprint("shed ", ra)
	case errors.As(err, &se):
		return fmt.Sprintf("status %d %s %s %q", se.status, se.method, se.url, se.body)
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	case errors.Is(err, context.Canceled):
		return "canceled"
	}
	return "error"
}

// TestExchangeMatchesHTTPClient is the differential test of the two kinds
// of attempt, on each of the two server paths: against one server, the
// transport's own exchange and the *http.Client attempt return the same
// value or the same class of error, and the exchange keeps, closes and
// replaces connections by its rules. Behind the served loop the reference
// client's plain requests are the loop's too, so all four pairings are
// compared; the replies only a hijack or a flush mid-body can make are
// net/http's alone.
func TestExchangeMatchesHTTPClient(t *testing.T) { exchangeMatchesHTTPClient(t, false) }

func TestExchangeMatchesHTTPClientOnServedLoop(t *testing.T) { exchangeMatchesHTTPClient(t, true) }

func exchangeMatchesHTTPClient(t *testing.T, served bool) {
	peer := newScriptedPeer(t, served)
	mc := newManualClock()
	direct, ref := bothPaths(t, mc)
	call := func(tp *HTTPTransport, ctx context.Context, path string, decode bool) string {
		t.Helper()
		var out map[string]any
		var err error
		if decode {
			err = tp.GetJSON(ctx, peer.srv.URL+path, &out)
		} else {
			err = tp.GetJSON(ctx, peer.srv.URL+path, nil)
		}
		mc.advance(3 * time.Second) // out of any shed window
		return outcome(err, out)
	}
	bg := context.Background()

	t.Run("one connection serves every kind of complete reply", func(t *testing.T) {
		steps := []struct {
			path   string
			decode bool
			want   string // a prefix of the outcome
		}{
			{"/len", true, "ok map[n:1 s:ab]"},
			{"/chunked", true, "ok map[n:2 s:yyy"}, // not chunked by the loop, which sends one body
			{"/chunked", false, "ok map[]"},
			{"/404", true, "not found"},
			{"/429ms", true, "shed 500ms"},
			{"/429s", true, "shed 1s"},
			{"/429", true, "shed 100ms"},
			{"/400", true, "status 400 GET " + peer.srv.URL + `/400 "xxx`},
			{"/500", true, "status 500 GET " + peer.srv.URL + `/500 "xxx`},
			{"/len", false, "ok map[]"},
		}
		before := peer.conns.Load()
		got := make([]string, len(steps))
		for i, s := range steps {
			got[i] = call(direct, bg, s.path, s.decode)
			if !strings.HasPrefix(got[i], s.want) {
				t.Errorf("%s: got %.80q, want prefix %q", s.path, got[i], s.want)
			}
		}
		if n := peer.conns.Load() - before; n != 1 {
			t.Errorf("the exchange opened %d connections for the sequence, want 1", n)
		}
		if n := peerConns.idleCount(peer.addr); n != 1 {
			t.Errorf("%d idle connections after the sequence, want 1", n)
		}
		for i, s := range steps {
			if want := call(ref, bg, s.path, s.decode); got[i] != want {
				t.Errorf("%s: exchange %.80q, http.Client %.80q", s.path, got[i], want)
			}
		}
		if served {
			if n := peer.served.count(); n != 2 {
				t.Errorf("%d served connections, want the exchange's and the client's", n)
			}
		}
	})

	t.Run("a reply that ends the connection is not pooled", func(t *testing.T) {
		paths := []string{"/close", "/http10"}
		if served {
			paths = paths[:1]
		}
		for _, path := range paths {
			call(direct, bg, "/len", true) // leaves one idle connection, which the next call uses
			got, want := call(direct, bg, path, true), call(ref, bg, path, true)
			if got != want || !strings.HasPrefix(got, "ok ") {
				t.Errorf("%s: exchange %q, http.Client %q", path, got, want)
			}
			if n := peerConns.idleCount(peer.addr); n != 0 {
				t.Errorf("%s: %d idle connections, want 0", path, n)
			}
		}
	})

	// Only a handler that hijacks sends one.
	netHTTPOnly := func(name string, f func(t *testing.T)) {
		if !served {
			t.Run(name, f)
		}
	}
	netHTTPOnly("a malformed reply is an error and closes the connection", func(t *testing.T) {
		for _, path := range []string{"/badstatus", "/badheader", "/badlength"} {
			call(direct, bg, "/len", true)
			got, want := call(direct, bg, path, true), call(ref, bg, path, true)
			if got != want || got != "error" {
				t.Errorf("%s: exchange %q, http.Client %q, want an error of no other class", path, got, want)
			}
			if n := peerConns.idleCount(peer.addr); n != 0 {
				t.Errorf("%s: %d idle connections, want 0", path, n)
			}
		}
	})

	t.Run("a connection the peer closed while idle is replaced silently", func(t *testing.T) {
		var opened atomic.Int64
		tp := fastTransport(TransportOptions{MaxRetries: -1, BreakerThreshold: 1,
			OnBreakerOpen: func(string) { opened.Add(1) }})
		var out map[string]any
		if err := tp.GetJSON(bg, peer.srv.URL+"/len", &out); err != nil {
			t.Fatal(err)
		}
		if n := peerConns.idleCount(peer.addr); n != 1 {
			t.Fatalf("%d idle connections, want 1", n)
		}
		before := peer.conns.Load()
		peer.closeClientConns()
		out = nil
		if err := tp.GetJSON(bg, peer.srv.URL+"/len", &out); err != nil || fmt.Sprint(out) != "map[n:1 s:ab]" {
			t.Fatalf("call over a connection closed while idle: %v, %v", out, err)
		}
		if n := peer.conns.Load() - before; n != 1 {
			t.Errorf("%d connections dialled, want 1", n)
		}
		if opened.Load() != 0 || tp.PeerDown(peer.srv.URL) {
			t.Error("the redial counted against the breaker")
		}
		if got := call(ref, bg, "/len", true); got != "ok map[n:1 s:ab]" {
			t.Errorf("http.Client after the same: %q", got)
		}
	})

	// The loop sends a reply whole or not at all.
	netHTTPOnly("a deadline or a cancel mid-body is the context's error", func(t *testing.T) {
		for _, tp := range []*HTTPTransport{direct, ref} {
			call(tp, bg, "/len", true)
			ctx, cancel := context.WithTimeout(bg, 60*time.Millisecond)
			start := time.Now()
			if got := call(tp, ctx, "/stall", true); got != "deadline" {
				t.Errorf("deadline mid-body: %q", got)
			}
			cancel()
			if el := time.Since(start); el > 2*time.Second {
				t.Errorf("the call outlived its deadline by %v", el)
			}
			<-peer.stalled

			ctx, cancel = context.WithCancel(bg)
			go func() {
				<-peer.stalled
				cancel()
			}()
			if got := call(tp, ctx, "/stall", true); got != "canceled" {
				t.Errorf("cancel mid-body: %q", got)
			}
			cancel()
		}
		if n := peerConns.idleCount(peer.addr); n != 0 {
			t.Errorf("%d idle connections after a deadline and a cancel, want 0", n)
		}
	})

	t.Run("the peer sees the same request", func(t *testing.T) {
		ctx, cancel := context.WithTimeout(WithTenant(bg, "acme"), time.Second)
		defer cancel()
		in := map[string]int{"a": 1}
		for _, post := range []bool{false, true} {
			var seen [2]seenRequest
			for i, tp := range []*HTTPTransport{direct, ref} {
				var err error
				if post {
					err = tp.PostJSON(ctx, peer.srv.URL+"/seen?url=a%2Fb&x=1", in, nil)
				} else {
					err = tp.GetJSON(ctx, peer.srv.URL+"/seen?url=a%2Fb&x=1", nil)
				}
				if err != nil {
					t.Fatal(err)
				}
				seen[i] = peer.seen()
			}
			a, b := seen[0], seen[1]
			if a.deadlineMs <= 0 || a.deadlineMs > 1000 || b.deadlineMs <= 0 || b.deadlineMs > 1000 {
				t.Errorf("deadline headers %d and %d, want the remaining budget of 1 s", a.deadlineMs, b.deadlineMs)
			}
			a.deadlineMs, b.deadlineMs = 0, 0
			if a != b || a.tenant != "acme" || a.target != "/seen?url=a%2Fb&x=1" {
				t.Errorf("exchange sent %+v, http.Client %+v", a, b)
			}
		}
	})
}

// TestExchangeLeavesOddURLsToHTTPClient: what the exchange writes on the
// request line is the URL's own bytes, so it takes only URLs net/http would
// write unchanged.
func TestExchangeLeavesOddURLsToHTTPClient(t *testing.T) {
	for rawurl, want := range map[string]bool{
		"http://127.0.0.1:80/doc?url=http%3A%2F%2Fa%2Fb": true,
		"http://node-1.internal/healthz":                 true,
		"http://[::1]:8080":                              true,
		"https://127.0.0.1/doc":                          false,
		"http://user@host/doc":                           false,
		"http://host/a b":                                false,
		"http://host/doc#frag":                           false,
		"http://host?x=1":                                false,
		"http://host/\"quoted\"":                         false,
		"http:///doc":                                    false,
		"host:80/doc":                                    false,
	} {
		host, target, ok := splitPlainHTTP(rawurl)
		if ok != want {
			t.Errorf("splitPlainHTTP(%q) ok = %v, want %v", rawurl, ok, want)
		}
		if ok && (host != hostOf(rawurl) || "http://"+host+strings.TrimSuffix(target, "/") != strings.TrimSuffix(rawurl, "/")) {
			t.Errorf("splitPlainHTTP(%q) = %q, %q", rawurl, host, target)
		}
	}
	if got := dialAddr("[::1]"); got != "[::1]:80" {
		t.Errorf("dialAddr = %q", got)
	}
}

// TestPoolKeepsFourPerHostAndDropsTheOld: the pool's two bounds.
func TestPoolKeepsFourPerHostAndDropsTheOld(t *testing.T) {
	peer := newScriptedPeer(t, false)
	tp := fastTransport(TransportOptions{MaxRetries: -1})
	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := tp.GetJSON(context.Background(), peer.srv.URL+"/len", nil); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	n := peerConns.idleCount(peer.addr)
	if n < 1 || n > maxIdlePerHost {
		t.Fatalf("%d idle connections, want 1..%d", n, maxIdlePerHost)
	}
	// Age them past the limit: a sweep closes them, and so does a get.
	peerConns.mu.Lock()
	for _, pc := range peerConns.idle[peer.addr] {
		pc.idleAt = pc.idleAt.Add(-idleConnTimeout)
	}
	peerConns.mu.Unlock()
	before := peer.conns.Load()
	if err := tp.GetJSON(context.Background(), peer.srv.URL+"/len", nil); err != nil {
		t.Fatal(err)
	}
	if peer.conns.Load() != before+1 || peerConns.idleCount(peer.addr) != 1 {
		t.Fatalf("an expired connection was reused: %d dialled, %d idle", peer.conns.Load()-before, peerConns.idleCount(peer.addr))
	}
	peerConns.mu.Lock()
	peerConns.idle[peer.addr][0].idleAt = time.Now().Add(-idleConnTimeout)
	peerConns.mu.Unlock()
	peerConns.sweep()
	if n := peerConns.idleCount(peer.addr); n != 0 {
		t.Fatalf("%d idle connections after a sweep past the limit", n)
	}
}

// TestIdlePeerConnectionFootprint prices a connection in the peer pool after
// an exchange: the peerConn, its socket and the test's end of it, and no
// buffer — the reader and writer each attempt takes go back to their pools,
// which liveHeap's two collections empty before each reading.
func TestIdlePeerConnectionFootprint(t *testing.T) {
	const (
		hosts  = 16
		conns  = hosts * maxIdlePerHost
		budget = 2 << 10 // bytes a connection, the test's end included: 1.1 KB now, 9.5 KB while each kept a 4 KB reader and writer
	)
	var open atomic.Int64 // the peers' ends
	addrs, urls := make([]string, hosts), make([]string, hosts)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = ln.Close() })
		addrs[i], urls[i] = ln.Addr().String(), "http://"+ln.Addr().String()+"/healthz"
		go func() {
			for {
				c, err := ln.Accept()
				if err != nil {
					return
				}
				open.Add(1)
				go answerEmpty(c, &open)
			}
		}()
	}
	t.Cleanup(func() { peerConns.closeIdle(addrs) })
	tp := fastTransport(TransportOptions{MaxRetries: -1, BreakerThreshold: -1})
	// fill leaves maxIdlePerHost connections to every host in the pool, each
	// after an exchange: the one a call put back is taken out, so the next
	// call dials.
	fill := func() {
		for i, addr := range addrs {
			held := make([]*peerConn, 0, maxIdlePerHost)
			for range maxIdlePerHost {
				if err := tp.GetJSON(context.Background(), urls[i], nil); err != nil {
					t.Fatal(err)
				}
				pc := peerConns.get(addr)
				if pc == nil {
					t.Fatal("the exchange left no connection in the pool")
				}
				held = append(held, pc)
			}
			for _, pc := range held {
				peerConns.put(addr, pc)
			}
		}
	}
	fill() // the transport's and the pool's state for each host, built once
	peerConns.closeIdle(addrs)
	for deadline := time.Now().Add(5 * time.Second); open.Load() > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d peer ends still open", open.Load())
		}
	}
	h0 := liveHeap()
	fill()
	per := (liveHeap() - h0) / conns
	if n := peerConns.idleCount(addrs[0]); n != maxIdlePerHost {
		t.Fatalf("%d idle connections to a host, want %d", n, maxIdlePerHost)
	}
	t.Logf("a pooled peer connection, the test's end of it included: %d B of heap", per)
	if per > budget {
		t.Errorf("a pooled peer connection costs %d B, budget %d", per, budget)
	}
}

// answerEmpty answers every request on c with an empty JSON object, through
// the smallest reader there is.
func answerEmpty(c net.Conn, open *atomic.Int64) {
	defer open.Add(-1)
	defer c.Close()
	br := bufio.NewReaderSize(c, 16)
	for {
		if _, err := http.ReadRequest(br); err != nil {
			return
		}
		if _, err := io.WriteString(c, "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 2\r\n\r\n{}"); err != nil {
			return
		}
	}
}

// idleCount reports the idle connections held to addr.
func (p *connPool) idleCount(addr string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.idle[addr])
}

// TestLocalClusterCloseLeavesNothingOpen starts, uses and closes a cluster
// twenty times: goroutines and file descriptors are back where they began,
// so no connection of the process-wide pool and none a node serves from its
// own loop outlives the cluster it went to.
func TestLocalClusterCloseLeavesNothingOpen(t *testing.T) {
	round := func() {
		lc, err := StartLocalCluster([]string{"a", "b", "c", "d"}, 2, testCatalog(20), ClusterConfig{Shields: []string{"s0"}})
		if err != nil {
			t.Fatal(err)
		}
		closed := false
		defer func() {
			if !closed {
				lc.Close()
			}
		}()
		tp := NewHTTPTransport(TransportOptions{})
		for i, d := range testCatalog(20) {
			entry := lc.Cfg.Addrs[[]string{"a", "b", "c", "d"}[i%4]]
			if err := tp.GetJSON(context.Background(), entry+"/doc?url="+queryEscape(d.URL), nil); err != nil {
				t.Fatal(err)
			}
			if i%5 == 0 {
				if err := tp.PostJSON(context.Background(), lc.Cfg.OriginAddr+"/publish", PublishRequest{URL: d.URL}, nil); err != nil {
					t.Fatal(err)
				}
			}
		}
		if lc.Caches["a"].served.count() == 0 || lc.Shields["s0"].served.count() == 0 || lc.Origin.served.count() == 0 {
			t.Error("a node kind served no connection from its own loop: the test does not cover them")
		}
		// Clients' connections, left open: one the loop is serving, one it has
		// given back to net/http, one net/http's client keeps alive.
		onLoop, givenBack := dialRaw(t, lc.Cfg.Addrs["b"]), dialRaw(t, lc.Cfg.Addrs["c"])
		for _, p := range []*rawPeer{onLoop, givenBack} {
			if resp := p.send(p.request("GET", "/healthz", "")); resp == nil || resp.StatusCode != 200 {
				t.Fatal("a node does not answer a client")
			}
		}
		if resp := givenBack.send("OPTIONS /healthz HTTP/1.1\r\nHost: " + givenBack.host + "\r\n\r\n"); resp == nil || resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatal("a node does not answer an OPTIONS")
		}
		resp, err := http.Post(lc.Cfg.Addrs["d"]+"/drop", "application/json", struct{ io.Reader }{strings.NewReader(`{"url":"u"}`)}) // chunked
		if err != nil || resp.StatusCode != 200 {
			t.Fatalf("a chunked POST from net/http's client: %v", err)
		}
		_ = resp.Body.Close()
		lc.Close()
		closed = true
		for _, p := range []*rawPeer{onLoop, givenBack} {
			if !p.closed() {
				t.Error("a client's connection outlived the cluster")
			}
			_ = p.c.Close()
		}
	}
	idle := http.DefaultTransport.(*http.Transport).CloseIdleConnections
	round() // whatever the first use of net/http leaves running is not a leak
	idle()
	g0, f0 := settle()
	for i := 0; i < 20; i++ {
		round()
	}
	idle()
	g1, f1 := settle()
	if g1 > g0 {
		t.Errorf("goroutines: %d before, %d after twenty clusters", g0, g1)
	}
	if f1 > f0 {
		t.Errorf("open file descriptors: %d before, %d after twenty clusters", f0, f1)
	}
}

// FuzzWireReply hands arbitrary bytes to the exchange as a peer's reply. It
// must not panic, must return by its deadline, and may leave the connection
// in the pool only if net/http, reading the same bytes, finds one complete
// reply on a connection that stays open, and nothing after it.
func FuzzWireReply(f *testing.F) {
	for _, s := range []string{
		"HTTP/1.1 200 OK\r\nContent-Length: 7\r\n\r\n{\"n\":1}",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n7\r\n{\"n\":1}\r\n0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n7\r\n{\"n\":1}\r\n0\r\nX-Trailer: 1\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: 7\r\n\r\n{\"n\":1}HTTP/1.1 200 OK\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: 7\r\nContent-Length: 8\r\n\r\n{\"n\":1}",
		"HTTP/1.1 200 OK\r\nContent-Length: 7\r\ntransfer-encoding: CHUNKED\r\n\r\n2\r\n{}\r\n0\r\n\r\n",
		"HTTP/1.0 200 OK\r\nConnection: keep-alive\r\nContent-Length: 2\r\n\r\n{}",
		"HTTP/1.1 200 OK\r\nConnection: foo, close\r\nContent-Length: 2\r\n\r\n{}",
		"HTTP/1.1 204 No Content\r\nContent-Length: 2\r\n\r\n",
		"HTTP/1.1 429 Too Many Requests\r\nX-Cachecloud-Retry-After-Ms: 5\r\nContent-Length: 0\r\n\r\n",
		"HTTP/1.1 404 Not Found\r\nContent-Length: 3\r\n\r\nno\n",
		"HTTP/1.1 500 Oops\r\n\r\nuntil close",
		"HTTP/1.1 200 OK\r\nContent-Length : 2\r\n\r\n{}",
		"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n folded\r\n\r\n{}",
		"HTTP/1.1 200 OK\nContent-Length: 2\n\n{}",
		"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}",
		"HTTP/1.1 200 OK\r\nContent-Length: 99999999999\r\n\r\n{}",
		"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\n{\"n\"",
		"HTTP/1.1 200\r\nContent-Length: 2\r\n\r\n{}",
		"HTTP/1.1 2000 OK\r\n\r\n",
		"\r\n\r\n",
		"",
	} {
		f.Add([]byte(s), true)
	}
	// Two that are held open after an incomplete reply: the deadline ends them.
	f.Add([]byte("HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\n{\"n\""), false)
	f.Add([]byte("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n7\r\n{\"n\":1}\r\n"), false)

	const timeout = 150 * time.Millisecond
	tp := NewHTTPTransport(TransportOptions{RequestTimeout: timeout, MaxRetries: -1, BreakerThreshold: -1})
	f.Fuzz(func(t *testing.T, reply []byte, closeAfter bool) {
		// One read of the client's 4 KB buffer takes in the whole reply, so
		// "nothing left buffered" means nothing left at all.
		if len(reply) > 4000 {
			t.Skip()
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr().String()
		returned := make(chan struct{})
		served := make(chan struct{})
		go func() {
			defer close(served)
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			br := bufio.NewReader(conn)
			for { // the request head; a GET has no body
				line, err := br.ReadString('\n')
				if err != nil || line == "\r\n" {
					break
				}
			}
			_, _ = conn.Write(reply)
			if !closeAfter {
				<-returned
			}
		}()
		start := time.Now()
		var out map[string]any
		_ = tp.GetJSON(context.Background(), "http://"+addr+"/x", &out)
		elapsed := time.Since(start)
		close(returned)
		pooled := peerConns.idleCount(addr)
		peerConns.closeIdle([]string{addr})
		_ = ln.Close()
		<-served
		if elapsed > timeout+2*time.Second {
			t.Fatalf("the call took %v, deadline %v", elapsed, timeout)
		}
		if pooled > 0 && !netHTTPReadsOneWholeReply(reply) {
			t.Fatalf("connection pooled after a reply net/http does not read as whole and reusable: %q", reply)
		}
	})
}

// netHTTPReadsOneWholeReply is FuzzWireReply's reference.
func netHTTPReadsOneWholeReply(reply []byte) bool {
	br := bufio.NewReader(bytes.NewReader(reply))
	resp, err := http.ReadResponse(br, &http.Request{Method: http.MethodGet})
	if err != nil {
		return false
	}
	_, err = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if err != nil || resp.Close {
		return false
	}
	_, err = br.ReadByte()
	return err == io.EOF
}
