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
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// count is the number of connections being served.
func (s *servedConns) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// hideHijacker is a wrapper that keeps a node's handler on net/http's path:
// the writer it passes on offers nothing but the ResponseWriter methods.
func hideHijacker(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(struct{ http.ResponseWriter }{w}, r)
	})
}

// rawPeer is one persistent connection a test writes requests on by hand.
type rawPeer struct {
	t    *testing.T
	c    net.Conn
	br   *bufio.Reader
	host string
}

func dialRaw(t *testing.T, base string) *rawPeer {
	t.Helper()
	host := strings.TrimPrefix(base, "http://")
	c, err := net.Dial("tcp", host)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return &rawPeer{t: t, c: c, br: bufio.NewReader(c), host: host}
}

// request is a well-formed request of the exchange's shape, marked or not.
func (p *rawPeer) request(method, target, body string, marked bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s HTTP/1.1\r\nHost: %s\r\n", method, target, p.host)
	if marked {
		b.WriteString(PeerHeader + ": 1\r\n")
	}
	if body != "" || method == http.MethodPost {
		fmt.Fprintf(&b, "Content-Type: application/json\r\nContent-Length: %d\r\n", len(body))
	}
	return b.String() + "\r\n" + body
}

// send writes raw bytes and reads one reply; a nil reply means the
// connection ended first.
func (p *rawPeer) send(raw string) *http.Response {
	p.t.Helper()
	_ = p.c.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.WriteString(p.c, raw); err != nil {
		return nil
	}
	resp, err := http.ReadResponse(p.br, nil)
	if err != nil {
		return nil
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		p.t.Fatalf("reading the reply's body: %v", err)
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	return resp
}

// closed reports whether the server has closed the connection.
func (p *rawPeer) closed() bool {
	_ = p.c.SetDeadline(time.Now().Add(5 * time.Second))
	_, err := p.br.ReadByte()
	return err == io.EOF || errors.Is(err, net.ErrClosed) || strings.Contains(fmt.Sprint(err), "reset")
}

// replyOf renders what a caller can tell apart of a reply.
func replyOf(resp *http.Response, withBody bool) string {
	if resp == nil {
		return "no reply"
	}
	body, _ := io.ReadAll(resp.Body)
	s := fmt.Sprintf("%d type=%q retry=%q/%q allow=%q close=%v", resp.StatusCode, resp.Header.Get("Content-Type"),
		resp.Header.Get("Retry-After"), resp.Header.Get(RetryAfterMsHeader), resp.Header.Get("Allow"), resp.Close)
	if withBody {
		s += " " + string(body)
	}
	return s
}

// scriptedNet is the network of a node that has none: the outcome of a
// call is in the URL.
type scriptedNet struct{}

func (scriptedNet) GetJSON(_ context.Context, url string, _ any) error {
	switch {
	case strings.Contains(url, "shed"):
		return &peerShedError{url: "peer", retryAfter: 300 * time.Millisecond}
	case strings.Contains(url, "gone"):
		return errNotFound
	}
	return errors.New("no network")
}

func (n scriptedNet) PostJSON(ctx context.Context, url string, _, out any) error {
	return n.GetJSON(ctx, url, out)
}

// trio is one node of each kind, each behind its own server.
type trio struct {
	cache  *CacheNode
	shield *ShieldNode
	origin *OriginNode
	addr   [3]string // cache, shield, origin
}

// trioConfig names a cluster none of whose addresses answers.
func trioConfig() ClusterConfig {
	return ClusterConfig{
		IntraGen: 100,
		Rings:    [][]string{{"n0", "n1"}},
		Addrs:    map[string]string{"n0": "http://127.0.0.1:1", "n1": "http://127.0.0.1:2"},
		Shields:  []string{"s0"}, ShieldAddrs: map[string]string{"s0": "http://127.0.0.1:4"},
		OriginAddr: "http://127.0.0.1:3",
	}
}

func startTrio(t *testing.T) *trio {
	t.Helper()
	cfg := trioConfig()
	cfg.Clock = newManualClock()
	var tr trio
	var err error
	if tr.cache, err = NewCacheNodeWithTransport("n0", cfg, scriptedNet{}); err != nil {
		t.Fatal(err)
	}
	if tr.shield, err = NewShieldNodeWithTransport("s0", cfg, scriptedNet{}); err != nil {
		t.Fatal(err)
	}
	if tr.origin, err = NewOriginNodeWithTransport(cfg, testCatalog(3), scriptedNet{}); err != nil {
		t.Fatal(err)
	}
	for i, h := range []http.Handler{tr.cache.Handler(), tr.shield.Handler(), tr.origin.Handler()} {
		// The outermost handler is not the node's: the loop has to come
		// through it for the 503.
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/partitioned" {
				http.Error(w, "partitioned", http.StatusServiceUnavailable)
				return
			}
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(srv.Close)
		tr.addr[i] = srv.URL
	}
	t.Cleanup(func() {
		_ = tr.cache.Close()
		_ = tr.shield.Close()
		_ = tr.origin.Close()
	})
	return &tr
}

// TestServedRoutesMatchNetHTTP is the differential test of the two server
// paths: the same sequence of requests — every route of the three node
// kinds with a request it takes, one it refuses and one it cannot decode,
// plus an unknown route, a wrong method and a path only the server's outer
// handler knows — goes to two identical trios, marked on one persistent
// connection to the first and unmarked to the second. Status, Content-Type,
// both retry hints, Allow, the close and the body are the same.
func TestServedRoutesMatchNetHTTP(t *testing.T) {
	const doc = "http%3A%2F%2Flive%2Fdoc%2F1"
	type route struct {
		kind           int // 0 cache, 1 shield, 2 origin
		method, path   string
		query, body    string
		bodyMayDiffer  bool // it carries a time or a counter of requests
		alsoWrongInput bool
	}
	routes := []route{
		{0, "GET", "/doc", "url=" + doc, "", false, true},
		{0, "GET", "/doc", "url=http%3A%2F%2Flive%2Fshed", "", false, false},
		{0, "GET", "/doc", "url=http%3A%2F%2Flive%2Fgone", "", false, false},
		{0, "GET", "/lookup", "url=" + doc + "&holder=n1&seq=7", "", false, true},
		{0, "POST", "/deregister", "", `{"node":"n1","seq":9,"urls":["http://live/doc/1"]}`, false, true},
		{0, "GET", "/fetch", "url=" + doc, "", false, true},
		{0, "POST", "/update", "", `{"doc":{"url":"http://live/doc/1","size":100,"version":2}}`, false, true},
		{0, "POST", "/apply", "", `{"doc":{"url":"http://live/doc/1","size":100,"version":2}}`, false, true},
		{0, "POST", "/purge", "", `{"url":"http://live/doc/1"}`, false, true},
		{0, "POST", "/drop", "", `{"url":"http://live/doc/1"}`, false, true},
		{0, "POST", "/subranges", "", `{"rings":[[{"node":"n0","lo":0,"hi":49},{"node":"n1","lo":50,"hi":99}]]}`, false, true},
		{0, "GET", "/subranges", "", "", false, false},
		{0, "POST", "/records/import", "", `{"records":[{"url":"http://live/doc/2","holders":["n1"],"version":1}]}`, false, true},
		{0, "POST", "/records/replica", "", `{"records":[{"url":"u","holders":["n1"],"version":1}],"from":"n1"}`, false, true},
		{0, "POST", "/replicate", "", `{}`, false, true},
		{0, "POST", "/reconcile", "", `{"node":"n1","seq":11,"urls":["http://live/doc/1"]}`, false, true},
		{0, "POST", "/loads/collect", "", `{}`, false, true},
		{0, "POST", "/membership", "", `{"down":["n1"]}`, false, true},
		{0, "GET", "/healthz", "", "", false, false},
		{0, "GET", "/stats", "", "", true, false},
		{0, "GET", "/metrics", "", "", true, false},
		{1, "GET", "/sfetch", "url=" + doc + "&cloud=cloud0", "", false, true},
		{1, "GET", "/sfetch", "url=http%3A%2F%2Flive%2Fgone&cloud=cloud0", "", false, false},
		{1, "POST", "/supdate", "", `{"doc":{"url":"http://live/doc/1","size":100,"version":2}}`, false, true},
		{1, "POST", "/spurge", "", `{"url":"http://live/doc/1","scope":"global","gen":1}`, false, true},
		{1, "POST", "/subranges", "", `{"rings":[[{"node":"n0","lo":0,"hi":49},{"node":"n1","lo":50,"hi":99}]]}`, false, true},
		{1, "GET", "/healthz", "", "", false, false},
		{1, "GET", "/stats", "", "", true, false},
		{1, "GET", "/metrics", "", "", true, false},
		{2, "GET", "/fetch", "url=" + doc, "", false, true},
		{2, "GET", "/fetch", "url=http%3A%2F%2Fnowhere", "", false, false},
		{2, "GET", "/versions", "", "", false, false},
		{2, "POST", "/publish", "", `{"url":"http://live/doc/1"}`, false, true},
		{2, "POST", "/publish", "", `{"url":"http://nowhere"}`, false, false},
		{2, "POST", "/purge", "", `{"url":"http://live/doc/2","scope":"global"}`, false, true},
		{2, "POST", "/rebalance", "", `{}`, false, false},
		{2, "POST", "/replicate", "", `{}`, false, false},
		{2, "POST", "/repair", "", `{}`, false, false},
		{2, "POST", "/heartbeat", "", `{"node":"n1","seq":1,"recordsHeld":3}`, false, true},
		{2, "GET", "/stats", "", "", true, false},
		{2, "GET", "/metrics", "", "", true, false},
	}
	for kind := 0; kind < 3; kind++ {
		routes = append(routes,
			route{kind, "GET", "/no/such/route", "", "", false, false},
			route{kind, "POST", "/stats", "", "{}", false, false},
			route{kind, "GET", "/partitioned", "", "", false, false})
	}

	served, plain := startTrio(t), startTrio(t)
	var servedConn, plainConn [3]*rawPeer
	for kind := 0; kind < 3; kind++ {
		servedConn[kind], plainConn[kind] = dialRaw(t, served.addr[kind]), dialRaw(t, plain.addr[kind])
	}
	statuses := map[int]bool{}
	both := func(rt route, query, body string) {
		t.Helper()
		target := rt.path
		if query != "" {
			target += "?" + query
		}
		a := servedConn[rt.kind].send(servedConn[rt.kind].request(rt.method, target, body, true))
		b := plainConn[rt.kind].send(plainConn[rt.kind].request(rt.method, target, body, false))
		if a != nil {
			statuses[a.StatusCode] = true
		}
		if got, want := replyOf(a, !rt.bodyMayDiffer), replyOf(b, !rt.bodyMayDiffer); got != want {
			t.Errorf("%s %s %q:\n  served loop %.300s\n  net/http    %.300s", rt.method, target, body, got, want)
		}
	}
	for _, rt := range routes {
		both(rt, rt.query, rt.body)
		if rt.alsoWrongInput {
			both(rt, "", `{}`)
			both(rt, "x=%zz", `{"url":`)
		}
	}
	for _, want := range []int{200, 400, 404, 405, 429, 502, 503} {
		if !statuses[want] {
			t.Errorf("no request of the table was answered %d", want)
		}
	}
	for kind, set := range []*servedConns{&served.cache.served, &served.shield.served, &served.origin.served} {
		if n := set.count(); n != 1 {
			t.Errorf("kind %d: %d served connections, want the one the table ran on", kind, n)
		}
	}
	for kind, set := range []*servedConns{&plain.cache.served, &plain.shield.served, &plain.origin.served} {
		if n := set.count(); n != 0 {
			t.Errorf("kind %d: %d served connections without a marked request", kind, n)
		}
	}
}

// countingHandler counts the requests that reach a server's outer handler.
type countingHandler struct {
	n    atomic.Int64
	next http.Handler
}

func (c *countingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.n.Add(1)
	c.next.ServeHTTP(w, r)
}

// servedNode is one cache node behind an httptest server whose outer
// handler counts, and a transport whose calls are marked.
func servedNode(t *testing.T) (*CacheNode, *httptest.Server, *countingHandler, *HTTPTransport) {
	t.Helper()
	n, err := NewCacheNodeWithTransport("n0", trioConfig(), scriptedNet{})
	if err != nil {
		t.Fatal(err)
	}
	counter := &countingHandler{next: n.Handler()}
	srv := httptest.NewServer(counter)
	t.Cleanup(func() {
		srv.Close()
		_ = n.Close()
		peerConns.closeIdle([]string{strings.TrimPrefix(srv.URL, "http://")})
	})
	return n, srv, counter, fastTransport(TransportOptions{NoRetries: true, BreakerThreshold: -1})
}

// TestServedLoopDispatchesThroughTheServersHandler: what wraps Handler()
// sees every peer request, not one a connection, and a handler swapped in
// mid-run answers the next request of a connection already being served.
func TestServedLoopDispatchesThroughTheServersHandler(t *testing.T) {
	n, srv, counter, tp := servedNode(t)
	bg := context.Background()
	for i := 0; i < 5; i++ {
		if err := tp.GetJSON(bg, srv.URL+"/healthz", nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := counter.n.Load(); got != 5 {
		t.Errorf("the wrapper counted %d of 5 peer requests", got)
	}
	if got := n.served.count(); got != 1 {
		t.Fatalf("%d served connections after five sequential calls, want 1", got)
	}
	old := srv.Config.Handler
	srv.Config.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "partitioned", http.StatusServiceUnavailable)
	})
	var se *statusError
	if err := tp.GetJSON(bg, srv.URL+"/healthz", nil); !errors.As(err, &se) || se.status != http.StatusServiceUnavailable {
		t.Errorf("after the swap: %v, want the new handler's 503", err)
	}
	srv.Config.Handler = old
	if err := tp.GetJSON(bg, srv.URL+"/healthz", nil); err != nil {
		t.Errorf("after swapping back: %v", err)
	}
	if got := n.served.count(); got != 1 {
		t.Errorf("%d served connections, want the same one throughout", got)
	}
}

// TestServedPanicCostsOneConnection: a handler's panic closes the
// connection it ran on, without a reply, and nothing else.
func TestServedPanicCostsOneConnection(t *testing.T) {
	n, srv, counter, tp := servedNode(t)
	inner := counter.next
	counter.next = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/boom" {
			panic(http.ErrAbortHandler) // the one panic net/http and the loop do not log
		}
		inner.ServeHTTP(w, r)
	})
	bg := context.Background()
	other := dialRaw(t, srv.URL)
	if resp := other.send(other.request("GET", "/healthz", "", true)); resp == nil || resp.StatusCode != 200 {
		t.Fatal("no reply on the second connection")
	}
	if err := tp.GetJSON(bg, srv.URL+"/healthz", nil); err != nil {
		t.Fatal(err)
	}
	if got := n.served.count(); got != 2 {
		t.Fatalf("%d served connections, want 2", got)
	}
	err := tp.GetJSON(bg, srv.URL+"/boom", nil)
	var se *statusError
	if err == nil || errors.As(err, &se) {
		t.Errorf("a panicking handler's caller got %v, want a broken connection", err)
	}
	waitFor(t, 2*time.Second, "the panicked connection to go", func() bool { return n.served.count() == 1 })
	if resp := other.send(other.request("GET", "/healthz", "", true)); resp == nil || resp.StatusCode != 200 {
		t.Error("the other served connection did not survive the panic")
	}
	if err := tp.GetJSON(bg, srv.URL+"/healthz", nil); err != nil {
		t.Errorf("the node stopped serving after a panic: %v", err)
	}
}

// TestServedLoopRefusals: on a connection being served, everything outside
// the subset the loop reads is answered with an error and a close, and a
// request inside it — a 70 KB target, headers the node does not know — is
// served.
func TestServedLoopRefusals(t *testing.T) {
	n, srv, _, _ := servedNode(t)
	host := strings.TrimPrefix(srv.URL, "http://")
	start := func() *rawPeer {
		p := dialRaw(t, srv.URL)
		if resp := p.send(p.request("GET", "/healthz", "", true)); resp == nil || resp.StatusCode != 200 {
			t.Fatal("the first request was not served")
		}
		return p
	}
	long := strings.Repeat("a", 70<<10)
	for name, tc := range map[string]struct {
		raw  string
		want int
	}{
		"HTTP/1.0":                {"GET /healthz HTTP/1.0\r\nHost: " + host + "\r\n\r\n", 400},
		"a method the nodes lack": {"DELETE /healthz HTTP/1.1\r\nHost: " + host + "\r\n\r\n", 400},
		"absolute-form target":    {"GET http://" + host + "/healthz HTTP/1.1\r\nHost: " + host + "\r\n\r\n", 400},
		"a NUL in the target":     {"GET /healthz?\x00 HTTP/1.1\r\nHost: " + host + "\r\n\r\n", 400},
		"a space in the target":   {"GET /health z HTTP/1.1\r\nHost: " + host + "\r\n\r\n", 400},
		"bare LF":                 {"GET /healthz HTTP/1.1\nHost: " + host + "\n\n", 400},
		"no Host":                 {"GET /healthz HTTP/1.1\r\n\r\n", 400},
		"two Hosts":               {"GET /healthz HTTP/1.1\r\nHost: " + host + "\r\nHost: " + host + "\r\n\r\n", 400},
		"two Content-Lengths":     {"POST /drop HTTP/1.1\r\nHost: " + host + "\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\n{}", 400},
		"a signed Content-Length": {"POST /drop HTTP/1.1\r\nHost: " + host + "\r\nContent-Length: +2\r\n\r\n{}", 400},
		"Transfer-Encoding":       {"POST /drop HTTP/1.1\r\nHost: " + host + "\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n", 400},
		"Expect":                  {"POST /drop HTTP/1.1\r\nHost: " + host + "\r\nExpect: 100-continue\r\nContent-Length: 2\r\n\r\n{}", 400},
		"Upgrade":                 {"GET /healthz HTTP/1.1\r\nHost: " + host + "\r\nUpgrade: h2c\r\n\r\n", 400},
		"a folded line":           {"GET /healthz HTTP/1.1\r\nHost: " + host + "\r\nX-A: 1\r\n folded\r\n\r\n", 400},
		"a space before a colon":  {"GET /healthz HTTP/1.1\r\nHost : " + host + "\r\n\r\n", 400},
		"a line without a colon":  {"GET /healthz HTTP/1.1\r\nHost: " + host + "\r\nno colon here\r\n\r\n", 400},
		"a control byte in value": {"GET /healthz HTTP/1.1\r\nHost: " + host + "\r\nX-A: a\x01b\r\n\r\n", 400},
		"a head over the bound":   {"GET /healthz?" + strings.Repeat(long, 4) + " HTTP/1.1\r\nHost: " + host + "\r\n\r\n", 431},
		"a body over the bound":   {"POST /drop HTTP/1.1\r\nHost: " + host + "\r\nContent-Length: 16777217\r\n\r\n", 413},
	} {
		p := start()
		resp := p.send(tc.raw)
		if resp == nil || resp.StatusCode != tc.want || !resp.Close {
			t.Errorf("%s: %s, want %d and a close", name, replyOf(resp, false), tc.want)
			continue
		}
		if !p.closed() {
			t.Errorf("%s: the connection stayed open", name)
		}
	}
	waitFor(t, 2*time.Second, "the refused connections to go", func() bool { return n.served.count() == 0 })

	p := start()
	resp := p.send("GET /fetch?url=" + long + " HTTP/1.1\r\nHost: " + host + "\r\nX-Unknown: 1\r\nX-Unknown: 2\r\nAccept-Encoding: gzip\r\n\r\n")
	if resp == nil || resp.StatusCode != http.StatusNotFound || resp.Close {
		t.Errorf("a 70 KB target: %s, want the handler's 404 on a kept connection", replyOf(resp, false))
	}
	// A body one byte short holds the loop until the connection ends; the
	// handler never sees it.
	if _, err := io.WriteString(p.c, "POST /drop HTTP/1.1\r\nHost: "+host+"\r\nContent-Length: 3\r\n\r\n{}"); err != nil {
		t.Fatal(err)
	}
	_ = p.c.(*net.TCPConn).CloseWrite()
	if !p.closed() {
		t.Error("a short body was answered")
	}
	// Two requests in one write are served in order.
	p = start()
	if _, err := io.WriteString(p.c, p.request("GET", "/healthz", "", true)+p.request("GET", "/fetch?url=u", "", true)); err != nil {
		t.Fatal(err)
	}
	for _, want := range []int{200, 404} {
		if resp := p.send(""); resp == nil || resp.StatusCode != want {
			t.Errorf("pipelined: %s, want %d", replyOf(resp, false), want)
		}
	}
}

// TestServedConnectionOwners: a served connection ends with the idle time,
// with the Shutdown of the server that accepted it and with the node's
// Close, after which the node serves marked requests on net/http's path.
func TestServedConnectionOwners(t *testing.T) {
	t.Run("idle", func(t *testing.T) {
		n, srv, _, _ := servedNode(t)
		n.served.idle = 50 * time.Millisecond
		p := dialRaw(t, srv.URL)
		for i := 0; i < 2; i++ { // the second is the loop's own
			if resp := p.send(p.request("GET", "/healthz", "", true)); resp == nil {
				t.Fatal("no reply")
			}
		}
		if n.served.count() != 1 {
			t.Fatal("the connection is not being served")
		}
		if !p.closed() || n.served.count() != 0 {
			t.Error("the idle connection was kept")
		}
	})
	t.Run("Shutdown", func(t *testing.T) {
		n, _, _, _ := servedNode(t)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := &http.Server{Handler: n.Handler()}
		done := make(chan error, 1)
		go func() { done <- srv.Serve(ln) }()
		p := dialRaw(t, "http://"+ln.Addr().String())
		if resp := p.send(p.request("GET", "/healthz", "", true)); resp == nil {
			t.Fatal("no reply")
		}
		if n.served.count() != 1 {
			t.Fatal("the connection is not being served")
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != http.ErrServerClosed {
			t.Fatal(err)
		}
		if !p.closed() {
			t.Error("the served connection outlived its server's Shutdown")
		}
		waitFor(t, 2*time.Second, "the loop to end", func() bool { return n.served.count() == 0 })
	})
	t.Run("Close", func(t *testing.T) {
		n, srv, _, _ := servedNode(t)
		p := dialRaw(t, srv.URL)
		if resp := p.send(p.request("GET", "/healthz", "", true)); resp == nil {
			t.Fatal("no reply")
		}
		_ = n.Close()
		if !p.closed() {
			t.Error("the served connection outlived the node's Close")
		}
		waitFor(t, 2*time.Second, "the loop to end", func() bool { return n.served.count() == 0 })
		p = dialRaw(t, srv.URL)
		if resp := p.send(p.request("GET", "/healthz", "", true)); resp == nil || resp.StatusCode != 200 || !resp.Close {
			t.Fatalf("a closed node's handler behind a running server: %s, want an answer and a close", replyOf(resp, false))
		}
		if n.served.count() != 0 {
			t.Error("a closed node took a connection to serve")
		}
	})
}

// TestStopNodeEndsServedConnections: a "crashed" node answers nobody, the
// peers whose connections it was serving included, and the cloud fails
// over.
func TestStopNodeEndsServedConnections(t *testing.T) {
	lc := startCluster(t, 4, 2, ClusterConfig{})
	client := &http.Client{Timeout: 5 * time.Second}
	docs := testCatalog(40)
	for i, d := range docs {
		getDoc(t, client, lc.Cfg.Addrs[fmt.Sprintf("live-%02d", i%4)], d.URL)
	}
	victim := "live-01"
	if lc.Caches[victim].served.count() == 0 {
		t.Fatal("the traffic left the victim no connection to serve")
	}
	lc.StopNode(victim)
	if n := lc.Caches[victim].served.count(); n != 0 {
		waitFor(t, 2*time.Second, "the victim's loops to end", func() bool { return lc.Caches[victim].served.count() == 0 })
	}
	tp := fastTransport(TransportOptions{NoRetries: true, BreakerThreshold: -1})
	if err := tp.GetJSON(context.Background(), lc.Cfg.Addrs[victim]+"/healthz", nil); err == nil {
		t.Error("a stopped node answered")
	}
	for i, d := range docs { // every document is still served, past the dead beacon
		entry := fmt.Sprintf("live-%02d", i%4)
		if entry != victim {
			getDoc(t, client, lc.Cfg.Addrs[entry], d.URL)
		}
	}
}

// settle returns the goroutine and descriptor counts once they hold still.
func settle() (goroutines, fds int) {
	for i := 0; ; i++ {
		goroutines, fds = runtime.NumGoroutine(), openFDs()
		time.Sleep(20 * time.Millisecond)
		if g, f := runtime.NumGoroutine(), openFDs(); g == goroutines && f == fds || i == 100 {
			return g, f
		}
	}
}

// openFDs counts the process's open file descriptors (-1 where /proc does
// not say).
func openFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

// checkLeaks fails a test that ends with more goroutines or descriptors
// than it began with. Call it first: cleanups run last in, first out, and
// this one has to follow the cluster's.
func checkLeaks(t *testing.T) {
	t.Helper()
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	g0, f0 := settle()
	t.Cleanup(func() {
		http.DefaultTransport.(*http.Transport).CloseIdleConnections()
		if g1, f1 := settle(); g1 > g0 || f1 > f0 {
			buf := make([]byte, 1<<20)
			t.Errorf("goroutines %d before, %d after; descriptors %d before, %d after\n%s",
				g0, g1, f0, f1, buf[:runtime.Stack(buf, true)])
		}
	})
}

// scriptConn is a connection whose peer has already said all it will.
type scriptConn struct {
	in     *bytes.Reader
	out    bytes.Buffer
	closed bool
}

func (c *scriptConn) Read(p []byte) (int, error)  { return c.in.Read(p) }
func (c *scriptConn) Write(p []byte) (int, error) { return c.out.Write(p) }
func (c *scriptConn) Close() error                { c.closed = true; return nil }
func (*scriptConn) LocalAddr() net.Addr           { return &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 1} }
func (*scriptConn) RemoteAddr() net.Addr          { return &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 2} }
func (*scriptConn) SetDeadline(time.Time) error   { return nil }
func (*scriptConn) SetReadDeadline(time.Time) error {
	return nil
}
func (*scriptConn) SetWriteDeadline(time.Time) error { return nil }

// dispatched is what a handler learns of one request.
type dispatched struct {
	method, target, url, host string
	header                    http.Header
	body                      []byte
}

func dispatchedOf(r *http.Request) (dispatched, error) {
	body, err := io.ReadAll(r.Body)
	h := r.Header.Clone()
	// net/http adds the second from the first; no handler here reads either.
	h.Del("Pragma")
	h.Del("Cache-Control")
	return dispatched{r.Method, r.RequestURI, r.URL.String(), r.Host, h, body}, err
}

// FuzzWireRequest hands arbitrary bytes to the served loop as what follows
// the first request of a connection. It must not panic, must end when the
// bytes do, must buffer no more than it was sent, and whatever it gives a
// handler http.ReadRequest, reading the same bytes, reads as the same
// requests: method, target, URL, Host, every header value and the body. So
// what ReadRequest refuses the loop refuses too.
func FuzzWireRequest(f *testing.F) {
	const host = "Host: n0\r\n"
	for _, s := range []string{
		"GET /lookup?url=http%3A%2F%2Flive%2Fdoc%2F1&holder=n1&seq=7 HTTP/1.1\r\n" + host + PeerHeader + ": 1\r\n" + DeadlineHeader + ": 250\r\n" + TenantHeader + ": acme\r\n\r\n",
		"POST /apply HTTP/1.1\r\n" + host + "Content-Type: application/json\r\nContent-Length: 7\r\n\r\n{\"n\":1}",
		"POST /apply HTTP/1.1\r\n" + host + "Content-Length: 2\r\nContent-Length: 2\r\n\r\n{}",
		"POST /apply HTTP/1.1\r\n" + host + "Content-Length: 2\r\nContent-Length: 3\r\n\r\n{}x",
		"POST /apply HTTP/1.1\r\n" + host + "Transfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n",
		"POST /apply HTTP/1.1\r\n" + host + "Content-Length: 2\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n",
		"GET /healthz HTTP/1.1\n" + "Host: n0\n\n",
		"GET /healthz HTTP/1.1\r\n" + host + "\n",
		"GET /fetch?url=\x00 HTTP/1.1\r\n" + host + "\r\n",
		"GET /fetch?url=" + strings.Repeat("u", 70<<10) + " HTTP/1.1\r\n" + host + "\r\n",
		"POST /apply HTTP/1.1\r\n" + host + "Content-Length: 8\r\n\r\n{\"n\":1}",
		"GET /healthz HTTP/1.1\r\n" + host + "\r\nPOST /drop HTTP/1.1\r\n" + host + "Content-Length: 2\r\n\r\n{}GET /stats HTTP/1.1\r\n" + host + "\r\n",
		"GET /healthz HTTP/1.1\r\n" + host + "Connection: keep-alive, close\r\n\r\nGET /stats HTTP/1.1\r\n" + host + "\r\n",
		"GET /healthz HTTP/1.1\r\n" + host + "X-A: 1\r\nx-a: 2\r\nX-B:\t padded \t\r\nPragma: no-cache\r\n\r\n",
		"GET /healthz HTTP/1.1\r\n" + host + "X-A: 1\r\n folded\r\n\r\n",
		"GET /healthz HTTP/1.1\r\n" + "Host : n0\r\n\r\n",
		"GET /healthz HTTP/1.1\r\n" + host + host + "\r\n",
		"GET /healthz HTTP/1.1\r\n\r\n",
		"GET /healthz HTTP/1.0\r\n" + host + "\r\n",
		"GET http://n0/healthz HTTP/1.1\r\n" + host + "\r\n",
		"GET //n1/healthz?a=%zz HTTP/1.1\r\n" + host + "\r\n",
		"GET /%zz HTTP/1.1\r\n" + host + "\r\n",
		"OPTIONS * HTTP/1.1\r\n" + host + "\r\n",
		"GET /healthz HTTP/1.1\r\n" + host + "Expect: 100-continue\r\n\r\n",
		"GET /healthz HTTP/1.1\r\n" + host + "Content-Length: 18446744073709551616\r\n\r\n",
		"\r\nGET /healthz HTTP/1.1\r\n" + host + "\r\n",
		"GET /healthz HTTP/1.1\r\n" + host + "X-A: a\rb\r\n\r\n",
		"",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var got []dispatched
		srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			d, err := dispatchedOf(r)
			if err != nil {
				t.Errorf("reading a dispatched body: %v", err)
			}
			got = append(got, d)
			_, _ = w.Write(d.body)
		})}
		conn := &scriptConn{in: bytes.NewReader(data)}
		sc := newServedConn(&servedConns{}, srv, conn, bufio.NewReader(conn), bufio.NewWriter(conn), &http.Request{RemoteAddr: "127.0.0.1:2"})
		sc.run() // on this goroutine: it is back when the bytes are used up

		if !conn.closed {
			t.Fatal("the loop ended without closing the connection")
		}
		if conn.out.Len() > len(data)+len(got)*128+256 {
			t.Fatalf("%d bytes written for %d bytes read", conn.out.Len(), len(data))
		}
		ref := bufio.NewReader(bytes.NewReader(data))
		for i, d := range got {
			r, err := http.ReadRequest(ref)
			if err != nil {
				t.Fatalf("request %d: the loop dispatched %+v, ReadRequest says %v", i, d, err)
			}
			want, err := dispatchedOf(r)
			if err != nil {
				t.Fatalf("request %d: the loop dispatched %+v, ReadRequest's body ends in %v", i, d, err)
			}
			if !reflect.DeepEqual(d, want) {
				t.Fatalf("request %d:\n  loop        %+v\n  ReadRequest %+v", i, d, want)
			}
		}
		// One well-formed reply a dispatch, and at most one refusal after.
		replies := bufio.NewReader(&conn.out)
		for i := 0; ; i++ {
			resp, err := http.ReadResponse(replies, nil)
			if err != nil {
				if i < len(got) || i > len(got)+1 || replies.Buffered() > 0 {
					t.Fatalf("%d replies for %d dispatches, then %v", i, len(got), err)
				}
				break
			}
			body, err := io.ReadAll(resp.Body)
			if err != nil || i < len(got) && (resp.StatusCode != 200 || !bytes.Equal(body, got[i].body)) ||
				i == len(got) && (resp.StatusCode < 400 || !resp.Close) {
				t.Fatalf("reply %d of %d dispatches: %d %q %v", i, len(got), resp.StatusCode, body, err)
			}
		}
	})
}

// TestIdleServedConnectionFootprint prices a connection the loop holds
// between requests, beside one net/http holds: the two 4 KB buffers that
// came with the hijack, the net/http state they keep reachable and the
// loop's own — no request or reply buffer, however large the last request
// was.
func TestIdleServedConnectionFootprint(t *testing.T) {
	const (
		conns  = 64
		budget = 17 << 10 // bytes a connection: 13.4 KB now; a pinned request buffer adds the 512 KB the body below grows one to
	)
	big := `{"records":[{"url":"` + strings.Repeat("u", 256<<10) // read whole, then refused: the node keeps none of it
	cost := func(marked bool) int64 {
		n, srv, _, _ := servedNode(t)
		peers := make([]*rawPeer, conns)
		h0 := liveHeap()
		for i := range peers {
			p := dialRaw(t, srv.URL)
			p.br = bufio.NewReaderSize(p.c, 16) // the test's own side of the price, kept small
			peers[i] = p
			if resp := p.send(p.request("GET", "/healthz", "", marked)); resp == nil {
				t.Fatal("no reply")
			}
			if resp := p.send(p.request("POST", "/records/replica", big, marked)); resp == nil || resp.StatusCode != 400 {
				t.Fatalf("the large request: %s", replyOf(resp, true))
			}
		}
		// The server lets go of what it read of a request after its reply has
		// left: the last connection's next exchange says that it has.
		if last := peers[conns-1]; last.send(last.request("GET", "/healthz", "", marked)) == nil {
			t.Fatal("no reply")
		}
		if got := n.served.count(); marked && got != conns || !marked && got != 0 {
			t.Fatalf("%d served connections of %d, marked %v", got, conns, marked)
		}
		per := (liveHeap() - h0) / conns
		runtime.KeepAlive(peers)
		return per
	}
	plain, served := cost(false), cost(true)
	t.Logf("an idle connection, the test's end of it included: %d B of heap served by the loop, %d B by net/http", served, plain)
	if served > budget {
		t.Errorf("an idle served connection costs %d B, budget %d", served, budget)
	}
}
