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
	t         *testing.T
	c         net.Conn
	br        *bufio.Reader
	host      string
	continues int // 100 Continue replies read so far
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

// request is a well-formed request of the exchange's shape.
func (p *rawPeer) request(method, target, body string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s HTTP/1.1\r\nHost: %s\r\n", method, target, p.host)
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
	method, _, _ := strings.Cut(raw, " ")
	return p.read(method)
}

// read reads the reply to a request of the given method, past any 100
// Continue.
func (p *rawPeer) read(method string) *http.Response {
	p.t.Helper()
	_ = p.c.SetDeadline(time.Now().Add(5 * time.Second))
	req := &http.Request{Method: method} // a HEAD's reply has no body
	resp, err := http.ReadResponse(p.br, req)
	for err == nil && resp.StatusCode == http.StatusContinue {
		p.continues++
		resp, err = http.ReadResponse(p.br, req)
	}
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
	_, dateErr := http.ParseTime(resp.Header.Get("Date"))
	s := fmt.Sprintf("%s %d type=%q retry=%q/%q allow=%q close=%v date=%v", resp.Proto, resp.StatusCode, resp.Header.Get("Content-Type"),
		resp.Header.Get("Retry-After"), resp.Header.Get(RetryAfterMsHeader), resp.Header.Get("Allow"), resp.Close, dateErr == nil)
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

// startTrio starts the three; with hidden set they stay on net/http's path.
func startTrio(t *testing.T, hidden bool) *trio {
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
		if hidden {
			h = hideHijacker(h)
		}
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
// handler knows — goes on one persistent connection each to two identical
// trios, the second of which never lets go of a connection; and every
// request a route takes goes in every shape a client may give it: plain,
// chunked, behind Expect, as a HEAD, as OPTIONS, as HTTP/1.0, with another
// behind it in the same write, and saying close. Version, status,
// Content-Type, both retry hints, Allow, the 100 Continue, the close, whether
// there is a Date, and the body are the same.
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

	served, plain := startTrio(t, false), startTrio(t, true)
	var servedConn, plainConn [3]*rawPeer
	dial := func(kind int) {
		servedConn[kind], plainConn[kind] = dialRaw(t, served.addr[kind]), dialRaw(t, plain.addr[kind])
		// A connection's first request is net/http's on both sides; the
		// differential is about the ones after it.
		for _, p := range []*rawPeer{servedConn[kind], plainConn[kind]} {
			if resp := p.send(p.request("GET", "/no/such/route", "")); resp == nil || resp.StatusCode != 404 {
				t.Fatalf("kind %d: the connection's first request: %s", kind, replyOf(resp, true))
			}
		}
	}
	for kind := 0; kind < 3; kind++ {
		dial(kind)
	}
	// shapes are the ways a client may put one request: each returns the
	// bytes and the methods of the requests in them, or "" where the shape
	// does not apply.
	type shape struct {
		name string
		raw  func(p *rawPeer, method, target, body string) (string, []string)
	}
	head := func(p *rawPeer, method, target, version, extra string) string {
		return fmt.Sprintf("%s %s HTTP/%s\r\nHost: %s\r\n%s", method, target, version, p.host, extra)
	}
	shapes := []shape{
		{"plain", func(p *rawPeer, method, target, body string) (string, []string) {
			return p.request(method, target, body), []string{method}
		}},
		{"chunked", func(p *rawPeer, method, target, body string) (string, []string) {
			if method != "POST" {
				return "", nil
			}
			return head(p, method, target, "1.1", "Content-Type: application/json\r\nTransfer-Encoding: chunked\r\n\r\n") +
				fmt.Sprintf("%x\r\n%s\r\n0\r\n\r\n", len(body), body), []string{method}
		}},
		{"Expect", func(p *rawPeer, method, target, body string) (string, []string) {
			if method != "POST" {
				return "", nil
			}
			return head(p, method, target, "1.1", fmt.Sprintf("Expect: 100-continue\r\nContent-Length: %d\r\n\r\n", len(body))) + body, []string{method}
		}},
		{"HEAD", func(p *rawPeer, method, target, body string) (string, []string) {
			if method != "GET" {
				return "", nil
			}
			return head(p, "HEAD", target, "1.1", "\r\n"), []string{"HEAD"}
		}},
		{"OPTIONS", func(p *rawPeer, method, target, body string) (string, []string) {
			return head(p, "OPTIONS", target, "1.1", "\r\n"), []string{"OPTIONS"}
		}},
		{"HTTP/1.0", func(p *rawPeer, method, target, body string) (string, []string) {
			return head(p, method, target, "1.0", fmt.Sprintf("Connection: keep-alive\r\nContent-Length: %d\r\n\r\n", len(body))) + body, []string{method}
		}},
		{"pipelined", func(p *rawPeer, method, target, body string) (string, []string) {
			return p.request(method, target, body) + p.request("GET", "/healthz", ""), []string{method, "GET"}
		}},
		{"Connection: close", func(p *rawPeer, method, target, body string) (string, []string) {
			return head(p, method, target, "1.1", fmt.Sprintf("Connection: close\r\nContent-Length: %d\r\n\r\n", len(body))) + body, []string{method}
		}},
	}
	statuses := map[int]bool{}
	both := func(rt route, sh shape, query, body string) {
		t.Helper()
		target := rt.path
		if query != "" {
			target += "?" + query
		}
		p, q := servedConn[rt.kind], plainConn[rt.kind]
		raw, methods := sh.raw(p, rt.method, target, body)
		if raw == "" {
			return
		}
		for _, peer := range []*rawPeer{p, q} {
			if _, err := io.WriteString(peer.c, raw); err != nil {
				t.Fatal(err)
			}
		}
		for _, method := range methods {
			a, b := p.read(method), q.read(method)
			if a != nil && sh.name == "plain" {
				statuses[a.StatusCode] = true
			}
			got, want := replyOf(a, !rt.bodyMayDiffer), replyOf(b, !rt.bodyMayDiffer)
			if got != want || p.continues != q.continues {
				t.Errorf("%s, %s %s %q:\n  served loop %.300s (%d × 100)\n  net/http    %.300s (%d × 100)",
					sh.name, rt.method, target, body, got, p.continues, want, q.continues)
			}
			if a == nil || b == nil || a.Close || b.Close {
				if !p.closed() || !q.closed() {
					t.Errorf("%s, %s %s: a connection stayed open after a reply that said close", sh.name, rt.method, target)
				}
				_, _ = p.c.Close(), q.c.Close()
				dial(rt.kind)
				return
			}
		}
	}
	for _, rt := range routes {
		for _, sh := range shapes {
			both(rt, sh, rt.query, rt.body)
		}
		if rt.alsoWrongInput {
			both(rt, shapes[0], "", `{}`)
			both(rt, shapes[0], "x=%zz", `{"url":`)
		}
	}
	for _, want := range []int{200, 400, 404, 405, 429, 502, 503} {
		if !statuses[want] {
			t.Errorf("no request of the table was answered %d", want)
		}
	}
	for kind, set := range []*servedConns{&served.cache.served, &served.shield.served, &served.origin.served} {
		// The connections that were told to close take a moment to go.
		waitFor(t, 2*time.Second, fmt.Sprintf("kind %d to serve the one connection the table ends on", kind), func() bool { return set.count() == 1 })
	}
	for kind, set := range []*servedConns{&plain.cache.served, &plain.shield.served, &plain.origin.served} {
		if n := set.count(); n != 0 {
			t.Errorf("kind %d: %d served connections behind a writer that cannot be hijacked", kind, n)
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
// handler counts, and a transport for calling it. Each conf changes the
// server before it starts.
func servedNode(t *testing.T, conf ...func(*httptest.Server)) (*CacheNode, *httptest.Server, *countingHandler, *HTTPTransport) {
	t.Helper()
	n, err := NewCacheNodeWithTransport("n0", trioConfig(), scriptedNet{})
	if err != nil {
		t.Fatal(err)
	}
	counter := &countingHandler{next: n.Handler()}
	srv := httptest.NewUnstartedServer(counter)
	for _, f := range conf {
		f(srv)
	}
	srv.Start()
	t.Cleanup(func() {
		srv.Close()
		_ = n.Close()
		peerConns.closeIdle([]string{strings.TrimPrefix(srv.URL, "http://")})
	})
	return n, srv, counter, fastTransport(TransportOptions{MaxRetries: -1, BreakerThreshold: -1})
}

// hidden keeps a server's connections net/http's.
func hidden(srv *httptest.Server) { srv.Config.Handler = hideHijacker(srv.Config.Handler) }

// timeouts sets a server's head and idle timeouts.
func timeouts(head, idle time.Duration) func(*httptest.Server) {
	return func(srv *httptest.Server) { srv.Config.ReadHeaderTimeout, srv.Config.IdleTimeout = head, idle }
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
	if resp := other.send(other.request("GET", "/healthz", "")); resp == nil || resp.StatusCode != 200 {
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
	if resp := other.send(other.request("GET", "/healthz", "")); resp == nil || resp.StatusCode != 200 {
		t.Error("the other served connection did not survive the panic")
	}
	if err := tp.GetJSON(bg, srv.URL+"/healthz", nil); err != nil {
		t.Errorf("the node stopped serving after a panic: %v", err)
	}
}

// TestServedLoopRefusals: the loop refuses nothing itself. Whatever arrives
// on a connection it is serving that it does not read — well-formed and
// outside its subset, or malformed — goes back to net/http with the
// connection, so the client gets what a node that never hijacks sends: the
// same version, status, headers, body and close. A connection net/http keeps
// is the loop's again with its next plain request. A request inside the
// subset — a 70 KB target, headers the node does not know — is served.
func TestServedLoopRefusals(t *testing.T) {
	n, srv, _, _ := servedNode(t)
	_, ref, _, _ := servedNode(t, hidden)
	start := func(srv *httptest.Server) *rawPeer {
		p := dialRaw(t, srv.URL)
		if resp := p.send(p.request("GET", "/healthz", "")); resp == nil || resp.StatusCode != 200 {
			t.Fatal("the first request was not served")
		}
		return p
	}
	const host = "Host: n0\r\n"
	long := strings.Repeat("a", 70<<10)
	deregister := `{"node":"n1","seq":9,"urls":["http://live/doc/1"]}`
	for _, tc := range []struct {
		name, raw string
		want      int // net/http's answer, 0 for none
	}{
		// Outside the subset: served, by net/http.
		{"Transfer-Encoding", "POST /deregister HTTP/1.1\r\n" + host + "Transfer-Encoding: chunked\r\n\r\n" +
			fmt.Sprintf("%x\r\n%s\r\n0\r\n\r\n", len(deregister), deregister), 200},
		{"Transfer-Encoding beside Content-Length", "POST /drop HTTP/1.1\r\n" + host + "Content-Length: 2\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n", 200},
		{"Expect", "POST /deregister HTTP/1.1\r\n" + host + "Expect: 100-continue\r\n" +
			fmt.Sprintf("Content-Length: %d\r\n\r\n%s", len(deregister), deregister), 200},
		{"Upgrade", "GET /healthz HTTP/1.1\r\n" + host + "Connection: upgrade\r\nUpgrade: h2c\r\n\r\n", 200},
		{"HEAD", "HEAD /healthz HTTP/1.1\r\n" + host + "\r\n", 200},
		{"OPTIONS", "OPTIONS /healthz HTTP/1.1\r\n" + host + "\r\n", 405},
		{"OPTIONS *", "OPTIONS * HTTP/1.1\r\n" + host + "\r\n", 200},
		{"a method the nodes lack", "DELETE /healthz HTTP/1.1\r\n" + host + "\r\n", 405},
		{"HTTP/1.0", "GET /healthz HTTP/1.0\r\n" + host + "\r\n", 200},
		{"HTTP/1.0 kept alive", "GET /healthz HTTP/1.0\r\n" + host + "Connection: keep-alive\r\n\r\n", 200},
		{"absolute-form target", "GET http://n0/healthz HTTP/1.1\r\n" + host + "\r\n", 200},
		{"a byte net/url escapes", "GET /healthz?a=\"b\" HTTP/1.1\r\n" + host + "\r\n", 200},
		// Outside the loop's grammar and inside net/http's.
		{"bare LF", "GET /healthz HTTP/1.1\nHost: n0\n\n", 200},
		{"a folded line", "GET /healthz HTTP/1.1\r\n" + host + "X-A: 1\r\n folded\r\n\r\n", 200},
		{"two Content-Lengths that agree", "POST /drop HTTP/1.1\r\n" + host + "Content-Length: 2\r\nContent-Length: 2\r\n\r\n{}", 200},
		{"a head over the loop's bound", "GET /healthz?" + strings.Repeat(long, 4) + " HTTP/1.1\r\n" + host + "\r\n", 200},
		// Outside both.
		{"a head over net/http's bound", "GET /healthz?" + strings.Repeat(long, 16) + " HTTP/1.1\r\n" + host + "\r\n", 431},
		{"a NUL in the target", "GET /healthz?\x00 HTTP/1.1\r\n" + host + "\r\n", 400},
		{"a space in the target", "GET /health z HTTP/1.1\r\n" + host + "\r\n", 400},
		{"no Host", "GET /healthz HTTP/1.1\r\n\r\n", 400},
		{"two Hosts", "GET /healthz HTTP/1.1\r\n" + host + host + "\r\n", 400},
		{"two Content-Lengths that differ", "POST /drop HTTP/1.1\r\n" + host + "Content-Length: 2\r\nContent-Length: 3\r\n\r\n{}", 400},
		{"a signed Content-Length", "POST /drop HTTP/1.1\r\n" + host + "Content-Length: +2\r\n\r\n{}", 400},
		{"a space before a colon", "GET /healthz HTTP/1.1\r\nHost : n0\r\n\r\n", 400},
		{"a line without a colon", "GET /healthz HTTP/1.1\r\n" + host + "no colon here\r\n\r\n", 400},
		{"a control byte in value", "GET /healthz HTTP/1.1\r\n" + host + "X-A: a\x01b\r\n\r\n", 400},
		{"not HTTP", "\x16\x03\x01\x02\x00\x01\x00\x01\xfc\x03\x03\r\n\r\n", 400},
	} {
		p, q := start(srv), start(ref)
		if got := n.served.count(); got != 1 {
			t.Fatalf("%s: %d served connections before it, want 1", tc.name, got)
		}
		a, b := p.send(tc.raw), q.send(tc.raw)
		got, want := replyOf(a, true), replyOf(b, true)
		if got != want || p.continues != q.continues {
			t.Errorf("%s:\n  behind the loop %.300s (%d × 100)\n  net/http alone  %.300s (%d × 100)", tc.name, got, p.continues, want, q.continues)
		}
		if b == nil || b.StatusCode != tc.want {
			t.Errorf("%s: net/http alone answers %.100s, the table says %d", tc.name, want, tc.want)
		}
		if b == nil || b.Close {
			if !p.closed() || !q.closed() {
				t.Errorf("%s: the connection stayed open after a reply that said close", tc.name)
			}
		} else {
			// Kept by net/http: and the loop's again with the next request.
			if resp := p.send(p.request("GET", "/healthz", "")); resp == nil || resp.StatusCode != 200 || resp.Close {
				t.Errorf("%s: the connection did not carry another request: %s", tc.name, replyOf(resp, false))
			}
			if got := n.served.count(); got != 1 {
				t.Errorf("%s: %d served connections after the next GET, want 1", tc.name, got)
			}
		}
		_, _ = p.c.Close(), q.c.Close()
		waitFor(t, 2*time.Second, "the connection to go", func() bool { return n.served.count() == 0 })
	}

	p := start(srv)
	resp := p.send("GET /fetch?url=" + long + " HTTP/1.1\r\n" + host + "X-Unknown: 1\r\nX-Unknown: 2\r\nAccept-Encoding: gzip\r\n\r\n")
	if resp == nil || resp.StatusCode != http.StatusNotFound || resp.Close {
		t.Errorf("a 70 KB target: %s, want the handler's 404 on a kept connection", replyOf(resp, false))
	}
	// The front handler asks the same question of a connection's first
	// request: a HEAD is not the loop's to answer (with a body, as it was when
	// a marker decided).
	first := dialRaw(t, srv.URL)
	if resp := first.send("HEAD /healthz HTTP/1.1\r\n" + host + "\r\n"); resp == nil || resp.StatusCode != 200 || first.br.Buffered() != 0 || n.served.count() != 1 {
		t.Errorf("a HEAD as a connection's first request: %s, %d bytes after its head, %d served connections (want p's one)",
			replyOf(resp, false), first.br.Buffered(), n.served.count())
	}
	// A body over what a handler reads is not the loop's to buffer: the
	// connection goes back at the head.
	if _, err := io.WriteString(p.c, "POST /drop HTTP/1.1\r\n"+host+"Content-Length: 16777217\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, "a body over the bound to go back", func() bool { return n.served.count() == 0 })
	// A body one byte short holds the loop until the connection ends; the
	// handler never sees it.
	p = start(srv)
	if _, err := io.WriteString(p.c, "POST /drop HTTP/1.1\r\n"+host+"Content-Length: 3\r\n\r\n{}"); err != nil {
		t.Fatal(err)
	}
	_ = p.c.(*net.TCPConn).CloseWrite()
	if !p.closed() {
		t.Error("a short body was answered")
	}
	// Requests in one write are answered in order, whoever reads them.
	p = start(srv)
	if _, err := io.WriteString(p.c, p.request("GET", "/healthz", "")+"HEAD /healthz HTTP/1.1\r\n"+host+"\r\n"+
		p.request("GET", "/fetch?url=u", "")+p.request("POST", "/drop", "{}")); err != nil {
		t.Fatal(err)
	}
	for i, want := range []int{200, 200, 404, 200} {
		method := "GET"
		if i == 1 {
			method = "HEAD"
		}
		if resp := p.read(method); resp == nil || resp.StatusCode != want {
			t.Errorf("pipelined: %s, want %d", replyOf(resp, false), want)
		}
	}
}

// TestServedConnectionOwners: a served connection ends with the idle time,
// with the Shutdown of the server that accepted it and with the node's
// Close, after which the node answers a connection's first request and lets
// it go.
func TestServedConnectionOwners(t *testing.T) {
	t.Run("idle", func(t *testing.T) {
		n, srv, _, _ := servedNode(t, timeouts(0, 50*time.Millisecond))
		p := dialRaw(t, srv.URL)
		for i := 0; i < 2; i++ { // the second is the loop's own
			if resp := p.send(p.request("GET", "/healthz", "")); resp == nil {
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
		if resp := p.send(p.request("GET", "/healthz", "")); resp == nil {
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
		if resp := p.send(p.request("GET", "/healthz", "")); resp == nil {
			t.Fatal("no reply")
		}
		_ = n.Close()
		if !p.closed() {
			t.Error("the served connection outlived the node's Close")
		}
		waitFor(t, 2*time.Second, "the loop to end", func() bool { return n.served.count() == 0 })
		p = dialRaw(t, srv.URL)
		if resp := p.send(p.request("GET", "/healthz", "")); resp == nil || resp.StatusCode != 200 || !resp.Close {
			t.Fatalf("a closed node's handler behind a running server: %s, want an answer and a close", replyOf(resp, false))
		}
		if n.served.count() != 0 {
			t.Error("a closed node took a connection to serve")
		}
	})
}

// TestStopNodeEndsServedConnections: a "crashed" node answers nobody — not
// the peers whose connections it was serving, not a client on a connection
// of its own, not one whose connection the loop had given back to net/http —
// and the cloud fails over.
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
	onLoop, givenBack := dialRaw(t, lc.Cfg.Addrs[victim]), dialRaw(t, lc.Cfg.Addrs[victim])
	for _, p := range []*rawPeer{onLoop, givenBack} {
		if resp := p.send(p.request("GET", "/healthz", "")); resp == nil || resp.StatusCode != 200 {
			t.Fatal("the victim does not answer a client")
		}
	}
	before := lc.Caches[victim].served.count()
	if resp := givenBack.send("HEAD /healthz HTTP/1.1\r\nHost: " + givenBack.host + "\r\n\r\n"); resp == nil || resp.StatusCode != 200 {
		t.Fatal("the victim does not answer a HEAD")
	}
	if n := lc.Caches[victim].served.count(); n != before-1 {
		t.Fatalf("%d served connections after a HEAD on one of %d, want it given back", n, before)
	}
	lc.StopNode(victim)
	if n := lc.Caches[victim].served.count(); n != 0 {
		waitFor(t, 2*time.Second, "the victim's loops to end", func() bool { return lc.Caches[victim].served.count() == 0 })
	}
	for name, p := range map[string]*rawPeer{"the loop was serving": onLoop, "the loop had given back": givenBack} {
		if resp := p.send(p.request("GET", "/healthz", "")); resp != nil || !p.closed() {
			t.Errorf("a stopped node answered a client on a connection %s", name)
		}
	}
	tp := fastTransport(TransportOptions{MaxRetries: -1, BreakerThreshold: -1})
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
// requests: method, target, URL, Host, every header value and the body. And
// when it stops at a request it does not read, the connection it gives back
// carries every byte from that request's first on — head, body, followers,
// whatever it had buffered — and nothing else: so net/http reads them as if
// the loop had never been there.
func FuzzWireRequest(f *testing.F) {
	const host = "Host: n0\r\n"
	for _, s := range []string{
		"GET /lookup?url=http%3A%2F%2Flive%2Fdoc%2F1&holder=n1&seq=7 HTTP/1.1\r\n" + host + "Accept-Encoding: gzip\r\n" + DeadlineHeader + ": 250\r\n" + TenantHeader + ": acme\r\n\r\n",
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
		// What goes back: after a request the loop answered, with and without
		// a body, with the body still on its way, with followers behind it.
		"GET /healthz HTTP/1.1\r\n" + host + "\r\nPOST /apply HTTP/1.1\r\n" + host + "Transfer-Encoding: chunked\r\n\r\n7\r\n{\"n\":1}\r\n0\r\n\r\nGET /stats HTTP/1.1\r\n" + host + "\r\n",
		"POST /apply HTTP/1.1\r\n" + host + "Expect: 100-continue\r\nContent-Length: 7\r\n\r\n{\"n\":1}GET /stats HTTP/1.1\r\n" + host + "\r\n",
		"POST /apply HTTP/1.1\r\n" + host + "Expect: 100-continue\r\nContent-Length: 7\r\n\r\n",
		"GET /healthz HTTP/1.1\r\n" + host + "\r\nPOST /apply HTTP/1.1\r\n" + host + "Transfer-Encoding: chunked\r\nContent-Length: 2\r\n\r\n2\r\n{}\r\n0\r\n\r\n",
		"POST /apply HTTP/1.1\r\n" + host + "Transfer-Encoding: chunked\r\n\r\n7\r\n{\"n\"",
		"HEAD /healthz HTTP/1.1\r\n" + host + "\r\nGET /healthz HTTP/1.1\r\n" + host + "\r\n",
		"POST /apply HTTP/1.1\r\n" + host + "Content-Length: 16777217\r\n\r\n{}",
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
		sc := newServedConn(&servedConns{}, srv, conn, bufio.NewReader(conn), "127.0.0.1:2")
		back := sc.serve() // on this goroutine: it is back when the bytes are used up

		if conn.closed {
			t.Fatal("the loop closed the connection: that is run's to do, or net/http's")
		}
		if conn.out.Len() > len(data)+len(got)*128 {
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
		if back != nil {
			unanswered, _ := io.ReadAll(ref)
			if replayed, err := io.ReadAll(back); err != nil || !bytes.Equal(replayed, unanswered) {
				t.Fatalf("after %d dispatches the connection went back with\n  %q (%v)\nin front, and unanswered is\n  %q", len(got), replayed, err, unanswered)
			}
		}
		// One well-formed reply a dispatch and nothing else: the loop has no
		// reply of its own.
		replies := bufio.NewReader(&conn.out)
		for i := 0; ; i++ {
			resp, err := http.ReadResponse(replies, nil)
			if err != nil {
				if i != len(got) || replies.Buffered() > 0 {
					t.Fatalf("%d replies for %d dispatches, then %v", i, len(got), err)
				}
				break
			}
			body, err := io.ReadAll(resp.Body)
			if err != nil || i >= len(got) || resp.StatusCode != 200 || !bytes.Equal(body, got[i].body) {
				t.Fatalf("reply %d of %d dispatches: %d %q %v", i, len(got), resp.StatusCode, body, err)
			}
		}
	})
}

// splitLoop is the served loop on one connection, with a handler that
// echoes each request and records what it was given and the reader it was
// read through.
type splitLoop struct {
	sc      *servedConn
	got     []dispatched
	readers []*bufio.Reader
}

func newSplitLoop(t *testing.T, c net.Conn, idle time.Duration) *splitLoop {
	l := &splitLoop{}
	srv := &http.Server{IdleTimeout: idle, Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		d, err := dispatchedOf(r)
		if err != nil {
			t.Errorf("reading a dispatched body: %v", err)
		}
		l.got = append(l.got, d)
		l.readers = append(l.readers, l.sc.br)
		w.Header()["Date"] = []string{"Thu, 01 Jan 1970 00:00:00 GMT"} // so that two runs' replies compare
		_, _ = io.WriteString(w, d.method+" "+d.target+" "+string(d.body))
	})}
	// As the hijack leaves it: net/http's reader, its first request read.
	l.sc = newServedConn(&servedConns{}, srv, c, bufio.NewReader(c), "127.0.0.1:2")
	l.sc.last = time.Now()
	l.sc.arm(l.sc.last)
	return l
}

// loopbackPair is a real TCP connection's two ends: the server's has a
// descriptor, so the loop waits on it holding no buffer.
func loopbackPair(t *testing.T) (client, server net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if client, err = net.Dial("tcp", ln.Addr().String()); err != nil {
		t.Fatal(err)
	}
	if server, err = ln.Accept(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = client.Close(); _ = server.Close() })
	return client, server
}

// serveInBackground runs the loop and returns what it ended with.
func serveInBackground(l *splitLoop) <-chan net.Conn {
	done := make(chan net.Conn, 1)
	go func() { done <- l.sc.serve() }()
	return done
}

// ended waits for the loop to end of itself.
func ended(t *testing.T, done <-chan net.Conn) {
	t.Helper()
	select {
	case back := <-done:
		if back != nil {
			t.Fatal("the loop gave the connection back to net/http")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the loop did not end")
	}
}

// TestServedIdleWaitSplits sends requests to the served loop over a real
// loopback connection, where its wait for a request's first byte holds no
// buffer, in two writes: the second after the loop has parked again, in the
// wait or in a read. Whatever the cut — after the first byte, inside a
// head, inside a body, between two requests — the loop dispatches what
// http.ReadRequest reads of the same bytes, and writes byte for byte the
// replies it writes for the bytes in one piece on a connection without a
// descriptor (scriptConn, whose wait is a read). Requests that arrive in
// one write are read through one reader: the loop gives it back only when
// it has nothing buffered. A peer that hangs up, or an idle timeout that
// runs out, while the loop waits ends the loop.
func TestServedIdleWaitSplits(t *testing.T) {
	const host = "Host: n0\r\n"
	get := func(target string) string { return "GET " + target + " HTTP/1.1\r\n" + host + "\r\n" }
	post := func(target, body string) string {
		return fmt.Sprintf("POST %s HTTP/1.1\r\n%sContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", target, host, len(body), body)
	}
	lookup := get("/lookup?url=http%3A%2F%2Flive%2Fdoc%2F1&holder=n1&seq=7")
	body := `{"doc":{"url":"http://live/doc/1","size":1000,"version":7}}`
	apply := post("/apply", body)
	head := len(apply) - len(body)
	// The corpus: each script with the points its second write begins at
	// (0: one write).
	corpus := []struct {
		name   string
		script string
		cuts   []int
	}{
		{"first-byte", lookup + get("/healthz"), []int{1, len(lookup), len(lookup) + 1}},
		{"head", lookup, []int{4, 5, len("GET /lookup?url="), strings.Index(lookup, "\r\n") + 1, len(lookup) - 2, len(lookup) - 1}},
		{"body", apply, []int{head - 1, head, head + 1, head + len(body)/2, len(apply) - 1}},
		{"pipelined", lookup + apply + get("/healthz"), []int{0, len(lookup) + head/2}},
	}
	for _, tc := range corpus {
		for _, cut := range tc.cuts {
			t.Run(fmt.Sprintf("%s/%d", tc.name, cut), func(t *testing.T) {
				ref := &scriptConn{in: bytes.NewReader([]byte(tc.script))}
				want := newSplitLoop(t, ref, 0)
				if want.sc.serve() != nil {
					t.Fatal("the reference run gave the connection back")
				}

				client, server := loopbackPair(t)
				l := newSplitLoop(t, server, 0)
				done := serveInBackground(l)
				if _, err := io.WriteString(client, tc.script[:cut]); err != nil {
					t.Fatal(err)
				}
				time.Sleep(10 * time.Millisecond) // the loop parks
				if _, err := io.WriteString(client, tc.script[cut:]); err != nil {
					t.Fatal(err)
				}
				_ = client.SetReadDeadline(time.Now().Add(5 * time.Second))
				out := make([]byte, ref.out.Len())
				if _, err := io.ReadFull(client, out); err != nil {
					t.Fatalf("reading %d reply bytes: %v", len(out), err)
				}
				_ = client.Close()
				ended(t, done)

				if !bytes.Equal(out, ref.out.Bytes()) {
					t.Fatalf("replies\n  split %q\n  whole %q", out, ref.out.Bytes())
				}
				rd := bufio.NewReader(strings.NewReader(tc.script))
				for i, d := range l.got {
					r, err := http.ReadRequest(rd)
					if err != nil {
						t.Fatalf("request %d: the loop dispatched %+v, ReadRequest says %v", i, d, err)
					}
					if w, err := dispatchedOf(r); err != nil || !reflect.DeepEqual(d, w) {
						t.Fatalf("request %d:\n  loop        %+v\n  ReadRequest %+v (%v)", i, d, w, err)
					}
				}
				if _, err := http.ReadRequest(rd); err != io.EOF || len(l.got) != len(want.got) {
					t.Fatalf("%d dispatches of %d requests (then %v)", len(l.got), len(want.got), err)
				}
				for i, br := range l.readers {
					if br == nil || cut == 0 && br != l.readers[0] {
						t.Fatalf("request %d of one write read through another reader (%p, the first %p)", i, br, l.readers[0])
					}
				}
			})
		}
	}

	// One exchange, then nothing: the peer hangs up, or the idle time runs out.
	idle := func(t *testing.T, idleTimeout time.Duration) (client net.Conn, done <-chan net.Conn) {
		client, server := loopbackPair(t)
		l := newSplitLoop(t, server, idleTimeout)
		done = serveInBackground(l)
		if _, err := io.WriteString(client, get("/healthz")); err != nil {
			t.Fatal(err)
		}
		_ = client.SetReadDeadline(time.Now().Add(5 * time.Second))
		if resp, err := http.ReadResponse(bufio.NewReader(client), nil); err != nil || resp.StatusCode != 200 {
			t.Fatalf("the reply: %v", err)
		}
		return client, done
	}
	t.Run("hang-up", func(t *testing.T) {
		client, done := idle(t, 0)
		time.Sleep(10 * time.Millisecond) // the loop parks
		_ = client.Close()
		ended(t, done)
	})
	t.Run("idle-timeout", func(t *testing.T) {
		const idleTimeout = 50 * time.Millisecond
		start := time.Now()
		_, done := idle(t, idleTimeout)
		ended(t, done)
		if waited := time.Since(start); waited < idleTimeout {
			t.Fatalf("the loop ended %v after its request, before the idle timeout of %v", waited, idleTimeout)
		}
	})
}

// TestIdleServedConnectionFootprint prices a connection the loop holds
// between requests, beside one net/http holds: the loop's own state and the
// connection's, and no buffer — no reader, no writer, no header map, no
// request or reply buffer, however large the last request was. The buffers
// an exchange takes come from pools, which liveHeap's two collections empty
// before each reading; the large body stays alive across both readings, so
// that only the connections differ.
func TestIdleServedConnectionFootprint(t *testing.T) {
	const (
		conns  = 256
		budget = 3 << 10 // bytes a connection, the test's end included: 1.7-2.3 KB now, 17.3 KB while it kept the hijack's reader and writer
	)
	big := `{"records":[{"url":"` + strings.Repeat("u", 256<<10) // read whole, then refused: the node keeps none of it
	cost := func(served bool) int64 {
		conf := []func(*httptest.Server){hidden}
		if served {
			conf = nil
		}
		n, srv, _, _ := servedNode(t, conf...)
		peers := make([]*rawPeer, conns)
		h0 := liveHeap()
		for i := range peers {
			p := dialRaw(t, srv.URL)
			p.br = bufio.NewReaderSize(p.c, 16) // the test's own side of the price, kept small
			peers[i] = p
			if resp := p.send(p.request("GET", "/healthz", "")); resp == nil {
				t.Fatal("no reply")
			}
			if resp := p.send(p.request("POST", "/records/replica", big)); resp == nil || resp.StatusCode != 400 {
				t.Fatalf("the large request: %s", replyOf(resp, true))
			}
		}
		// The server lets go of what it read of a request after its reply has
		// left: the last connection's next exchange says that it has.
		if last := peers[conns-1]; last.send(last.request("GET", "/healthz", "")) == nil {
			t.Fatal("no reply")
		}
		if got := n.served.count(); served && got != conns || !served && got != 0 {
			t.Fatalf("%d served connections of %d, served %v", got, conns, served)
		}
		per := (liveHeap() - h0) / conns
		runtime.KeepAlive(peers)
		runtime.KeepAlive(big)
		return per
	}
	plain, served := cost(false), cost(true)
	t.Logf("an idle connection, the test's end of it included: %d B of heap served by the loop, %d B by net/http", served, plain)
	if served > budget {
		t.Errorf("an idle served connection costs %d B, budget %d", served, budget)
	}
}
