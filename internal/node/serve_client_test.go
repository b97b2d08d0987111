package node

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"strings"
	"sync"
	"testing"
	"time"

	"cachecloud/internal/document"
	"cachecloud/internal/tenant"
)

// What a client sees of a node whose loop serves it: the connection that
// goes back and forth between the loop and net/http, the server's timeouts,
// and the caller that leaves mid-request.

// TestHandedBackConnectionAlternates: one kept-alive http.Client connection
// to a cluster's node carries, in turn, requests the loop reads and requests
// it hands back — a chunked POST, a HEAD, a POST behind Expect, an OPTIONS —
// and each is answered as net/http answers it, the connection is the loop's
// again with each GET in between, and it stays the one connection.
func TestHandedBackConnectionAlternates(t *testing.T) {
	checkLeaks(t)
	lc := startCluster(t, 2, 2, ClusterConfig{})
	n, base := lc.Caches["live-00"], lc.Cfg.Addrs["live-00"]
	tr := &http.Transport{ExpectContinueTimeout: 5 * time.Second}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}
	var dials, continues int
	ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
		GotConn: func(info httptrace.GotConnInfo) {
			if !info.Reused {
				dials++
			}
		},
		Got100Continue: func() { continues++ },
	})
	const deregister = `{"node":"live-01","seq":9,"urls":["http://live/doc/1"]}`
	do := func(method, path string, body io.Reader, expect bool) (*http.Response, string) {
		t.Helper()
		req, err := http.NewRequestWithContext(ctx, method, base+path, body)
		if err != nil {
			t.Fatal(err)
		}
		if expect {
			req.Header.Set("Expect", "100-continue")
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		defer resp.Body.Close()
		got, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		return resp, string(got)
	}
	plainGet := func() {
		t.Helper()
		if resp, body := do("GET", "/healthz", nil, false); resp.StatusCode != 200 || body == "" {
			t.Fatalf("GET: %d %q", resp.StatusCode, body)
		}
		if got := n.served.count(); got != 1 {
			t.Fatalf("%d served connections after a GET, want 1", got)
		}
	}
	handedBack := func(what string) {
		t.Helper()
		if got := n.served.count(); got != 0 {
			t.Fatalf("%s: %d served connections, want it with net/http", what, got)
		}
	}
	for round := 0; round < 3; round++ {
		plainGet()
		// A body of unknown length: the client chunks it.
		if resp, body := do("POST", "/deregister", struct{ io.Reader }{strings.NewReader(deregister)}, false); resp.StatusCode != 200 {
			t.Fatalf("chunked POST: %d %q", resp.StatusCode, body)
		}
		handedBack("chunked POST")
		plainGet()
		if resp, body := do("HEAD", "/healthz", nil, false); resp.StatusCode != 200 || body != "" || resp.ContentLength <= 0 {
			t.Fatalf("HEAD: %d, body %q, Content-Length %d", resp.StatusCode, body, resp.ContentLength)
		}
		handedBack("HEAD")
		plainGet()
		if resp, body := do("POST", "/deregister", strings.NewReader(deregister), true); resp.StatusCode != 200 || continues != round+1 {
			t.Fatalf("POST behind Expect: %d %q after %d × 100 Continue", resp.StatusCode, body, continues)
		}
		handedBack("Expect")
		plainGet()
		if resp, _ := do("OPTIONS", "/healthz", nil, false); resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") == "" {
			t.Fatalf("OPTIONS: %d, Allow %q", resp.StatusCode, resp.Header.Get("Allow"))
		}
		handedBack("OPTIONS")
	}
	if dials != 1 {
		t.Errorf("the client dialled %d connections, want the one throughout", dials)
	}
}

// deadlineSpy is a listener whose connections remember their deadlines.
type deadlineSpy struct {
	net.Listener
	mu          sync.Mutex
	read, write time.Time
}

type spiedConn struct {
	net.Conn
	spy *deadlineSpy
}

func (l *deadlineSpy) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &spiedConn{c, l}, nil
}

func (l *deadlineSpy) deadlines() (read, write time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.read, l.write
}

func (c *spiedConn) SetDeadline(t time.Time) error {
	c.spy.mu.Lock()
	c.spy.read, c.spy.write = t, t
	c.spy.mu.Unlock()
	return c.Conn.SetDeadline(t)
}

func (c *spiedConn) SetReadDeadline(t time.Time) error {
	c.spy.mu.Lock()
	c.spy.read = t
	c.spy.mu.Unlock()
	return c.Conn.SetReadDeadline(t)
}

func (c *spiedConn) SetWriteDeadline(t time.Time) error {
	c.spy.mu.Lock()
	c.spy.write = t
	c.spy.mu.Unlock()
	return c.Conn.SetWriteDeadline(t)
}

// TestHandedBackConnectionOwners: a connection the loop has given back is
// the accepting server's like any it never let go of. It carries none of the
// loop's deadlines (net/http resets no write deadline it did not set), the
// server's Shutdown closes it, and a closed node answers its next request
// and lets go.
func TestHandedBackConnectionOwners(t *testing.T) {
	handBack := func(t *testing.T, n *CacheNode, p *rawPeer) {
		t.Helper()
		for i := 0; i < 2; i++ { // the second is the loop's own
			if resp := p.send(p.request("GET", "/healthz", "")); resp == nil || resp.StatusCode != 200 {
				t.Fatal("no reply")
			}
		}
		if n.served.count() != 1 {
			t.Fatal("the connection is not being served")
		}
		if resp := p.send("OPTIONS /healthz HTTP/1.1\r\nHost: " + p.host + "\r\n\r\n"); resp == nil || resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("OPTIONS: %s", replyOf(resp, false))
		}
		if n.served.count() != 0 {
			t.Fatal("the connection did not go back")
		}
	}
	t.Run("deadlines", func(t *testing.T) {
		spy := &deadlineSpy{}
		_, srv, _, _ := servedNode(t, func(srv *httptest.Server) { spy.Listener, srv.Listener = srv.Listener, spy })
		p := dialRaw(t, srv.URL)
		for i := 0; i < 2; i++ {
			if resp := p.send(p.request("GET", "/healthz", "")); resp == nil {
				t.Fatal("no reply")
			}
		}
		if read, write := spy.deadlines(); read.IsZero() || write.IsZero() {
			t.Fatalf("the loop serves under deadlines %v and %v, want both set", read, write)
		}
		if resp := p.send("OPTIONS /healthz HTTP/1.1\r\nHost: " + p.host + "\r\n\r\n"); resp == nil {
			t.Fatal("no reply")
		}
		if read, write := spy.deadlines(); !read.IsZero() || !write.IsZero() {
			t.Errorf("a server without timeouts got the connection back with deadlines %v and %v", read, write)
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
		handBack(t, n, p)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != http.ErrServerClosed {
			t.Fatal(err)
		}
		if !p.closed() {
			t.Error("the handed-back connection outlived its server's Shutdown")
		}
	})
	t.Run("Close", func(t *testing.T) {
		n, srv, _, _ := servedNode(t)
		p := dialRaw(t, srv.URL)
		handBack(t, n, p)
		_ = n.Close()
		if resp := p.send(p.request("GET", "/healthz", "")); resp == nil || resp.StatusCode != 200 || !resp.Close {
			t.Fatalf("a closed node, on a connection it had given back: %s, want an answer and a close", replyOf(resp, false))
		}
		if !p.closed() || n.served.count() != 0 {
			t.Error("a closed node kept a connection")
		}
	})
}

// TestSlowClient: the server's own timeouts hold whoever serves the
// connection. A head that arrives a byte at a time is cut off within twice
// ReadHeaderTimeout of its first byte, a connection nobody uses within twice
// IdleTimeout, and neither before its time.
func TestSlowClient(t *testing.T) {
	const (
		headTimeout = 150 * time.Millisecond
		idleTimeout = 400 * time.Millisecond
		slack       = 500 * time.Millisecond // a loaded box, the race detector
	)
	for _, path := range []string{"served", "nethttp"} {
		conf := []func(*httptest.Server){timeouts(headTimeout, idleTimeout)}
		if path == "nethttp" {
			conf = append(conf, hidden)
		}
		start := func(t *testing.T) (*CacheNode, *rawPeer) {
			n, srv, _, _ := servedNode(t, conf...)
			p := dialRaw(t, srv.URL)
			for i := 0; i < 2; i++ { // the second is the loop's own
				if resp := p.send(p.request("GET", "/healthz", "")); resp == nil || resp.StatusCode != 200 {
					t.Fatal("no reply")
				}
			}
			if got := n.served.count(); (got == 1) != (path == "served") {
				t.Fatalf("%d served connections on the %s path", got, path)
			}
			return n, p
		}
		// gone reports how long after t0 the server ended the connection,
		// writing drip a byte at a time meanwhile.
		gone := func(t *testing.T, p *rawPeer, t0 time.Time, drip string) time.Duration {
			one := make([]byte, 1)
			for i := 0; time.Since(t0) < 5*time.Second; i++ {
				if i < len(drip) {
					_, _ = io.WriteString(p.c, drip[i:i+1])
				}
				_ = p.c.SetReadDeadline(time.Now().Add(10 * time.Millisecond))
				if _, err := p.c.Read(one); err != nil && !isTimeout(err) {
					return time.Since(t0)
				}
			}
			t.Fatal("the connection was kept")
			return 0
		}
		t.Run(path+"/head", func(t *testing.T) {
			_, p := start(t)
			took := gone(t, p, time.Now(), "GET /healthz HTTP/1.1\r\nHost: "+strings.Repeat("a", 1000))
			if took < headTimeout-20*time.Millisecond || took > 2*headTimeout+slack {
				t.Errorf("a slow head was cut off after %v, want between %v and %v", took, headTimeout, 2*headTimeout)
			}
		})
		t.Run(path+"/idle", func(t *testing.T) {
			_, p := start(t)
			took := gone(t, p, time.Now(), "")
			// The loop counts from the last request's first byte, a moment
			// before t0; a connection cut off by a head's deadline would go
			// within 2 × headTimeout.
			if took < idleTimeout-100*time.Millisecond || took > 2*idleTimeout+slack {
				t.Errorf("an unused connection was closed after %v, want between %v and %v", took, idleTimeout, 2*idleTimeout)
			}
		})
		// A head's deadline running out on a connection that is merely
		// unused must not end it: it is still good after one.
		t.Run(path+"/unused past a head's time", func(t *testing.T) {
			_, p := start(t)
			time.Sleep(2*headTimeout + 20*time.Millisecond)
			if resp := p.send(p.request("GET", "/healthz", "")); resp == nil || resp.StatusCode != 200 {
				t.Errorf("a connection unused for two head timeouts and less than the idle timeout: %s", replyOf(resp, false))
			}
		})
	}
}

// heldOrigin is a node's network with nothing in it but an upstream whose
// fetches wait to be let go.
type heldOrigin struct {
	entered chan struct{}
	release chan struct{}
}

func (h *heldOrigin) GetJSON(ctx context.Context, url string, out any) error {
	fr, isFetch := out.(*FetchResponse)
	if !isFetch || !strings.Contains(url, "fetch?") {
		return errors.New("no network")
	}
	h.entered <- struct{}{}
	<-h.release
	fr.Doc = document.Document{URL: "http://live/doc/1", Size: 100, Version: 1}
	return nil
}

func (h *heldOrigin) PostJSON(context.Context, string, any, any) error {
	return errors.New("no network")
}

// TestServedClientHangUpReleasesItsSlots pins what bounds a /doc whose
// client has left a served connection: nothing cancels it (the loop has no
// background read), so it runs to the end of its upstream call — and then
// gives back its gate slot and its tenant's fair-share unit, and the node's
// and the tenant's conservation counters add up.
func TestServedClientHangUpReleasesItsSlots(t *testing.T) {
	cfg := trioConfig()
	cfg.Tenants = map[string]tenant.Quota{"acme": {Weight: 1}}
	held := &heldOrigin{entered: make(chan struct{}, 1), release: make(chan struct{})}
	n, err := NewCacheNodeWithTransport("n0", cfg, held)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(n.Handler())
	t.Cleanup(func() {
		srv.Close()
		_ = n.Close()
	})
	p := dialRaw(t, srv.URL)
	if resp := p.send(p.request("GET", "/healthz", "")); resp == nil {
		t.Fatal("no reply")
	}
	doc := fmt.Sprintf("GET /doc?url=http%%3A%%2F%%2Flive%%2Fdoc%%2F1 HTTP/1.1\r\nHost: %s\r\n%s: acme\r\n\r\n", p.host, TenantHeader)
	if _, err := io.WriteString(p.c, doc); err != nil {
		t.Fatal(err)
	}
	<-held.entered
	if n.served.count() != 1 {
		t.Fatal("the request is not on a served connection")
	}
	_ = p.c.Close()
	time.Sleep(50 * time.Millisecond) // the hang-up has arrived; nobody is reading to notice
	if st := n.Admission(); st.GateInFlight == 0 || n.fair.InFlight("acme") != 1 {
		t.Fatalf("a held request holds gate weight %d and %d fair-share units, want some and 1", st.GateInFlight, n.fair.InFlight("acme"))
	}
	close(held.release)
	waitFor(t, 2*time.Second, "the slots to come back", func() bool {
		return n.Admission().GateInFlight == 0 && n.fair.InFlight("acme") == 0 && n.served.count() == 0
	})
	st := n.Admission()
	if st.Requests != 1 || st.Requests != st.Served+st.Shed+st.Failed || st.LimiterInFlight != 0 || st.FlightsActive != 0 {
		t.Errorf("the node's counters after the request: %+v", st)
	}
	if ts := n.TenantAdmission()["acme"]; ts.Requests != 1 || ts.Requests != ts.Served+ts.Shed+ts.Failed {
		t.Errorf("the tenant's counters after the request: %+v", ts)
	}
}
