package node

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// manualClock is a hand-advanced Clock for deterministic breaker tests:
// time only moves when the test calls advance, so cooldown expiry needs no
// real sleeping. AfterFunc callbacks fire synchronously inside advance.
type manualClock struct {
	mu     sync.Mutex
	now    time.Time
	timers []*manualTimer
}

type manualTimer struct {
	when    time.Time
	f       func()
	stopped bool
}

func (mt *manualTimer) Stop() bool {
	was := mt.stopped
	mt.stopped = true
	return !was
}

func newManualClock() *manualClock {
	return &manualClock{now: time.Unix(1_000_000, 0)}
}

func (c *manualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *manualClock) Since(t time.Time) time.Duration { return c.Now().Sub(t) }

func (c *manualClock) AfterFunc(d time.Duration, f func()) Timer {
	c.mu.Lock()
	defer c.mu.Unlock()
	mt := &manualTimer{when: c.now.Add(d), f: f}
	c.timers = append(c.timers, mt)
	return mt
}

func (c *manualClock) advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	due := c.timers[:0:0]
	rest := c.timers[:0]
	for _, mt := range c.timers {
		if !mt.stopped && !mt.when.After(c.now) {
			due = append(due, mt)
		} else if !mt.stopped {
			rest = append(rest, mt)
		}
	}
	c.timers = rest
	c.mu.Unlock()
	for _, mt := range due {
		mt.f()
	}
}

// quickClock is the wall clock with every timer 25× shorter: a transport
// on it backs off 1–20 ms between retries instead of 25–500 ms.
type quickClock struct{ realClock }

func (quickClock) AfterFunc(d time.Duration, f func()) Timer {
	return realClock{}.AfterFunc(d/25, f)
}

// fastTransport returns a transport with short timings for tests.
func fastTransport(opts TransportOptions) *HTTPTransport {
	if opts.RequestTimeout == 0 {
		opts.RequestTimeout = 2 * time.Second
	}
	if opts.Clock == nil {
		opts.Clock = quickClock{}
	}
	return NewHTTPTransport(opts)
}

func TestTransportRetriesServerErrors(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) < 3 {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		w.Write([]byte(`{"ok":true}`))
	}))
	defer srv.Close()

	tp := fastTransport(TransportOptions{MaxRetries: 2})
	var out map[string]bool
	if err := tp.GetJSON(context.Background(), srv.URL+"/x", &out); err != nil {
		t.Fatalf("GetJSON after retries: %v", err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("calls = %d, want 3 (two retries)", got)
	}
	if !out["ok"] {
		t.Fatalf("decoded %v", out)
	}
}

func TestTransportDoesNotRetry404(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.NotFound(w, r)
	}))
	defer srv.Close()

	tp := fastTransport(TransportOptions{MaxRetries: 3})
	err := tp.GetJSON(context.Background(), srv.URL+"/x", nil)
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("calls = %d, want 1 (404 is terminal)", got)
	}
}

func TestTransportDoesNotRetryClientErrors(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadRequest)
	}))
	defer srv.Close()

	tp := fastTransport(TransportOptions{MaxRetries: 3})
	err := tp.PostJSON(context.Background(), srv.URL+"/x", map[string]int{"a": 1}, nil)
	if err == nil {
		t.Fatal("400 accepted")
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("calls = %d, want 1 (4xx is terminal)", got)
	}
}

func TestTransportRetriesExhaust(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadGateway)
	}))
	defer srv.Close()

	tp := fastTransport(TransportOptions{MaxRetries: 2, BreakerThreshold: -1})
	if err := tp.GetJSON(context.Background(), srv.URL+"/x", nil); err == nil {
		t.Fatal("persistent 502 accepted")
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("calls = %d, want 3 (1 try + 2 retries)", got)
	}
}

func TestTransportContextCancelStopsRetries(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer srv.Close()

	// On the wall clock the second backoff alone (25 ms × 2, ±50%) outlasts
	// the caller's 20 ms.
	tp := fastTransport(TransportOptions{MaxRetries: 10, Clock: realClock{}})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := tp.GetJSON(ctx, srv.URL+"/x", nil); err == nil {
		t.Fatal("cancelled call succeeded")
	}
	if got := calls.Load(); got > 2 {
		t.Fatalf("calls = %d, want <= 2 (context expired during backoff)", got)
	}
}

func TestTransportPerRequestDeadline(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
	}))
	defer srv.Close()
	defer close(release)

	tp := fastTransport(TransportOptions{RequestTimeout: 30 * time.Millisecond, MaxRetries: -1})
	start := time.Now()
	err := tp.GetJSON(context.Background(), srv.URL+"/slow", nil)
	if err == nil {
		t.Fatal("hung call succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline not enforced: call took %v", elapsed)
	}
}

func TestTransportCircuitBreaker(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{}`))
	}))
	base := srv.URL
	srv.Close() // all calls now fail with connection refused

	// The manual clock never moves: the circuit stays open.
	tp := fastTransport(TransportOptions{MaxRetries: -1, BreakerThreshold: 3, Clock: newManualClock()})
	for i := 0; i < 3; i++ {
		if err := tp.GetJSON(context.Background(), base+"/x", nil); err == nil {
			t.Fatal("call to closed server succeeded")
		}
	}
	if !tp.PeerDown(base) {
		t.Fatal("circuit not open after threshold failures")
	}
	err := tp.GetJSON(context.Background(), base+"/x", nil)
	if !errors.Is(err, ErrPeerDown) {
		t.Fatalf("err = %v, want ErrPeerDown (fail fast)", err)
	}
}

func TestTransportBreakerHalfOpenRecovery(t *testing.T) {
	var healthy atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !healthy.Load() {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		w.Write([]byte(`{}`))
	}))
	defer srv.Close()

	// The breaker runs on an injected manual clock, so cooldown expiry is a
	// deterministic advance instead of a real sleep-and-poll loop.
	mc := newManualClock()
	tp := fastTransport(TransportOptions{MaxRetries: -1, BreakerThreshold: 2, Clock: mc})
	for i := 0; i < 2; i++ {
		_ = tp.GetJSON(context.Background(), srv.URL+"/x", nil)
	}
	if !tp.PeerDown(srv.URL) {
		t.Fatal("circuit should be open")
	}
	if err := tp.GetJSON(context.Background(), srv.URL+"/x", nil); !errors.Is(err, ErrPeerDown) {
		t.Fatalf("err = %v, want ErrPeerDown before cooldown", err)
	}
	healthy.Store(true)
	mc.advance(breakerCooldown + time.Millisecond) // past cooldown: next call is the probe
	if err := tp.GetJSON(context.Background(), srv.URL+"/x", nil); err != nil {
		t.Fatalf("half-open probe after cooldown failed: %v", err)
	}
	if tp.PeerDown(srv.URL) {
		t.Fatal("circuit still open after successful probe")
	}
}

func TestTransportDrainsBodyForConnectionReuse(t *testing.T) {
	var conns atomic.Int64
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Extra bytes after the JSON value: they must be drained before
		// the connection can go back to the keep-alive pool.
		w.Write([]byte(`{"ok":true}` + "   \n"))
	}))
	srv.Config.ConnState = func(c net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()

	tp := fastTransport(TransportOptions{MaxRetries: -1})
	for i := 0; i < 5; i++ {
		var out map[string]bool
		if err := tp.GetJSON(context.Background(), srv.URL+"/x", &out); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if got := conns.Load(); got != 1 {
		t.Fatalf("connections opened = %d, want 1 (bodies not drained?)", got)
	}
}
