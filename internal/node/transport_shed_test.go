package node

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// shedServer replies 429 with Retry-After hints and a JSON body.
func shedServer(calls *atomic.Int64, retryAfterMs string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Retry-After", "1")
		if retryAfterMs != "" {
			w.Header().Set(RetryAfterMsHeader, retryAfterMs)
		}
		w.WriteHeader(http.StatusTooManyRequests)
		w.Write([]byte(`{"error":"shedding","class":"miss"}`))
	}
}

// TestTransportShedNotRetried: a 429 is a deliberate refusal — exactly
// one attempt, no backoff retries against the same peer.
func TestTransportShedNotRetried(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(shedServer(&calls, "500"))
	defer srv.Close()

	tp := fastTransport(TransportOptions{MaxRetries: 3})
	err := tp.GetJSON(context.Background(), srv.URL+"/x", nil)
	if !errors.Is(err, ErrShed) {
		t.Fatalf("err = %v, want ErrShed", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("calls = %d, want 1 (shed is terminal)", got)
	}
	if ra, ok := ShedRetryAfter(err); !ok || ra != 500*time.Millisecond {
		t.Fatalf("ShedRetryAfter = (%v, %v), want (500ms, true)", ra, ok)
	}
}

// TestTransportShedDoesNotTripBreaker: sheds count as the peer being
// alive — they reset the consecutive-failure streak instead of feeding
// it, so a shedding peer is never declared down.
func TestTransportShedDoesNotTripBreaker(t *testing.T) {
	var mode atomic.Int32 // 0 = 500, 1 = 429
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		if mode.Load() == 1 {
			w.Header().Set(RetryAfterMsHeader, "1")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer srv.Close()

	mc := newManualClock()
	tp := fastTransport(TransportOptions{MaxRetries: -1, BreakerThreshold: 3, Clock: mc})

	// Two real failures: one short of the threshold.
	for i := 0; i < 2; i++ {
		_ = tp.GetJSON(context.Background(), srv.URL+"/x", nil)
	}
	// A shed resets the streak (the peer answered).
	mode.Store(1)
	if err := tp.GetJSON(context.Background(), srv.URL+"/x", nil); !errors.Is(err, ErrShed) {
		t.Fatalf("err = %v, want ErrShed", err)
	}
	mc.advance(2 * time.Millisecond) // past the 1ms shed window
	// Two more failures would have opened the circuit had the shed
	// counted against it (2+1+2 >= 3); after the reset they do not.
	mode.Store(0)
	for i := 0; i < 2; i++ {
		_ = tp.GetJSON(context.Background(), srv.URL+"/x", nil)
	}
	if tp.PeerDown(srv.URL) {
		t.Fatal("circuit opened: the shed was counted as a breaker failure")
	}
}

// TestTransportShedHonorsRetryAfter: within the Retry-After window,
// calls to the shedding peer fail fast with ErrShed and never touch the
// network; after it elapses, traffic resumes.
func TestTransportShedHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(shedServer(&calls, "500"))
	defer srv.Close()

	mc := newManualClock()
	tp := fastTransport(TransportOptions{MaxRetries: -1, Clock: mc})

	if err := tp.GetJSON(context.Background(), srv.URL+"/x", nil); !errors.Is(err, ErrShed) {
		t.Fatalf("first call err = %v, want ErrShed", err)
	}
	if !tp.PeerShedding(srv.URL) {
		t.Fatal("PeerShedding = false inside the Retry-After window")
	}
	// Inside the window: fail fast, zero network calls.
	if err := tp.GetJSON(context.Background(), srv.URL+"/x", nil); !errors.Is(err, ErrShed) {
		t.Fatalf("in-window err = %v, want ErrShed", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("calls = %d, want 1 (in-window call must not hit the peer)", got)
	}
	mc.advance(501 * time.Millisecond)
	if tp.PeerShedding(srv.URL) {
		t.Fatal("PeerShedding = true after the window elapsed")
	}
	_ = tp.GetJSON(context.Background(), srv.URL+"/x", nil)
	if got := calls.Load(); got != 2 {
		t.Fatalf("calls = %d, want 2 (traffic resumes after the window)", got)
	}
}

// TestTransportShedRetryAfterSecondsAndCap: the whole-second Retry-After
// header is honored when the millisecond one is absent, and absurd
// hints are capped so a bogus peer cannot poison itself for long.
func TestTransportShedRetryAfterSecondsAndCap(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Retry-After", "3600")
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer srv.Close()

	mc := newManualClock()
	tp := fastTransport(TransportOptions{MaxRetries: -1, Clock: mc})
	err := tp.GetJSON(context.Background(), srv.URL+"/x", nil)
	if ra, ok := ShedRetryAfter(err); !ok || ra != time.Hour {
		t.Fatalf("ShedRetryAfter = (%v, %v), want (1h, true): seconds header not parsed", ra, ok)
	}
	// The fail-fast window is capped at maxShedRetryAfter, not 1h.
	mc.advance(maxShedRetryAfter + time.Millisecond)
	if tp.PeerShedding(srv.URL) {
		t.Fatal("shed window not capped: peer still poisoned past the cap")
	}
}

// TestTransportNoConnectionLeakOnErrorPaths is the body-drain audit:
// every early-return path (shed, 4xx, 5xx, 404) must drain and close
// the response body so the keep-alive connection is reused. One
// connection must serve the whole error sequence.
func TestTransportNoConnectionLeakOnErrorPaths(t *testing.T) {
	big := strings.Repeat("x", 8<<10) // force a body worth draining
	var step atomic.Int64
	var conns atomic.Int64
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch step.Add(1) {
		case 1:
			w.WriteHeader(http.StatusInternalServerError)
			w.Write([]byte(big))
		case 2:
			http.Error(w, big, http.StatusNotFound)
		case 3:
			w.WriteHeader(http.StatusBadRequest)
			w.Write([]byte(big))
		case 4:
			w.Header().Set(RetryAfterMsHeader, "1")
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(big))
		default:
			w.Write([]byte(`{"ok":true}`))
		}
	}))
	srv.Config.ConnState = func(c net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()

	mc := newManualClock()
	tp := fastTransport(TransportOptions{MaxRetries: -1, BreakerThreshold: -1, Clock: mc})
	wantErrs := []func(error) bool{
		func(err error) bool { return err != nil && !errors.Is(err, ErrShed) }, // 500
		func(err error) bool { return errors.Is(err, ErrNotFound) },            // 404
		func(err error) bool { return err != nil },                             // 400
		func(err error) bool { return errors.Is(err, ErrShed) },                // 429
		func(err error) bool { return err == nil },                             // 200
	}
	for i, want := range wantErrs {
		if i == 4 {
			mc.advance(2 * time.Millisecond) // leave the shed window
		}
		err := tp.GetJSON(context.Background(), srv.URL+"/x", nil)
		if !want(err) {
			t.Fatalf("call %d: unexpected err %v", i+1, err)
		}
	}
	if got := conns.Load(); got != 1 {
		t.Fatalf("connections opened = %d, want 1 (error-path bodies not drained?)", got)
	}
}
