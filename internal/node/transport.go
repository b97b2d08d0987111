package node

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"
)

// Transport is the pluggable wire layer every node-to-node call goes
// through. The production implementation is HTTPTransport (per-request
// deadlines, bounded retries with backoff, per-peer circuit breaking);
// tests inject the deterministic fault-injecting transport from
// internal/node/chaos. A 404 reply surfaces as ErrNotFound so callers can
// distinguish absence from failure. PostJSON's in may be a json.RawMessage,
// a body already encoded (see sharedBody).
type Transport interface {
	GetJSON(ctx context.Context, url string, out any) error
	PostJSON(ctx context.Context, url string, in, out any) error
}

// ErrNotFound is returned by a Transport when the remote answered 404:
// the peer is healthy but the resource does not exist. It is never
// retried and never trips the circuit breaker.
var ErrNotFound = errNotFound

// ErrPeerDown is returned by HTTPTransport when a peer's circuit breaker
// is open: recent calls to it failed consecutively and the cooldown has
// not elapsed, so the call is refused without touching the network.
var ErrPeerDown = errors.New("node: peer circuit open")

// ErrShed is returned by a Transport when the remote answered 429: the
// peer is alive but deliberately shedding load. A shed is never retried
// against the same peer (the caller falls through the beacon → sibling
// → origin degradation chain instead), never trips the circuit breaker
// (the peer responded), and its Retry-After hint is honored: further
// calls to that peer fail fast with ErrShed until the hint elapses.
var ErrShed = errors.New("node: peer shedding load")

// peerShedError is a 429 reply (or a fail-fast repeat of one within its
// Retry-After window).
type peerShedError struct {
	url        string
	retryAfter time.Duration
}

func (e *peerShedError) Error() string {
	return fmt.Sprintf("node: %s: peer shedding load (retry after %v)", e.url, e.retryAfter)
}

// Is makes errors.Is(err, ErrShed) true for every *peerShedError.
func (e *peerShedError) Is(target error) bool { return target == ErrShed }

// ShedRetryAfter extracts the Retry-After hint from a transport shed
// error (ok is false for any other error).
func ShedRetryAfter(err error) (time.Duration, bool) {
	var se *peerShedError
	if errors.As(err, &se) {
		return se.retryAfter, true
	}
	return 0, false
}

// maxShedRetryAfter caps how long a peer's Retry-After hint can keep the
// fail-fast window open, so a bogus hint cannot poison a peer for long.
const maxShedRetryAfter = 2 * time.Second

// The retry and breaker timings of HTTPTransport.
const (
	// backoffBase is the first retry delay; each further retry doubles it
	// up to backoffMax, with ±50% jitter.
	backoffBase = 25 * time.Millisecond
	backoffMax  = 500 * time.Millisecond
	// breakerCooldown is how long an open circuit refuses calls before
	// letting a probe through.
	breakerCooldown = time.Second
)

// TransportOptions tunes HTTPTransport. The zero value selects the
// defaults noted on each field.
type TransportOptions struct {
	// RequestTimeout bounds each attempt (default 5s). Callers can impose
	// a tighter overall budget through the context.
	RequestTimeout time.Duration
	// MaxRetries is the number of re-attempts after the first failure
	// (default 2 for 0; negative disables retries).
	MaxRetries int
	// BreakerThreshold is the number of consecutive failures to one peer
	// that opens its circuit (default 4; negative disables the breaker).
	BreakerThreshold int
	// OnBreakerOpen, when non-nil, is called each time a peer's circuit
	// transitions from closed to open (observability hook). It is invoked
	// outside the transport's lock and must be safe for concurrent use.
	OnBreakerOpen func(host string)
	// Client makes every attempt go through this *http.Client instead of
	// the transport's own pooled exchange. It should have no global
	// Timeout: deadlines are per-request via context.
	Client *http.Client
	// Clock is the time source for breaker cooldowns and retry backoffs
	// (nil selects the wall clock). Tests inject a manual clock to step
	// through cooldown windows without sleeping.
	Clock Clock
}

// breaker is the per-peer circuit state.
type breaker struct {
	fails    int       // consecutive failures
	openedAt time.Time // when the circuit opened (zero = closed)
	probing  bool      // a half-open probe is in flight
	// shedUntil is the end of the peer's Retry-After window: calls
	// before it fail fast with ErrShed instead of hitting a peer that
	// just said it is overloaded.
	shedUntil time.Time
}

// HTTPTransport is the production Transport: JSON over HTTP with
// per-request context deadlines, bounded retries with exponential backoff
// and jitter, and a per-peer circuit breaker keyed by URL host.
type HTTPTransport struct {
	opts TransportOptions
	// client makes the attempts the transport's own exchange (wire.go) does
	// not: all of them when the caller supplied TransportOptions.Client,
	// otherwise those to a URL that is not plain http://.
	client *http.Client
	direct bool // no Client was supplied
	clock  Clock

	mu       sync.Mutex
	rng      *rand.Rand
	breakers map[string]*breaker
}

// NewHTTPTransport builds the production transport.
func NewHTTPTransport(opts TransportOptions) *HTTPTransport {
	if opts.RequestTimeout <= 0 {
		opts.RequestTimeout = 5 * time.Second
	}
	switch {
	case opts.MaxRetries == 0:
		opts.MaxRetries = 2
	case opts.MaxRetries < 0:
		opts.MaxRetries = 0
	}
	if opts.BreakerThreshold == 0 {
		opts.BreakerThreshold = 4
	}
	client := opts.Client
	if client == nil {
		client = &http.Client{}
	}
	return &HTTPTransport{
		opts:     opts,
		client:   client,
		direct:   opts.Client == nil,
		clock:    clockOrReal(opts.Clock),
		rng:      rand.New(rand.NewSource(time.Now().UnixNano())),
		breakers: make(map[string]*breaker),
	}
}

// GetJSON implements Transport.
func (t *HTTPTransport) GetJSON(ctx context.Context, url string, out any) error {
	return t.do(ctx, t.route(http.MethodGet, url), nil, out)
}

// PostJSON implements Transport. A json.RawMessage is sent as it is, so a
// caller with one body for many recipients encodes it once.
func (t *HTTPTransport) PostJSON(ctx context.Context, url string, in, out any) error {
	c := t.route(http.MethodPost, url)
	if raw, ok := in.(json.RawMessage); ok {
		return t.do(ctx, c, raw, out)
	}
	if !c.direct {
		// net/http may still be writing the body after the call returned,
		// so it cannot go back to a pool.
		body, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("node: marshal %s: %w", url, err)
		}
		return t.do(ctx, c, body, out)
	}
	buf := getBuf()
	defer putBuf(buf)
	if err := json.NewEncoder(buf).Encode(in); err != nil {
		return fmt.Errorf("node: marshal %s: %w", url, err)
	}
	return t.do(ctx, c, buf.Bytes(), out)
}

// sharedBody encodes the body of a fan-out once for all its recipients. A
// value that does not encode is passed on as it is, for each PostJSON to
// report.
func sharedBody(v any) any {
	if b, err := json.Marshal(v); err == nil {
		return json.RawMessage(b)
	}
	return v
}

// peerCall is where one logical call goes, worked out once for all its
// attempts.
type peerCall struct {
	method, url string
	host        string // breaker key; the Host header of a direct call
	target      string // request target of a direct call
	direct      bool   // attempts use the transport's own exchange
}

func (t *HTTPTransport) route(method, rawurl string) peerCall {
	c := peerCall{method: method, url: rawurl}
	if c.host, c.target, c.direct = splitPlainHTTP(rawurl); !c.direct {
		c.host = hostOf(rawurl)
	}
	c.direct = c.direct && t.direct
	return c
}

// attempt makes one attempt of a call.
func (t *HTTPTransport) attempt(ctx context.Context, c peerCall, body []byte, out any) error {
	if c.direct {
		return t.exchange(ctx, c, body, out)
	}
	return doJSON(ctx, t.client, c.method, c.url, body, out, t.opts.RequestTimeout)
}

// do runs the retry loop around one logical call.
func (t *HTTPTransport) do(ctx context.Context, c peerCall, body []byte, out any) error {
	host := c.host
	var lastErr error
	for attempt := 0; ; attempt++ {
		switch err := t.admit(host); {
		case errors.Is(err, ErrShed):
			// The peer shed a recent call and its Retry-After window is
			// still open: fail fast without touching the network so the
			// caller can fall through the degradation chain.
			return err
		case err != nil:
			// An open circuit fails fast; it still counts as this
			// attempt's outcome so callers see a stable error.
			lastErr = fmt.Errorf("%w: %s", ErrPeerDown, host)
		default:
			err := t.attempt(ctx, c, body, out)
			if errors.Is(err, ErrShed) {
				// A shed is a deliberate, non-retryable refusal from a
				// live peer: remember its Retry-After window and count
				// the reply as the peer being up (never a breaker
				// failure — shedding must not amplify into retries or a
				// tripped circuit).
				if ra, ok := ShedRetryAfter(err); ok {
					t.noteShed(host, ra)
				}
				t.observe(host, true)
				return err
			}
			if err == nil || !retryable(err) {
				t.observe(host, err == nil || errors.Is(err, errNotFound))
				return err
			}
			t.observe(host, false)
			lastErr = err
		}
		if attempt >= t.opts.MaxRetries || ctx.Err() != nil {
			return lastErr
		}
		if err := t.sleep(ctx, attempt); err != nil {
			return lastErr
		}
	}
}

// noteShed records a peer's Retry-After window (capped) so subsequent
// calls fail fast until it elapses.
func (t *HTTPTransport) noteShed(host string, retryAfter time.Duration) {
	if retryAfter <= 0 {
		return
	}
	if retryAfter > maxShedRetryAfter {
		retryAfter = maxShedRetryAfter
	}
	t.mu.Lock()
	b := t.breakers[host]
	if b == nil {
		b = &breaker{}
		t.breakers[host] = b
	}
	until := t.clock.Now().Add(retryAfter)
	if until.After(b.shedUntil) {
		b.shedUntil = until
	}
	t.mu.Unlock()
}

// PeerShedding reports whether the peer's Retry-After window is open.
func (t *HTTPTransport) PeerShedding(baseURL string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	b := t.breakers[hostOf(baseURL)]
	return b != nil && b.shedUntil.After(t.clock.Now())
}

// admit consults the peer's shed window and circuit breaker; nil means
// the call may proceed.
func (t *HTTPTransport) admit(host string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b := t.breakers[host]
	if b == nil {
		return nil
	}
	if remain := b.shedUntil.Sub(t.clock.Now()); remain > 0 {
		return &peerShedError{url: host, retryAfter: remain}
	}
	if t.opts.BreakerThreshold < 0 || b.openedAt.IsZero() {
		return nil
	}
	if t.clock.Since(b.openedAt) >= breakerCooldown && !b.probing {
		b.probing = true // half-open: let exactly one probe through
		return nil
	}
	return ErrPeerDown
}

// observe records a call outcome against the peer's breaker.
func (t *HTTPTransport) observe(host string, ok bool) {
	if t.opts.BreakerThreshold < 0 {
		return
	}
	t.mu.Lock()
	b := t.breakers[host]
	if b == nil {
		b = &breaker{}
		t.breakers[host] = b
	}
	opened := false
	if ok {
		b.fails = 0
		b.openedAt = time.Time{}
		b.probing = false
	} else {
		b.fails++
		b.probing = false
		if b.fails >= t.opts.BreakerThreshold {
			opened = b.openedAt.IsZero()
			b.openedAt = t.clock.Now()
		}
	}
	t.mu.Unlock()
	if opened && t.opts.OnBreakerOpen != nil {
		t.opts.OnBreakerOpen(host)
	}
}

// PeerDown reports whether the peer's circuit is currently open.
func (t *HTTPTransport) PeerDown(baseURL string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	b := t.breakers[hostOf(baseURL)]
	return b != nil && !b.openedAt.IsZero() && t.clock.Since(b.openedAt) < breakerCooldown
}

// sleep waits for the attempt's backoff (exponential with ±50% jitter),
// aborting early when the context is cancelled.
func (t *HTTPTransport) sleep(ctx context.Context, attempt int) error {
	d := backoffBase << uint(attempt)
	if d > backoffMax {
		d = backoffMax
	}
	t.mu.Lock()
	jitter := 0.5 + t.rng.Float64() // [0.5, 1.5)
	t.mu.Unlock()
	d = time.Duration(float64(d) * jitter)
	done := make(chan struct{})
	timer := t.clock.AfterFunc(d, func() { close(done) })
	defer timer.Stop()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// retryable reports whether an error is worth another attempt: transport
// failures and 5xx replies are; 404 (absence) and other 4xx (the peer
// answered and rejected the request) are not.
func retryable(err error) bool {
	if err == nil || errors.Is(err, errNotFound) || errors.Is(err, ErrShed) {
		return false
	}
	var se *statusError
	if errors.As(err, &se) {
		return se.status >= 500
	}
	return true // connection refused, timeout, reset, ...
}

// statusError is a non-2xx reply.
type statusError struct {
	method, url string
	status      int
	body        string
}

func (e *statusError) Error() string {
	return fmt.Sprintf("node: %s %s: status %d: %s", e.method, e.url, e.status, e.body)
}

// hostOf extracts the host:port a URL targets (breaker key).
func hostOf(rawurl string) string {
	u, err := url.Parse(rawurl)
	if err != nil || u.Host == "" {
		return rawurl
	}
	return u.Host
}

// doJSON performs one HTTP attempt with a per-request deadline, decoding
// the JSON reply into out (out may be nil). The response body is always
// drained and closed so the underlying connection returns to the pool.
func doJSON(ctx context.Context, client *http.Client, method, rawurl string, body []byte, out any, timeout time.Duration) error {
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, rawurl, rd)
	if err != nil {
		return fmt.Errorf("node: %s %s: %w", method, rawurl, err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	// Propagate the caller's remaining budget so downstream queue waiters
	// whose caller gave up stop consuming slots.
	if dl, ok := ctx.Deadline(); ok {
		if ms := time.Until(dl) / time.Millisecond; ms > 0 {
			req.Header.Set(DeadlineHeader, strconv.FormatInt(int64(ms), 10))
		}
	}
	if tid := TenantFromContext(ctx); tid != "" {
		req.Header.Set(TenantHeader, tid)
	}
	resp, err := client.Do(req)
	if err != nil {
		return fmt.Errorf("node: %s %s: %w", method, rawurl, err)
	}
	// Every return below rides on this drain+close, so error replies
	// (shed, 4xx, 5xx) never leak the keep-alive connection.
	defer drainClose(resp.Body)
	buf := getBuf()
	defer putBuf(buf)
	status := resp.StatusCode
	// A cut in an error reply's body costs only some of the quoted text.
	if _, err := readInto(buf, resp.Body, replyKeep(status, out != nil)); err != nil && status/100 == 2 {
		return fmt.Errorf("node: %s %s: %w", method, rawurl, err)
	}
	var retryMs, retrySecs string
	if status == http.StatusTooManyRequests {
		retryMs, retrySecs = resp.Header.Get(RetryAfterMsHeader), resp.Header.Get("Retry-After")
	}
	return replyResult(method, rawurl, status, retryMs, retrySecs, buf.Bytes(), out)
}

// replyKeep is how much of a reply's body replyResult uses: all of a 2xx
// body that is to be decoded, the start of an error reply's for the error
// text, nothing otherwise.
func replyKeep(status int, decode bool) int64 {
	switch {
	case status/100 == 2 && decode:
		return maxReplyBytes
	case status/100 == 2 || status == http.StatusNotFound || status == http.StatusTooManyRequests:
		return 0
	}
	return errBodyBytes
}

// replyResult turns one reply into the call's outcome, for both kinds of
// attempt: 404 is ErrNotFound, 429 a shed with the peer's hint (its two
// Retry-After headers, as sent), any other non-2xx a statusError quoting
// the body, and a 2xx body is decoded into out when the caller wants it.
func replyResult(method, rawurl string, status int, retryMs, retrySecs string, body []byte, out any) error {
	switch {
	case status == http.StatusNotFound:
		return errNotFound
	case status == http.StatusTooManyRequests:
		return &peerShedError{url: rawurl, retryAfter: retryAfterHint(retryMs, retrySecs)}
	case status/100 != 2:
		return &statusError{method: method, url: rawurl, status: status, body: string(body)}
	case out == nil:
		return nil
	}
	return json.Unmarshal(body, out)
}

// retryAfterHint reads a 429 reply's retry hint: the millisecond header
// when present, else the standard whole-second Retry-After, else a 100ms
// default (a hint of some kind keeps the fail-fast window meaningful).
func retryAfterHint(ms, secs string) time.Duration {
	if ms != "" {
		if v, err := strconv.ParseInt(ms, 10, 64); err == nil && v > 0 {
			return time.Duration(v) * time.Millisecond
		}
	}
	if secs != "" {
		if v, err := strconv.ParseInt(secs, 10, 64); err == nil && v > 0 {
			return time.Duration(v) * time.Second
		}
	}
	return 100 * time.Millisecond
}

// bufPool holds the buffers JSON bodies are encoded into and read into, on
// both sides of a call.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func getBuf() *bytes.Buffer {
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	return buf
}

// putBuf returns a buffer to the pool, unless one large body grew it: the
// pool is for the common small message, not for keeping megabytes alive.
func putBuf(buf *bytes.Buffer) {
	if buf.Cap() <= 64<<10 {
		bufPool.Put(buf)
	}
}

// drainClose consumes any unread bytes before closing, so keep-alive
// connections are reusable. The drain is capped: a huge unread body is
// cheaper to close than to read.
func drainClose(rc io.ReadCloser) {
	_, _ = io.Copy(io.Discard, io.LimitReader(rc, maxDrainBytes))
	_ = rc.Close()
}
