package simnet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"

	"cachecloud/internal/node"
)

// memNet dispatches node-to-node calls directly into the target's
// production http.Handler via httptest recorders: the full handler stack
// runs (routing, JSON decoding, status mapping) with no sockets and no
// goroutine handoff, so a call completes synchronously inside the
// caller's frame. Semantics mirror node.HTTPTransport: 404 surfaces as
// node.ErrNotFound, other non-2xx replies as an error carrying the
// status, and 2xx bodies decode into out.
type memNet struct {
	mu       sync.Mutex
	handlers map[string]http.Handler // URL host → handler
	corrupt  wireHook
	// check, when set, sees every 2xx reply body as the caller decodes it
	// (corruption applied): the harness's per-exchange invariants.
	check func(method string, u *url.URL, reply []byte)
}

// wireHook may rewrite bodies in flight (deliberate bug injection for
// harness self-tests): req a request body, reply a 2xx reply's body. Either
// may be nil, and a nil result keeps the original bytes.
type wireHook struct {
	req, reply func(method, path string, body []byte) []byte
}

func newMemNet() *memNet {
	return &memNet{handlers: make(map[string]http.Handler)}
}

// bindHandler registers the handler serving a base URL's host.
func (m *memNet) bindHandler(baseURL string, h http.Handler) {
	u, err := url.Parse(baseURL)
	host := baseURL
	if err == nil && u.Host != "" {
		host = u.Host
	}
	m.mu.Lock()
	m.handlers[host] = h
	m.mu.Unlock()
}

// setCorrupt installs the body-rewriting hook.
func (m *memNet) setCorrupt(h wireHook) {
	m.mu.Lock()
	m.corrupt = h
	m.mu.Unlock()
}

// memTransport is one participant's handle on the in-memory network. It
// implements the same method set as node.HTTPTransport, so it satisfies
// both node.Transport and chaos.Inner.
type memTransport struct {
	net *memNet
}

func (m *memNet) transport() *memTransport { return &memTransport{net: m} }

// GetJSON implements the transport interface.
func (t *memTransport) GetJSON(ctx context.Context, url string, out any) error {
	return t.net.call(ctx, http.MethodGet, url, nil, out)
}

// PostJSON implements the transport interface.
func (t *memTransport) PostJSON(ctx context.Context, rawurl string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("simnet: marshal %s: %w", rawurl, err)
	}
	return t.net.call(ctx, http.MethodPost, rawurl, body, out)
}

// call performs one synchronous dispatch.
func (m *memNet) call(ctx context.Context, method, rawurl string, body []byte, out any) error {
	u, err := url.Parse(rawurl)
	if err != nil {
		return fmt.Errorf("simnet: %s %s: %w", method, rawurl, err)
	}
	m.mu.Lock()
	h := m.handlers[u.Host]
	corrupt, check := m.corrupt, m.check
	m.mu.Unlock()
	if h == nil {
		return fmt.Errorf("simnet: %s %s: no handler bound for host %q", method, rawurl, u.Host)
	}
	if corrupt.req != nil && body != nil {
		if mutated := corrupt.req(method, u.Path, body); mutated != nil {
			body = mutated
		}
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req := httptest.NewRequest(method, rawurl, rd)
	req = req.WithContext(ctx)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if tid := node.TenantFromContext(ctx); tid != "" {
		req.Header.Set(node.TenantHeader, tid)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	resp := rec.Result()
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return node.ErrNotFound
	}
	if resp.StatusCode/100 != 2 {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("simnet: %s %s: status %d: %s", method, rawurl, resp.StatusCode, string(b))
	}
	reply := rec.Body.Bytes()
	if corrupt.reply != nil {
		if mutated := corrupt.reply(method, u.Path, reply); mutated != nil {
			reply = mutated
		}
	}
	if check != nil {
		check(method, u, reply)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(reply, out)
}
