package node

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"cachecloud/internal/document"
)

// fuzzTransport fails every outbound call, so fuzzed handlers exercise
// their error paths without touching the network.
type fuzzTransport struct{}

func (fuzzTransport) GetJSON(ctx context.Context, url string, out any) error {
	return errors.New("fuzz: no network")
}

func (fuzzTransport) PostJSON(ctx context.Context, url string, in, out any) error {
	return errors.New("fuzz: no network")
}

// The node kind a fuzzed route is sent to.
const (
	onCache = iota
	onOrigin
	onShield
)

// fuzzEndpoints lists every wire-protocol route of the three node kinds.
var fuzzEndpoints = []struct {
	method, path string
	on           int
}{
	{"GET", "/doc", onCache},
	{"GET", "/lookup", onCache},
	{"POST", "/deregister", onCache},
	{"GET", "/fetch", onCache},
	{"POST", "/update", onCache},
	{"POST", "/apply", onCache},
	{"POST", "/subranges", onCache},
	{"GET", "/subranges", onCache},
	{"POST", "/records/import", onCache},
	{"POST", "/records/replica", onCache},
	{"POST", "/replicate", onCache},
	{"POST", "/reconcile", onCache},
	{"POST", "/loads/collect", onCache},
	{"POST", "/membership", onCache},
	{"GET", "/stats", onCache},
	{"GET", "/metrics", onCache},
	{"GET", "/fetch", onOrigin},
	{"POST", "/publish", onOrigin},
	{"POST", "/rebalance", onOrigin},
	{"POST", "/replicate", onOrigin},
	{"POST", "/repair", onOrigin},
	{"POST", "/heartbeat", onOrigin},
	{"GET", "/stats", onOrigin},
	{"GET", "/metrics", onOrigin},
	{"GET", "/versions", onOrigin},
	{"POST", "/purge", onOrigin},
	{"POST", "/purge", onCache},
	{"POST", "/drop", onCache},
	{"GET", "/healthz", onCache},
	{"GET", "/sfetch", onShield},
	{"POST", "/supdate", onShield},
	{"POST", "/spurge", onShield},
	{"POST", "/subranges", onShield},
}

// FuzzProtocolDecode sends arbitrary bodies and query strings at every
// HTTP endpoint of a cache node, the origin and a shield. The handlers must reject
// garbage with an error status, never a panic — a panic here is a
// remotely-triggerable crash of a live node.
func FuzzProtocolDecode(f *testing.F) {
	f.Add(uint8(0), "url=http://live/doc/1", []byte(""))
	// The single-URL body /register and /deregister took until both forms
	// were deleted: it names no document now.
	f.Add(uint8(2), "", []byte(`{"url":"http://live/doc/1","node":"n0"}`))
	f.Add(uint8(4), "", []byte(`{"doc":{"url":"http://live/doc/1","size":100,"version":2}}`))
	f.Add(uint8(6), "", []byte(`{"rings":[[{"node":"n0","lo":0,"hi":99}]]}`))
	f.Add(uint8(8), "", []byte(`{"records":[{"url":"u","holders":["n0"],"version":1}]}`))
	f.Add(uint8(13), "", []byte(`{"down":["n1"]}`))
	f.Add(uint8(17), "", []byte(`{"url":"http://live/doc/1"}`))
	f.Add(uint8(21), "", []byte(`{"node":"n1","seq":1,"recordsHeld":3}`))
	f.Add(uint8(6), "", []byte(`{"rings":[[]]}`))
	f.Add(uint8(4), "", []byte(`{"doc":`))
	f.Add(uint8(255), "%zz=&&;", []byte{0xff, 0x00, 0x7b})
	f.Add(uint8(1), "url=http://live/doc/1&holder=n1&seq=1727500000000000001&drop=http://live/doc/2&drop=http://live/doc/3", []byte(""))
	f.Add(uint8(1), "url=u&holder=nobody&seq=-1&drop=", []byte(""))
	f.Add(uint8(2), "", []byte(`{"node":"n1","seq":1727500000000000002,"urls":["http://live/doc/2","http://live/doc/3"]}`))
	f.Add(uint8(2), "", []byte(`{"url":"http://live/doc/1","node":"n1","seq":18446744073709551616,"urls":[null]}`))
	// Holder names twice and out of order: merge lists each once, in order.
	f.Add(uint8(8), "", []byte(`{"records":[{"url":"u","holders":["n1","n0","n1","n0"],"version":2},{"url":"u","holders":["n0","n0"]}]}`))
	// A registering lookup of the document n0 holds: the answer carries the
	// copy (LookupResponse.Doc).
	f.Add(uint8(1), "url=http://live/doc/0&holder=n1&seq=1", []byte(""))
	// A publish of the document the shield declined: the origin skips it
	// (PublishResponse.ShieldsSkipped).
	f.Add(uint8(17), "", []byte(`{"url":"http://live/doc/0"}`))
	// The catalog lookups: a fetch naming the shield, the catalog listing,
	// global and cloud purges of a known and of an unknown document.
	f.Add(uint8(16), "url=http://live/doc/0&shield=s0", []byte(""))
	f.Add(uint8(24), "", []byte(""))
	f.Add(uint8(25), "", []byte(`{"url":"http://live/doc/0","scope":"global"}`))
	f.Add(uint8(25), "", []byte(`{"url":"http://live/doc/1","scope":"cloud","cloud":"c0"}`))
	f.Add(uint8(25), "", []byte(`{"url":"http://live/doc/9","scope":"global"}`))
	// A beacon's purge and a peer's drop: both end in directory.forget.
	f.Add(uint8(26), "", []byte(`{"url":"http://live/doc/0","scope":"global","gen":1}`))
	f.Add(uint8(26), "", []byte(`{"scope":"cloud"}`))
	f.Add(uint8(27), "", []byte(`{"url":"http://live/doc/0"}`))
	f.Add(uint8(28), "", []byte(""))
	// The shield's routes (shielded runs only; s0 holds doc 0 for cloud0):
	// a fetch hit, a fetch for a cloud no route reaches, a malformed and an
	// oversized version hint; an update of a held and of an unheld document;
	// a purge of each scope and of an unknown one; a layout install.
	f.Add(uint8(29), "url=http://live/doc/0&cloud=cloud0", []byte(""))
	f.Add(uint8(29), "url=http://live/doc/0&cloud=edge-b", []byte(""))
	f.Add(uint8(29), "url=http://live/doc/0&cloud=cloud0&v=1x", []byte(""))
	f.Add(uint8(29), "url=http://live/doc/0&cloud=cloud0&v=18446744073709551616", []byte(""))
	f.Add(uint8(30), "", []byte(`{"doc":{"url":"http://live/doc/0","size":100,"version":2}}`))
	f.Add(uint8(30), "", []byte(`{"doc":{"url":"http://live/doc/1","size":100,"version":2}}`))
	f.Add(uint8(31), "", []byte(`{"url":"http://live/doc/0","scope":"global","gen":1}`))
	f.Add(uint8(31), "", []byte(`{"url":"http://live/doc/0","scope":"cloud","cloud":"cloud0"}`))
	f.Add(uint8(31), "", []byte(`{"url":"http://live/doc/0","scope":"region"}`))
	f.Add(uint8(32), "", []byte(`{"rings":[[{"node":"n1","lo":0,"hi":99}]]}`))
	// Hand-offs and pushes that mix an empty record (no holder, version
	// 0), one naming only a version and one with holders: only the last
	// two become records. The push empties a replica it pushed before.
	f.Add(uint8(8), "", []byte(`{"records":[{"url":"http://live/doc/0"},{"url":"http://live/doc/1","holders":[],"version":3},{"url":"http://live/doc/2","holders":["n1"],"version":0}]}`))
	f.Add(uint8(9), "", []byte(`{"records":[{"url":"http://live/doc/0","holders":null,"version":0},{"url":"http://live/doc/1","version":3},{"url":"http://live/doc/2","holders":["n1","n0"]}],"reset":true,"from":"n1"}`))
	f.Add(uint8(9), "", []byte(`{"records":[{"url":"http://live/doc/2","holders":["n1"]},{"url":"http://live/doc/2"}],"from":"n1"}`))
	f.Fuzz(func(t *testing.T, endpoint uint8, query string, body []byte) {
		// Every input runs against the single-tier cloud, then against one
		// behind a shield in which n0 holds doc 0 and the shield has
		// declined an update of it, while the shield s0 holds doc 0 for
		// the cloud.
		for _, shielded := range []bool{false, true} {
			fuzzOne(t, shielded, endpoint, query, body)
		}
	})
}

func fuzzOne(t *testing.T, shielded bool, endpoint uint8, query string, body []byte) {
	cfg := ClusterConfig{
		IntraGen: 100,
		Rings:    [][]string{{"n0", "n1"}},
		Addrs: map[string]string{
			"n0": "http://127.0.0.1:1", "n1": "http://127.0.0.1:2",
		},
		OriginAddr: "http://127.0.0.1:3",
	}
	if shielded {
		cfg.Shields = []string{"s0"}
		cfg.ShieldAddrs = map[string]string{"s0": "http://127.0.0.1:4"}
	}
	cache, err := NewCacheNodeWithTransport("n0", cfg, fuzzTransport{})
	if err != nil {
		t.Fatal(err)
	}
	origin, err := NewOriginNodeWithTransport(cfg, testCatalog(3), fuzzTransport{})
	if err != nil {
		t.Fatal(err)
	}
	if shielded {
		d := origin.doc("http://live/doc/0")
		if _, err := cache.store.Put(document.Copy{Doc: d.Document}, 0); err != nil {
			t.Fatal(err)
		}
		d.declined = 1
	}

	ep := fuzzEndpoints[int(endpoint)%len(fuzzEndpoints)]
	handler := cache.Handler()
	switch ep.on {
	case onOrigin:
		handler = origin.Handler()
	case onShield:
		if !shielded {
			return
		}
		shield, err := NewShieldNodeWithTransport("s0", cfg, fuzzTransport{})
		if err != nil {
			t.Fatal(err)
		}
		shield.mu.Lock()
		e := shield.entry("http://live/doc/0")
		shield.store(e, document.Copy{Doc: origin.doc("http://live/doc/0").Document})
		e.subs = []string{liveCloud}
		shield.unlock()
		handler = shield.Handler()
	}
	req := &http.Request{
		Method:     ep.method,
		URL:        &url.URL{Path: ep.path, RawQuery: query},
		Proto:      "HTTP/1.1",
		ProtoMajor: 1,
		ProtoMinor: 1,
		Header:     http.Header{"Content-Type": []string{"application/json"}},
		Body:       io.NopCloser(bytes.NewReader(body)),
		Host:       "fuzz.local",
		RemoteAddr: "127.0.0.1:9",
	}
	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, req) // must not panic
	if rec.Code == 0 {
		t.Fatalf("shielded=%v %s %s: no status written", shielded, ep.method, ep.path)
	}
	// A lookup's answer never carries a copy older than its version.
	var lr LookupResponse
	if ep.path == "/lookup" && json.Unmarshal(rec.Body.Bytes(), &lr) == nil && lr.Doc != nil && lr.Doc.Version < lr.Version {
		t.Fatalf("lookup answered version %d with a version-%d copy", lr.Version, lr.Doc.Version)
	}
	if got, walk := heldOf(cache.dir), heldByWalk(cache.dir); got != walk {
		t.Fatalf("shielded=%v %s %s: %d owned records at stake, a walk counts %d", shielded, ep.method, ep.path, got, walk)
	}
	// Whatever got in, every holder list is in name order, each name once.
	for _, replicas := range []bool{false, true} {
		for _, wr := range cache.dir.snapshot(replicas) {
			for i := 1; i < len(wr.Holders); i++ {
				if wr.Holders[i-1] >= wr.Holders[i] {
					t.Fatalf("shielded=%v %s %s left %q listing %v", shielded, ep.method, ep.path, wr.URL, wr.Holders)
				}
			}
		}
	}
}
