package node

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"cachecloud/internal/document"
	"cachecloud/internal/node/chaos"
)

// importLog is a network on which every call succeeds. It keeps the
// target and the records of each /records/import.
type importLog struct {
	mu      sync.Mutex
	imports map[string][]WireRecord // by target URL
}

func (l *importLog) GetJSON(context.Context, string, any) error { return nil }

func (l *importLog) PostJSON(_ context.Context, url string, in, _ any) error {
	if body, ok := in.(RecordsImport); ok && strings.HasSuffix(url, "/records/import") {
		l.mu.Lock()
		defer l.mu.Unlock()
		if l.imports == nil {
			l.imports = make(map[string][]WireRecord)
		}
		l.imports[url] = append(l.imports[url], body.Records...)
	}
	return nil
}

// handoffConfig is one ring of three caches whose addresses nothing
// answers; n0 boots owning IrH values 0 to 4 of 16.
func handoffConfig() ClusterConfig {
	return ClusterConfig{
		IntraGen: 16,
		Rings:    [][]string{{"n0", "n1", "n2"}},
		Addrs: map[string]string{
			"n0": "http://127.0.0.1:1", "n1": "http://127.0.0.1:2", "n2": "http://127.0.0.1:3",
		},
		OriginAddr: "http://127.0.0.1:4",
	}
}

// handoffLayout gives n0's range to n1 (values 0 to 2) and n2 (3 to 4).
var handoffLayout = Assignments{Rings: [][]Subrange{{{Node: "n1", Lo: 0, Hi: 2}, {Node: "n2", Lo: 3, Hi: 15}}}}

// postSubranges posts a layout to a node's /subranges and returns its answer.
func postSubranges(t *testing.T, cn *CacheNode, a Assignments) SubrangesResponse {
	t.Helper()
	body, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	cn.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/subranges", bytes.NewReader(body)))
	var sr SubrangesResponse
	if rec.Code != 200 || json.Unmarshal(rec.Body.Bytes(), &sr) != nil {
		t.Fatalf("/subranges: %d %s", rec.Code, rec.Body)
	}
	return sr
}

// TestInstallSendsNoEmptyRecord: a node whose moved records are all empty
// sends no /records/import, and one with a record that names a version
// sends that record alone. On the parent commit the first node sent its
// empty records to both new owners.
func TestInstallSendsNoEmptyRecord(t *testing.T) {
	cfg := handoffConfig()
	mine := urlsOf(t, layoutOf(newRings(cfg, false)), "n0", 8)
	for _, versioned := range []bool{false, true} {
		net := &importLog{}
		cn, err := NewCacheNodeWithTransport("n0", cfg, net)
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range mine {
			cn.dir.lookup(0, u, "", 0, nil)
		}
		cn.dir.lookup(0, mine[0], "n1", 1, nil)
		cn.dir.deregister("n1", 2, mine[:1])
		var want map[string][]WireRecord
		if versioned {
			cn.dir.update(0, document.Document{URL: mine[1], Version: 3})
			owner, _ := handoffLayout.ownerOf(mine[1], cfg.IntraGen)
			want = map[string][]WireRecord{cfg.Addrs[owner] + "/records/import": {{URL: mine[1], Version: 3}}}
		}
		sr := postSubranges(t, cn, handoffLayout)
		if !reflect.DeepEqual(net.imports, want) || sr.MigratedOut != len(want) {
			t.Fatalf("versioned=%v: imports %+v (%d batches), want %+v", versioned, net.imports, sr.MigratedOut, want)
		}
		if owned, _, _ := cn.dir.counts(); owned != 0 {
			t.Fatalf("versioned=%v: %d records left behind", versioned, owned)
		}
		_ = cn.Close()
	}
}

// TestFailedHandoffIsCounted: a hand-off batch the new beacon does not take
// is counted in handoff_failed_total; the batch the other owner takes is
// not. On the parent commit the error was dropped uncounted.
func TestFailedHandoffIsCounted(t *testing.T) {
	cfg := handoffConfig()
	log := &importLog{}
	net := chaos.NewNetwork(chaos.Config{Seed: 1})
	for name, addr := range cfg.Addrs {
		net.Bind(name, addr)
	}
	cn, err := NewCacheNodeWithTransport("n0", cfg, net.Transport("n0", log))
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	to := map[string]int{}
	for _, u := range urlsOf(t, layoutOf(newRings(cfg, false)), "n0", 16) {
		cn.dir.lookup(0, u, "n1", 1, nil)
		owner, _ := handoffLayout.ownerOf(u, cfg.IntraGen)
		to[owner]++
	}
	if to["n1"] == 0 || to["n2"] == 0 {
		t.Fatalf("the records move to %v, want both n1 and n2", to)
	}
	net.Kill("n2")
	if sr := postSubranges(t, cn, handoffLayout); sr.MigratedOut != 2 {
		t.Fatalf("%d hand-off batches, want 2", sr.MigratedOut)
	}
	if got := len(log.imports[cfg.Addrs["n1"]+"/records/import"]); got != to["n1"] || len(log.imports) != 1 {
		t.Fatalf("delivered %v, want %d records to n1 only", log.imports, to["n1"])
	}
	want := fmt.Sprintf("cachecloud_node_handoff_failed_total{node=%q} 1", "n0")
	rec := httptest.NewRecorder()
	cn.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if !strings.Contains(rec.Body.String(), want) {
		t.Fatalf("/metrics lacks %q", want)
	}
}
