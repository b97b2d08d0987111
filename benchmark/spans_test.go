package main

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

// A synthetic request tree: self times partition the root.
//
//	client.doc   [0, 1000]
//	  edge.doc     [100, 900]
//	    hop.lookup   [150, 350]
//	      beacon.lookup [200, 300]
//	    hop.fetch    [400, 800]
//	      holder.fetch  [500, 600]
func TestSelfTimesSumToTheRoot(t *testing.T) {
	spans := []span{
		{ID: 1, Req: 1, Name: spClientDoc, Start: 0, End: 1000},
		{ID: 2, Parent: 1, Req: 1, Name: spEdgeDoc, Start: 100, End: 900},
		{ID: 3, Parent: 2, Req: 1, Name: spHopLookup, Start: 150, End: 350},
		{ID: 4, Parent: 3, Req: 1, Name: spBeaconLookup, Start: 200, End: 300},
		{ID: 5, Parent: 2, Req: 1, Name: spHopFetch, Start: 400, End: 800},
		{ID: 6, Parent: 5, Req: 1, Name: spHolderFetch, Start: 500, End: 600},
	}
	sum := analyse(spans)
	want := map[spanName]int64{
		spClientDoc: 200, spEdgeDoc: 200, spHopLookup: 100, spBeaconLookup: 100, spHopFetch: 300, spHolderFetch: 100,
	}
	var total int64
	for name, self := range want {
		if got := sum.byName[name].selfNs; got != self {
			t.Errorf("%s self time %d, want %d", spanNames[name], got, self)
		}
		total += sum.byName[name].selfNs
	}
	if total != 1000 || sum.docSelfNs != 1000 || sum.docDurNs != 1000 {
		t.Errorf("self times sum to %d (doc tree %d), root lasted %d", total, sum.docSelfNs, sum.docDurNs)
	}
	if sum.orphans != 0 {
		t.Errorf("%d orphans in a complete tree", sum.orphans)
	}
	m := spanMetrics(sum)
	if got := m["span.hop.fetch.self_us_per_req"].Value; got != 0.3 {
		t.Errorf("hop.fetch self per request %v us, want 0.3", got)
	}
}

func TestOverlappingChildrenAreCountedOnce(t *testing.T) {
	sum := analyse([]span{
		{ID: 1, Req: 1, Name: spOriginPublish, Start: 0, End: 100},
		{ID: 2, Parent: 1, Req: 1, Name: spHopSupdate, Start: 10, End: 60},
		{ID: 3, Parent: 1, Req: 1, Name: spHopSupdate, Start: 40, End: 90},
	})
	if got := sum.byName[spOriginPublish].selfNs; got != 20 {
		t.Errorf("parent self time %d, want 20: children cover [10,90]", got)
	}
}

func TestOrphanIsReported(t *testing.T) {
	sum := analyse([]span{
		{ID: 1, Req: 1, Name: spClientDoc, Start: 0, End: 10},
		{ID: 3, Parent: 2, Req: 1, Name: spHopLookup, Start: 2, End: 4},
	})
	if sum.orphans != 1 || sum.total != 2 {
		t.Errorf("orphans %d of %d, want 1 of 2", sum.orphans, sum.total)
	}
}

// The middleware and the RoundTripper link a handler's outbound call to it
// and to the span that sent the request.
func TestSpansLinkAcrossAHop(t *testing.T) {
	rec := newRecorder()
	leaf := httptest.NewServer(rec.middleware(roleCache, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {})))
	defer leaf.Close()
	client := &http.Client{Transport: &spanTransport{rec: rec, base: http.DefaultTransport}}
	edge := httptest.NewServer(rec.middleware(roleCache, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := http.NewRequestWithContext(r.Context(), http.MethodGet, leaf.URL+"/lookup", nil)
		resp, err := client.Do(req)
		if err != nil {
			t.Error(err)
			return
		}
		_ = resp.Body.Close()
	})))
	defer edge.Close()

	root, start := rec.open(spanRef{})
	req, _ := http.NewRequest(http.MethodGet, edge.URL+"/doc", nil)
	req.Header.Set(spanHeader, root.header())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	rec.close(spClientDoc, root, spanRef{}, start)
	edge.Close() // waits for the handlers, so their spans are in
	leaf.Close()

	byName := map[spanName]span{}
	for _, s := range rec.spans {
		byName[s.Name] = s
	}
	chain := []spanName{spClientDoc, spEdgeDoc, spHopLookup, spBeaconLookup}
	for i, name := range chain {
		s, ok := byName[name]
		if !ok {
			t.Fatalf("no %s span recorded; have %v", spanNames[name], rec.spans)
		}
		if s.Req != root.id {
			t.Errorf("%s belongs to request %d, want %d", spanNames[name], s.Req, root.id)
		}
		if i > 0 && s.Parent != byName[chain[i-1]].ID {
			t.Errorf("%s has parent %d, want the %s span %d", spanNames[name], s.Parent, spanNames[chain[i-1]], byName[chain[i-1]].ID)
		}
	}
	if sum := analyse(rec.spans); sum.orphans != 0 || sum.docSelfNs != sum.docDurNs {
		t.Errorf("orphans %d, self times %d of a %d ns request", sum.orphans, sum.docSelfNs, sum.docDurNs)
	}
}
