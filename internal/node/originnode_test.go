package node

import (
	"context"
	"encoding/json"
	"errors"
	"maps"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"cachecloud/internal/document"
)

// shieldReplies answers a shield's /supdate with the Held its base URL is
// mapped to (false when absent), every other POST with success and every
// GET with an error.
type shieldReplies map[string]bool

func (shieldReplies) GetJSON(context.Context, string, any) error { return errors.New("no network") }

func (s shieldReplies) PostJSON(_ context.Context, url string, _, out any) error {
	if sur, ok := out.(*ShieldUpdateResponse); ok {
		sur.Held = s[strings.TrimSuffix(url, "/supdate")]
	}
	return nil
}

// TestOriginCatalog pins what the origin answers from its catalog: a URL
// listed twice counts once, with its later entry; an unknown URL is a 404 on
// every route that names one; /versions and DocVersions list every document
// at its published version; and a shield that answered an update Held: false
// is skipped by later publishes until a fetch that names it is served.
func TestOriginCatalog(t *testing.T) {
	cfg := trioConfig()
	cfg.Shields = []string{"s1", "s0"}
	cfg.ShieldAddrs = map[string]string{"s0": "http://127.0.0.1:4", "s1": "http://127.0.0.1:5"}
	docs := testCatalog(3)
	slices.Reverse(docs) // not in URL order
	u0, u1, u2 := docs[2].URL, docs[1].URL, docs[0].URL
	docs = append(docs, document.Document{URL: u1, Size: 77, Version: 5})
	o, err := NewOriginNodeWithTransport(cfg, docs, shieldReplies{"http://127.0.0.1:4": true})
	if err != nil {
		t.Fatal(err)
	}
	h := o.Handler()
	do := func(method, target, body string, out any) int {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
		if out != nil && rec.Code == http.StatusOK {
			if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
				t.Fatalf("%s %s: %v", method, target, err)
			}
		}
		return rec.Code
	}
	want := map[string]document.Version{u0: 1, u1: 5, u2: 1}
	check := func(when string) {
		t.Helper()
		if n := o.Stats().Documents; n != len(want) {
			t.Fatalf("%s: Stats().Documents = %d, want %d", when, n, len(want))
		}
		if got := o.DocVersions(); !maps.Equal(got, want) {
			t.Fatalf("%s: DocVersions() = %v, want %v", when, got, want)
		}
		var vr VersionsResponse
		if code := do("GET", "/versions", "", &vr); code != http.StatusOK || !maps.Equal(vr.Versions, want) {
			t.Fatalf("%s: /versions = %d %v, want %v", when, code, vr.Versions, want)
		}
	}
	check("at construction")
	var fr FetchResponse
	if code := do("GET", "/fetch?url="+queryEscape(u1), "", &fr); code != http.StatusOK || fr.Doc != (document.Document{URL: u1, Size: 77, Version: 5}) {
		t.Fatalf("fetch of the URL listed twice: %d %+v, want its later entry", code, fr.Doc)
	}

	unknown := "http://live/doc/9"
	for _, c := range []struct{ method, target, body string }{
		{"GET", "/fetch?url=" + queryEscape(unknown), ""},
		{"POST", "/publish", `{"url":"` + unknown + `"}`},
		{"POST", "/purge", `{"url":"` + unknown + `","scope":"global"}`},
		{"POST", "/purge", `{"url":"` + unknown + `","scope":"cloud","cloud":"c"}`},
	} {
		if code := do(c.method, c.target, c.body, nil); code != http.StatusNotFound {
			t.Fatalf("%s %s of an unknown URL: %d, want 404", c.method, c.target, code)
		}
	}
	if code := do("POST", "/purge", `{"url":"`+u2+`","scope":"global"}`, nil); code != http.StatusOK {
		t.Fatalf("global purge: %d", code)
	}
	var vr VersionsResponse
	if do("GET", "/versions", "", &vr); !maps.Equal(vr.PurgeGen, map[string]int64{u2: 1}) {
		t.Fatalf("purge generations after one global purge: %v", vr.PurgeGen)
	}
	if do("GET", "/fetch?url="+queryEscape(u2), "", &fr); fr.PurgeGen != 1 {
		t.Fatalf("fetch after the purge carries generation %d, want 1", fr.PurgeGen)
	}

	// s0 answers every update Held: true, s1 Held: false.
	publish := func(url string, notified, skipped int) {
		t.Helper()
		var pr PublishResponse
		code := do("POST", "/publish", `{"url":"`+url+`"}`, &pr)
		want[url]++
		if code != http.StatusOK || pr.Version != want[url] || pr.ShieldsNotified != notified || pr.ShieldsSkipped != skipped {
			t.Fatalf("publish of %s: %d %+v, want version %d, %d shields notified and %d skipped", url, code, pr, want[url], notified, skipped)
		}
	}
	publish(u0, 2, 0)
	publish(u0, 1, 1)
	publish(u2, 2, 0) // another document's bit is its own
	do("GET", "/fetch?url="+queryEscape(u0)+"&shield=s0", "", nil)
	publish(u0, 1, 1)
	do("GET", "/fetch?url="+queryEscape(u0)+"&shield=s1", "", nil)
	publish(u0, 2, 0)
	publish(u2, 1, 1)
	check("after the publishes")
}
