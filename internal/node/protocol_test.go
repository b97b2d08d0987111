package node

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"testing"

	"cachecloud/internal/document"
)

// queryArgs lists every value queryArg finds under key, in order.
func queryArgs(raw, key string) (vals []string) {
	for v, rest, ok := queryArg(raw, key); ok; v, rest, ok = queryArg(rest, key) {
		vals = append(vals, v)
	}
	return vals
}

// FuzzQueryArg holds the handlers' query reader to url.ParseQuery: for any
// raw query and key, the values it finds are the ones ParseQuery lists under
// that key, in the same order.
func FuzzQueryArg(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw, key string) {
		want, _ := url.ParseQuery(raw)
		if got := queryArgs(raw, key); !slices.Equal(got, want[key]) {
			t.Fatalf("queryArg(%q, %q) found %q, ParseQuery lists %q", raw, key, got, want[key])
		}
	})
}

// FuzzDocReply holds the /doc reply writer to json.Encoder, byte for byte,
// and requires it to append after what the buffer holds.
func FuzzDocReply(f *testing.F) {
	f.Fuzz(func(t *testing.T, docURL string, size int64, version uint64, source string, stored, failedOver, degraded bool) {
		resp := DocResponse{
			Doc:    document.Document{URL: docURL, Size: size, Version: document.Version(version)},
			Source: source, Stored: stored, FailedOver: failedOver, Degraded: degraded,
		}
		var want bytes.Buffer
		want.WriteString("prefix")
		if err := json.NewEncoder(&want).Encode(resp); err != nil {
			t.Fatal(err)
		}
		if got := appendDocReply([]byte("prefix"), resp); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("appendDocReply wrote\n%q\njson.Encoder writes\n%q", got, want.Bytes())
		}
	})
}

// TestWriteDocMatchesWriteJSON requires a /doc reply written by writeDoc to
// carry the status, headers and body writeJSON gives the same DocResponse.
func TestWriteDocMatchesWriteJSON(t *testing.T) {
	for _, resp := range []DocResponse{
		{Doc: document.Document{URL: "http://live/doc/1", Size: 1000, Version: 3}, Source: "local", Stored: true},
		{Doc: document.Document{URL: "acme" + document.TenantSep + "http://live/doc?a=<b>&c"}, Source: "origin", Degraded: true},
		{Doc: document.Document{URL: "http://live/ \xff"}, Source: "peer", Stored: true, FailedOver: true},
	} {
		byDoc, byJSON := httptest.NewRecorder(), httptest.NewRecorder()
		writeDoc(byDoc, resp)
		writeJSON(byJSON, http.StatusOK, resp)
		if byDoc.Code != byJSON.Code || !bytes.Equal(byDoc.Body.Bytes(), byJSON.Body.Bytes()) {
			t.Errorf("writeDoc: %d %q; writeJSON: %d %q", byDoc.Code, byDoc.Body, byJSON.Code, byJSON.Body)
		}
		for _, key := range []string{"Content-Type", "Content-Length"} {
			if got, want := byDoc.Header().Values(key), byJSON.Header().Values(key); !slices.Equal(got, want) {
				t.Errorf("%s: writeDoc sets %q, writeJSON %q", key, got, want)
			}
		}
	}
}

// TestHitPathHelpersDoNotAllocate pins the two reads and writes every /doc
// hit makes: an unescaped query value is a substring of the query, and a
// reply appended into a buffer with room allocates nothing.
func TestHitPathHelpersDoNotAllocate(t *testing.T) {
	const raw = "v=2&url=http://live/doc/1&drop=x"
	if n := testing.AllocsPerRun(1000, func() {
		if v, _, ok := queryArg(raw, "url"); !ok || v != "http://live/doc/1" {
			t.Fatalf("queryArg = %q, %v", v, ok)
		}
	}); n != 0 {
		t.Errorf("queryArg allocates %v times per call, want 0", n)
	}
	resp := DocResponse{Doc: document.Document{URL: "http://live/doc/1", Size: 1000, Version: 7}, Source: "local", Stored: true}
	buf := make([]byte, 0, 256)
	if n := testing.AllocsPerRun(1000, func() {
		buf = appendDocReply(buf[:0], resp)
	}); n != 0 {
		t.Errorf("appendDocReply allocates %v times per call, want 0", n)
	}
}

// spaces is a body of n spaces that counts how much of it was read.
type spaces struct{ n, read int64 }

func (s *spaces) Read(p []byte) (int, error) {
	if s.read == s.n {
		return 0, io.EOF
	}
	k := min(int64(len(p)), s.n-s.read)
	for i := range p[:k] {
		p[i] = ' '
	}
	s.read += k
	return int(k), nil
}

// TestReadJSONEnforcesItsLimit streams chunked POST /apply bodies at a node,
// with no length announced. A valid body followed by 20 MB of spaces parses
// in its first 16 MB but does not end there, so it is refused; a 64 MB body
// is read no further than the limit plus one drain.
func TestReadJSONEnforcesItsLimit(t *testing.T) {
	n, err := NewCacheNodeWithTransport("n0", trioConfig(), scriptedNet{})
	if err != nil {
		t.Fatal(err)
	}
	h := n.Handler()
	apply := func(body io.Reader) int {
		req := httptest.NewRequest(http.MethodPost, "/apply", body)
		req.ContentLength, req.TransferEncoding = -1, []string{"chunked"}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code
	}
	const valid = `{"doc":{"url":"http://live/doc/1","size":1000,"version":2}}`
	if code := apply(strings.NewReader(valid)); code != http.StatusOK {
		t.Fatalf("a valid body: status %d", code)
	}
	if code := apply(io.MultiReader(strings.NewReader(valid), &spaces{n: 20 << 20})); code != http.StatusBadRequest {
		t.Fatalf("a valid body padded past the limit: status %d, want 400", code)
	}
	stream := &spaces{n: 64 << 20}
	if code := apply(stream); code != http.StatusBadRequest {
		t.Fatalf("a 64 MB body: status %d, want 400", code)
	}
	if most := int64(maxRequestBody + 1 + maxDrainBytes); stream.read > most {
		t.Fatalf("a 64 MB body was read to %d bytes, want at most %d", stream.read, most)
	}
}
