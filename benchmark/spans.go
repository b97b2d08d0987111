package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// spanHeader carries "<request id>-<span id>" (hex) from the span that
// sends a request to the handler span that serves it.
const spanHeader = "X-Bench-Span"

// spanName indexes spanNames. client.* spans are the generator's view of
// one operation, hop.* the RoundTripper's view of one node-to-node call
// (framing + loopback), the rest are handler-side.
type spanName uint8

const (
	spClientDoc spanName = iota
	spClientPublish
	spEdgeDoc
	spHopLookup
	spBeaconLookup
	spHopFetch
	spHolderFetch
	spHopRegister
	spBeaconRegister
	spHopSfetch
	spShieldSfetch
	spHopOriginFetch
	spOriginFetch
	spOriginPublish
	spHopSupdate
	spShieldSupdate
	spHopUpdate
	spBeaconUpdate
	spHopApply
	spHolderApply
	numSpanNames
	// spOther is everything outside the request and publish paths:
	// rebalance cycles, record migration, replication.
	spOther = numSpanNames
)

var spanNames = [numSpanNames + 1]string{
	"client.doc", "client.publish", "edge.doc",
	"hop.lookup", "beacon.lookup", "hop.fetch", "holder.fetch",
	"hop.register", "beacon.register", "hop.sfetch", "shield.sfetch",
	"hop.origin_fetch", "origin.fetch", "origin.publish",
	"hop.supdate", "shield.supdate", "hop.update", "beacon.update",
	"hop.apply", "holder.apply", "other",
}

// Roles a handler middleware is installed for.
const (
	roleCache = iota
	roleShield
	roleOrigin
)

// handlerSpan names the span a role's handler opens for a URL path.
// /register and /deregister share one name: both are the holder-list
// maintenance a placement decision causes.
func handlerSpan(role int, path string) spanName {
	switch role {
	case roleCache:
		switch path {
		case "/doc":
			return spEdgeDoc
		case "/lookup":
			return spBeaconLookup
		case "/fetch":
			return spHolderFetch
		case "/register", "/deregister":
			return spBeaconRegister
		case "/update":
			return spBeaconUpdate
		case "/apply":
			return spHolderApply
		}
	case roleShield:
		switch path {
		case "/sfetch":
			return spShieldSfetch
		case "/supdate":
			return spShieldSupdate
		}
	case roleOrigin:
		switch path {
		case "/fetch":
			return spOriginFetch
		case "/publish":
			return spOriginPublish
		}
	}
	return spOther
}

// hopSpan names the span the RoundTripper opens for an outbound call.
func hopSpan(path string, toOrigin bool) spanName {
	switch path {
	case "/lookup":
		return spHopLookup
	case "/fetch":
		if toOrigin {
			return spHopOriginFetch
		}
		return spHopFetch
	case "/register", "/deregister":
		return spHopRegister
	case "/sfetch":
		return spHopSfetch
	case "/supdate":
		return spHopSupdate
	case "/update":
		return spHopUpdate
	case "/apply":
		return spHopApply
	}
	return spOther
}

// span is one recorded interval. Times are nanoseconds since the
// recorder's epoch. Parent 0 marks a root; Req is the root's ID.
type span struct {
	ID     uint64   `json:"id"`
	Parent uint64   `json:"parent"`
	Req    uint64   `json:"req"`
	Name   spanName `json:"name"`
	Start  int64    `json:"start"`
	End    int64    `json:"end"`
}

// spanRef is what travels: in a context inside a process, in spanHeader
// between them.
type spanRef struct{ req, id uint64 }

type spanCtxKey struct{}

// recorder keeps every finished span in memory until the run ends.
type recorder struct {
	epoch  time.Time
	nextID atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// open starts a span under parent (the zero ref starts a new request).
func (r *recorder) open(parent spanRef) (spanRef, int64) {
	id := r.nextID.Add(1)
	ref := spanRef{req: parent.req, id: id}
	if parent.id == 0 {
		ref.req = id
	}
	return ref, int64(time.Since(r.epoch))
}

func (r *recorder) close(name spanName, ref, parent spanRef, start int64) {
	s := span{ID: ref.id, Parent: parent.id, Req: ref.req, Name: name, Start: start, End: int64(time.Since(r.epoch))}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// reset drops what was recorded so far (the warm-up pass).
func (r *recorder) reset() {
	r.mu.Lock()
	r.spans = r.spans[:0]
	r.mu.Unlock()
}

func (ref spanRef) header() string {
	return strconv.FormatUint(ref.req, 16) + "-" + strconv.FormatUint(ref.id, 16)
}

func parseSpanHeader(v string) spanRef {
	reqHex, idHex, ok := strings.Cut(v, "-")
	if !ok {
		return spanRef{}
	}
	req, err1 := strconv.ParseUint(reqHex, 16, 64)
	id, err2 := strconv.ParseUint(idHex, 16, 64)
	if err1 != nil || err2 != nil {
		return spanRef{}
	}
	return spanRef{req: req, id: id}
}

// middleware wraps a node's Handler(): it opens a span whose parent comes
// from spanHeader and stores it in the request context. The node's
// handlers derive their outbound contexts from r.Context(), so the
// RoundTripper below finds it.
func (r *recorder) middleware(role int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		parent := parseSpanHeader(req.Header.Get(spanHeader))
		ref, start := r.open(parent)
		h.ServeHTTP(w, req.WithContext(context.WithValue(req.Context(), spanCtxKey{}, ref)))
		r.close(handlerSpan(role, req.URL.Path), ref, parent, start)
	})
}

// spanTransport is the RoundTripper handed to a node through
// node.TransportOptions.Client: a hop.* span from send to reply headers.
type spanTransport struct {
	rec        *recorder
	base       http.RoundTripper
	originHost string
}

func (t *spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	parent, _ := req.Context().Value(spanCtxKey{}).(spanRef)
	ref, start := t.rec.open(parent)
	// RoundTrip must not modify the caller's request.
	out := req.Clone(req.Context())
	out.Header.Set(spanHeader, ref.header())
	resp, err := t.base.RoundTrip(out)
	t.rec.close(hopSpan(req.URL.Path, req.URL.Host == t.originHost), ref, parent, start)
	return resp, err
}

// spanStats is one span name's totals over a traced run.
type spanStats struct {
	count  int64
	selfNs int64
}

// spanSummary is what analyse derives from a run's spans.
type spanSummary struct {
	byName  [numSpanNames + 1]spanStats
	orphans int64
	total   int64
	// docDurNs sums client.doc durations; docSelfNs sums the self times of
	// every named span inside a client.doc tree. They are equal when the
	// named spans cover the whole request path.
	docDurNs, docSelfNs int64
}

// analyse computes self times: a span's duration minus the part of its
// interval its children cover. A span whose parent is not in the set is
// an orphan.
func analyse(spans []span) spanSummary {
	var sum spanSummary
	sum.total = int64(len(spans))
	index := make(map[uint64]int, len(spans))
	for i, s := range spans {
		index[s.ID] = i
	}
	children := make(map[uint64][]int, len(spans))
	for i, s := range spans {
		if s.Parent == 0 {
			continue
		}
		if _, ok := index[s.Parent]; !ok {
			sum.orphans++
			continue
		}
		children[s.Parent] = append(children[s.Parent], i)
	}
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self := s.End - s.Start - covered
		st := &sum.byName[s.Name]
		st.count++
		st.selfNs += self
		if s.Name == spClientDoc {
			sum.docDurNs += s.End - s.Start
		}
		if root, ok := index[s.Req]; ok && spans[root].Name == spClientDoc && s.Name != spOther {
			sum.docSelfNs += self
		}
	}
	return sum
}

// writeSpans dumps the spans as JSON, with the name table first.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Names [numSpanNames + 1]string `json:"names"`
		Spans []span                   `json:"spans"`
	}{spanNames, spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
