package node

import (
	"context"
	"errors"
	"net/http"
	"strconv"
	"time"

	"cachecloud/internal/admit"
	"cachecloud/internal/document"
	"cachecloud/internal/obs"
)

// Admission-control defaults (overridable via ClusterConfig).
const (
	// DefaultMaxInflight is the node-wide weighted admission capacity.
	DefaultMaxInflight = 64
	// DefaultMissQueue bounds queued miss-class waiters.
	DefaultMissQueue = 32
)

// admitClock adapts the node Clock to the admit package's interface.
type admitClock struct{ c Clock }

func (a admitClock) Now() time.Time { return a.c.Now() }

func (a admitClock) AfterFunc(d time.Duration, f func()) admit.Timer {
	return a.c.AfterFunc(d, f)
}

// flightKey identifies one coalescable origin fetch: all concurrent
// misses for the same document hash at the same known version share one
// wire fetch.
type flightKey struct {
	hash    document.Hash
	version document.Version
}

// initAdmission builds the node's overload-resilience layer from its
// cluster config: the weighted class-priority gate, the adaptive
// origin-fetch limiter, and the miss coalescer.
func (n *CacheNode) initAdmission() {
	limMax := n.cfg.MaxInflight / admit.Miss.Weight() // at least 1: check refuses less
	clock := admitClock{n.clock}
	n.gate = admit.NewGate(admit.GateOptions{
		Capacity: n.cfg.MaxInflight,
		QueueCap: [3]int{admit.Hit: 0, admit.Lookup: 0, admit.Miss: n.cfg.MissQueue},
		Clock:    clock,
	})
	n.limiter = admit.NewLimiter(admit.LimiterOptions{
		Max:      limMax,
		QueueCap: n.cfg.MissQueue,
		Clock:    clock,
	})
	n.flights = admit.NewCoalescer[flightKey, document.Document]()
}

// initAdmissionMetrics registers the overload layer's counters and
// gauges (called from initMetrics, after initAdmission).
func (n *CacheNode) initAdmissionMetrics(reg *obs.Registry) {
	n.docRequests = reg.Counter("requests_total")
	n.docServed = reg.Counter("served_total")
	n.docShed = reg.Counter("doc_shed_total")
	n.docFailed = reg.Counter("failed_total")
	n.shedByClass[admit.Hit] = reg.Counter("shed_hit_total")
	n.shedByClass[admit.Lookup] = reg.Counter("shed_lookup_total")
	n.shedByClass[admit.Miss] = reg.Counter("shed_miss_total")
	n.originFetches = reg.Counter("origin_fetch_total")
	n.coalescedMiss = reg.Counter("coalesced_fetch_total")
	reg.GaugeFunc("origin_fetch_limit", func() float64 { return float64(n.limiter.Limit()) })
	reg.GaugeFunc("origin_fetch_inflight", func() float64 { return float64(n.limiter.InFlight()) })
	reg.GaugeFunc("admit_inflight_weight", func() float64 { return float64(n.gate.InFlight()) })
	reg.GaugeFunc("admit_queued", func() float64 { return float64(n.gate.QueuedTotal()) })
}

// requestContext derives a handler context from the propagated deadline
// header, when present: the remaining budget the caller stamped becomes
// this hop's deadline, so queue waiters whose caller gave up are
// cancelled instead of consuming slots.
func requestContext(r *http.Request) (context.Context, context.CancelFunc) {
	if v := r.Header.Get(DeadlineHeader); v != "" {
		if ms, err := strconv.ParseInt(v, 10, 64); err == nil && ms > 0 {
			return context.WithTimeout(r.Context(), time.Duration(ms)*time.Millisecond)
		}
	}
	return r.Context(), func() {}
}

// writeShed renders a typed 429 shed reply with Retry-After hints (the
// standard whole-second header plus the millisecond one peers parse).
func writeShed(w http.ResponseWriter, se *admit.ShedError) {
	ra := se.RetryAfter
	if ra <= 0 {
		ra = 50 * time.Millisecond
	}
	secs := int64((ra + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	w.Header().Set(RetryAfterMsHeader, strconv.FormatInt(int64(ra/time.Millisecond), 10))
	body := map[string]string{
		"error":  se.Error(),
		"class":  se.Class.String(),
		"reason": se.Reason,
	}
	if se.Tenant != "" {
		body["tenant"] = se.Tenant
	}
	writeJSON(w, http.StatusTooManyRequests, body)
}

// noteShed counts one shed decision of class c and traces it.
func (n *CacheNode) noteShed(c admit.Class, url string) {
	n.shedByClass[c].Inc()
	if tr := n.cfg.Tracer; tr != nil {
		tr.Emit(obs.Event{Time: n.now(), Kind: obs.EvShed, Node: n.name, URL: url})
	}
}

// shedOf converts any admission refusal into the *ShedError to send on
// the wire: local sheds pass through; a shed propagated from a peer
// (ErrShed from the transport) is re-issued with the peer's Retry-After
// hint; everything else is not a shed (ok = false).
func shedOf(err error, class admit.Class) (*admit.ShedError, bool) {
	var se *admit.ShedError
	if errors.As(err, &se) {
		return se, true
	}
	if ra, ok := ShedRetryAfter(err); ok {
		return &admit.ShedError{Class: class, Reason: admit.ReasonLimit, RetryAfter: ra}, true
	}
	return nil, false
}

// refuseDoc terminates a /doc request on an admission or retrieval
// error, keeping the conservation counters exact — node-wide and for the
// requesting tenant: a shed answers 429 (counted as Shed); a URL the origin
// does not know answers 404 and takes the monitor the miss created with it,
// a caller-deadline expiry answers 504 and anything else 502 (all three
// counted as Failed).
func (n *CacheNode) refuseDoc(w http.ResponseWriter, tid, url string, class admit.Class, err error) {
	if se, ok := shedOf(err, class); ok {
		n.docShed.Inc()
		n.tenantCounts.shed(tid)
		n.noteShed(class, url)
		writeShed(w, se)
		return
	}
	n.docFailed.Inc()
	n.tenantCounts.failed(tid)
	status := http.StatusBadGateway
	if errors.Is(err, ErrNotFound) {
		status = http.StatusNotFound
		n.store.Forget(url)
	} else if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		status = http.StatusGatewayTimeout
	}
	writeErr(w, status, err)
}

// refuseServe terminates a beacon-duty or peer-serve request (/lookup,
// /fetch) on an admission error. These are not client /doc requests, so
// only the class shed counters move.
func (n *CacheNode) refuseServe(w http.ResponseWriter, url string, class admit.Class, err error) {
	if se, ok := shedOf(err, class); ok {
		n.noteShed(class, url)
		writeShed(w, se)
		return
	}
	status := http.StatusBadGateway
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		status = http.StatusGatewayTimeout
	}
	writeErr(w, status, err)
}

// originFetch retrieves url from the origin under the full miss-class
// overload controls: concurrent misses for the same (hash, version)
// coalesce onto one wire fetch; the leader holds a miss-class gate slot
// and an adaptive-limiter token for the duration, and reports the
// observed origin latency back to the limiter. A 404 is the origin
// answering, so the limiter hears of it as a success.
func (n *CacheNode) originFetch(ctx context.Context, url string, version document.Version) (document.Document, error) {
	key := flightKey{hash: document.HashURL(url), version: version}
	doc, shared, err := n.flights.Do(ctx, key, func() (document.Document, error) {
		gateRelease, err := n.gate.Acquire(ctx, admit.Miss)
		if err != nil {
			return document.Document{}, err
		}
		defer gateRelease()
		limRelease, err := n.limiter.Acquire(ctx)
		if err != nil {
			return document.Document{}, err
		}
		t0 := n.clock.Now()
		fr, ferr := n.fetchUpstream(ctx, url, version)
		limRelease(n.clock.Since(t0), ferr == nil || errors.Is(ferr, ErrNotFound))
		if ferr != nil {
			return document.Document{}, ferr
		}
		n.originFetches.Inc()
		return fr.Doc, nil
	})
	if shared && err == nil {
		n.coalescedMiss.Inc()
		if tr := n.cfg.Tracer; tr != nil {
			tr.Emit(obs.Event{Time: n.now(), Kind: obs.EvCoalesced, Node: n.name, URL: url})
		}
	}
	if err != nil {
		return document.Document{}, err
	}
	return doc, nil
}

// AdmissionStats is a white-box snapshot of the overload layer, used by
// the deterministic harness's conservation invariant and the chaos
// storm test.
type AdmissionStats struct {
	Requests, Served, Shed, Failed int64
	OriginFetches, Coalesced       int64
	ShedByClass                    [3]int64
	Limit, LimiterInFlight         int
	GateInFlight, GateQueued       int
	LimiterQueued                  int
	FlightsActive                  int
}

// Admission returns the current overload-layer snapshot.
func (n *CacheNode) Admission() AdmissionStats {
	st := AdmissionStats{
		Requests:        n.docRequests.Value(),
		Served:          n.docServed.Value(),
		Shed:            n.docShed.Value(),
		Failed:          n.docFailed.Value(),
		OriginFetches:   n.originFetches.Value(),
		Coalesced:       n.coalescedMiss.Value(),
		Limit:           n.limiter.Limit(),
		LimiterInFlight: n.limiter.InFlight(),
		GateInFlight:    n.gate.InFlight(),
		GateQueued:      n.gate.QueuedTotal(),
		LimiterQueued:   n.limiter.Queued(),
		FlightsActive:   n.flights.Active(),
	}
	for _, c := range admit.Classes() {
		st.ShedByClass[c] = n.shedByClass[c].Value()
	}
	return st
}
