package node

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"

	"cachecloud/internal/admit"
	"cachecloud/internal/document"
	"cachecloud/internal/obs"
	"cachecloud/internal/tenant"
)

// tenantCounters holds the per-tenant conservation counters. A nil
// receiver (tenancy disabled) turns every method into a no-op so the
// single-tenant request path pays nothing.
type tenantCounters struct {
	mu sync.Mutex
	m  map[string]*tenantCount
}

type tenantCount struct {
	requests, served, shed, failed int64
}

func (tc *tenantCounters) bump(id string, f func(*tenantCount)) {
	if tc == nil {
		return
	}
	tc.mu.Lock()
	c := tc.m[id]
	if c == nil {
		c = &tenantCount{}
		tc.m[id] = c
	}
	f(c)
	tc.mu.Unlock()
}

func (tc *tenantCounters) request(id string) { tc.bump(id, func(c *tenantCount) { c.requests++ }) }
func (tc *tenantCounters) served(id string)  { tc.bump(id, func(c *tenantCount) { c.served++ }) }
func (tc *tenantCounters) shed(id string)    { tc.bump(id, func(c *tenantCount) { c.shed++ }) }
func (tc *tenantCounters) failed(id string)  { tc.bump(id, func(c *tenantCount) { c.failed++ }) }

// initTenancy turns on multi-tenant admission when the cluster config
// carries tenant quotas: a weighted fair share of the admission capacity
// per tenant, per-tenant resident-byte caps on the store, and per-tenant
// conservation counters. With no tenants configured the node runs the
// classic single-tenant path untouched.
func (n *CacheNode) initTenancy() error {
	if len(n.cfg.Tenants) == 0 {
		return nil
	}
	reg, err := tenant.NewRegistry(n.cfg.Tenants)
	if err != nil {
		return fmt.Errorf("node %s: %w", n.name, err)
	}
	maxInflight := n.cfg.MaxInflight
	if maxInflight <= 0 {
		maxInflight = DefaultMaxInflight
	}
	n.tenants = reg
	n.fair = tenant.NewFairShare(reg, maxInflight)
	n.store.SetTenantQuotas(reg)
	n.tenantCounts = &tenantCounters{m: make(map[string]*tenantCount)}
	return nil
}

// TenantRegistry returns the live quota registry (nil when tenancy is
// off). Quota changes through it take effect on the next admission or
// Put; shrinking a byte quota below residency needs an
// EnforceTenantQuotas sweep on the store to reclaim.
func (n *CacheNode) TenantRegistry() *tenant.Registry { return n.tenants }

// tenantFromRequest extracts and validates the tenant ID a client
// stamped on the request ("" = default tenant).
func tenantFromRequest(r *http.Request) (string, error) {
	id := r.Header.Get(TenantHeader)
	if id == "" {
		return "", nil
	}
	if !tenant.ValidID(id) {
		return "", fmt.Errorf("node: invalid tenant id %q", id)
	}
	return id, nil
}

// foldTenantParam returns the tenant-scoped document key for a handler's
// url parameter: peer calls pass already-scoped keys with no header, a
// client call carries the header and gets its URL folded here.
func foldTenantParam(r *http.Request, url string) (string, error) {
	id, err := tenantFromRequest(r)
	if err != nil {
		return "", err
	}
	return document.TenantKey(id, url), nil
}

// originFetchJSON fetches a (possibly tenant-scoped) document key from
// the origin. The origin serves a single tenant-agnostic catalog of
// plain URLs, so the key is unscoped on the wire and the returned
// document is re-keyed to the scoped key — the caller stores it inside
// the tenant's key space without the origin ever learning about tenants.
func originFetchJSON(ctx context.Context, tp Transport, originAddr, key string) (FetchResponse, error) {
	_, plain := document.SplitTenantKey(key)
	var fr FetchResponse
	if err := tp.GetJSON(ctx, originAddr+"/fetch?url="+queryEscape(plain), &fr); err != nil {
		return FetchResponse{}, err
	}
	fr.Doc.URL = key
	return fr, nil
}

// tenantAcquire charges one admission unit to the tenant's weighted fair
// share. The returned release is a no-op when tenancy is off.
func (n *CacheNode) tenantAcquire(id string) (func(), bool) {
	if n.fair == nil {
		return func() {}, true
	}
	return n.fair.TryAcquire(id)
}

// refuseTenantShed terminates a /doc request refused by the weighted
// fair admission: a typed 429 carrying the tenant, counted against the
// tenant's (and the node's) shed counters. The class is nominal — the
// refusal happens at the front door, before the work is classified.
func (n *CacheNode) refuseTenantShed(w http.ResponseWriter, tid, url string) {
	n.docShed.Inc()
	n.tenantCounts.shed(tid)
	if tr := n.Tracer(); tr != nil {
		tr.Emit(obs.Event{Time: n.now(), Kind: obs.EvTenantShed, Node: n.name, URL: url, Tenant: tid})
	}
	writeShed(w, &admit.ShedError{Class: admit.Hit, Reason: admit.ReasonTenantShare, Tenant: tid})
}

// TenantAdmission snapshots the per-tenant stats: conservation counters,
// the tenant's current fair share, and its resident bytes in the store.
// Registered tenants appear even before their first request; nil when
// tenancy is off.
func (n *CacheNode) TenantAdmission() map[string]TenantStats {
	if n.tenantCounts == nil {
		return nil
	}
	out := make(map[string]TenantStats)
	n.tenantCounts.mu.Lock()
	for id, c := range n.tenantCounts.m {
		out[id] = TenantStats{Requests: c.requests, Served: c.served, Shed: c.shed, Failed: c.failed}
	}
	n.tenantCounts.mu.Unlock()
	for _, id := range n.tenants.IDs() {
		if _, ok := out[id]; !ok {
			out[id] = TenantStats{}
		}
	}
	for id, b := range n.store.TenantUsage() {
		ts := out[id]
		ts.ResidentBytes = b
		out[id] = ts
	}
	for id := range out {
		ts := out[id]
		ts.Share = n.fair.Share(id)
		out[id] = ts
	}
	return out
}

// renderTenantMetrics appends the per-tenant counters to the Prometheus
// text body with a proper tenant label (the registry's fixed-label model
// cannot vary labels per series, so these lines are rendered by hand).
// quota_evictions_total appears only here, not in /stats: a tenant whose
// count climbs with its requests is thrashing against its byte quota.
func (n *CacheNode) renderTenantMetrics(b *strings.Builder) {
	stats := n.TenantAdmission()
	if stats == nil {
		return
	}
	ids := make([]string, 0, len(stats))
	for id := range stats {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	quotaEvictions := n.store.TenantQuotaEvictions()
	for _, id := range ids {
		ts := stats[id]
		labels := fmt.Sprintf("{node=%q,tenant=%q}", n.name, id)
		fmt.Fprintf(b, "cachecloud_node_tenant_requests_total%s %d\n", labels, ts.Requests)
		fmt.Fprintf(b, "cachecloud_node_tenant_served_total%s %d\n", labels, ts.Served)
		fmt.Fprintf(b, "cachecloud_node_tenant_shed_total%s %d\n", labels, ts.Shed)
		fmt.Fprintf(b, "cachecloud_node_tenant_failed_total%s %d\n", labels, ts.Failed)
		fmt.Fprintf(b, "cachecloud_node_tenant_share%s %d\n", labels, ts.Share)
		fmt.Fprintf(b, "cachecloud_node_tenant_resident_bytes%s %d\n", labels, ts.ResidentBytes)
		fmt.Fprintf(b, "cachecloud_node_tenant_quota_evictions_total%s %d\n", labels, quotaEvictions[id])
	}
}
