package node

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"cachecloud/internal/admit"
	"cachecloud/internal/document"
	"cachecloud/internal/obs"
	"cachecloud/internal/tenant"
)

const (
	// maxUnregisteredTenants is how many IDs that no quota names get
	// conservation counters of their own: any client can invent an ID.
	maxUnregisteredTenants = 64
	// overflowTenant is the entry the rest are counted under, in /stats and
	// /metrics too; requests that give this very ID land there as well.
	overflowTenant = "(other)"
)

// tenantCounters holds the per-tenant conservation counters. A nil
// receiver (tenancy disabled) turns every method into a no-op so the
// single-tenant request path pays nothing. The tenants registered when the
// node started, the default tenant and overflowTenant are in fixed, which
// is never written again and read without the lock.
type tenantCounters struct {
	fixed map[string]*tenantCount
	mu    sync.Mutex
	extra map[string]*tenantCount // at most maxUnregisteredTenants
}

// tenantCount is one entry: requests, and the three things that become of one.
type tenantCount [4]atomic.Int64

const (
	tcRequests = iota
	tcServed
	tcShed
	tcFailed
)

func newTenantCounters(registered []string) *tenantCounters {
	tc := &tenantCounters{fixed: make(map[string]*tenantCount), extra: make(map[string]*tenantCount)}
	for _, id := range append(registered, tenant.Default, overflowTenant) {
		tc.fixed[id] = &tenantCount{}
	}
	return tc
}

// add counts one event for a tenant: under its own entry if it has or can
// still get one, else under overflowTenant.
func (tc *tenantCounters) add(id string, kind int) {
	if tc == nil {
		return
	}
	c := tc.fixed[id]
	if c == nil {
		tc.mu.Lock()
		if c = tc.extra[id]; c == nil {
			if c = tc.fixed[overflowTenant]; len(tc.extra) < maxUnregisteredTenants {
				c = &tenantCount{}
				tc.extra[id] = c
			}
		}
		tc.mu.Unlock()
	}
	c[kind].Add(1)
}

func (tc *tenantCounters) request(id string) { tc.add(id, tcRequests) }
func (tc *tenantCounters) served(id string)  { tc.add(id, tcServed) }
func (tc *tenantCounters) shed(id string)    { tc.add(id, tcShed) }
func (tc *tenantCounters) failed(id string)  { tc.add(id, tcFailed) }

// initTenancy turns on multi-tenant admission when the cluster config
// carries tenant quotas: a weighted fair share of the admission capacity
// per tenant, per-tenant resident-byte caps on the store, and per-tenant
// conservation counters. With no tenants configured the node runs the
// classic single-tenant path untouched.
func (n *CacheNode) initTenancy() {
	if len(n.cfg.Tenants) == 0 {
		return
	}
	reg, _ := tenant.NewRegistry(n.cfg.Tenants) // check accepted every entry
	n.tenants = reg
	n.fair = tenant.NewFairShare(reg, n.cfg.MaxInflight)
	n.store.SetTenantQuotas(reg)
	n.tenantCounts = newTenantCounters(reg.IDs())
}

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
// A shield names itself (shield), so that the origin clears only its own
// declined updates (originDoc.declined); a cache node names no shield.
func originFetchJSON(ctx context.Context, tp Transport, originAddr, key, shield string) (FetchResponse, error) {
	_, plain := document.SplitTenantKey(key)
	target := originAddr + "/fetch?url=" + queryEscape(plain)
	if shield != "" {
		target += "&shield=" + queryEscape(shield)
	}
	var fr FetchResponse
	if err := tp.GetJSON(ctx, target, &fr); err != nil {
		return FetchResponse{}, err
	}
	fr.Doc.URL = key
	return fr, nil
}

// tenantAcquire charges one admission unit to the tenant's weighted fair
// share. The returned release is a no-op when tenancy is off, and for a
// tenant no quota names: it has no share to be held to, and an ID anyone can
// invent leaves no state behind.
func (n *CacheNode) tenantAcquire(id string) (func(), bool) {
	if n.fair != nil {
		if _, registered := n.tenants.Get(id); registered {
			return n.fair.TryAcquire(id)
		}
	}
	return func() {}, true
}

// refuseTenantShed terminates a /doc request refused by the weighted
// fair admission: a typed 429 carrying the tenant, counted against the
// tenant's (and the node's) shed counters. The class is nominal — the
// refusal happens at the front door, before the work is classified.
func (n *CacheNode) refuseTenantShed(w http.ResponseWriter, tid, url string) {
	n.docShed.Inc()
	n.tenantCounts.shed(tid)
	if tr := n.cfg.Tracer; tr != nil {
		tr.Emit(obs.Event{Time: n.now(), Kind: obs.EvTenantShed, Node: n.name, URL: url, Tenant: tid})
	}
	writeShed(w, &admit.ShedError{Class: admit.Hit, Reason: admit.ReasonTenantShare, Tenant: tid})
}

// TenantAdmission snapshots the per-tenant stats: conservation counters,
// the tenant's current fair share, and its resident bytes in the store.
// Registered tenants, the default one and overflowTenant — every tenant past
// the ones with counters of their own, resident bytes included — appear even
// before their first request; nil when tenancy is off.
func (n *CacheNode) TenantAdmission() map[string]TenantStats {
	if n.tenantCounts == nil {
		return nil
	}
	out := make(map[string]TenantStats)
	snapshot := func(id string, c *tenantCount) {
		// Requests last: what a request became is counted after the request.
		ts := TenantStats{Served: c[tcServed].Load(), Shed: c[tcShed].Load(), Failed: c[tcFailed].Load()}
		ts.Requests = c[tcRequests].Load()
		out[id] = ts
	}
	for id, c := range n.tenantCounts.fixed {
		snapshot(id, c)
	}
	n.tenantCounts.mu.Lock()
	for id, c := range n.tenantCounts.extra {
		snapshot(id, c)
	}
	n.tenantCounts.mu.Unlock()
	for _, id := range n.tenants.IDs() { // registered since the node started
		if _, ok := out[id]; !ok {
			out[id] = TenantStats{}
		}
	}
	for id, b := range n.store.TenantUsage() {
		if _, listed := out[id]; !listed {
			id = overflowTenant // where its requests are counted
		}
		ts := out[id]
		ts.ResidentBytes += b
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
