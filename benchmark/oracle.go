package main

import (
	"fmt"
	"sync"
	"sync/atomic"

	"cachecloud/internal/document"
	"cachecloud/internal/node"
)

// oracle checks every /doc reply against what the generator knows.
//
// Default-tenant copies are kept fresh by the update protocol: a reply's
// version must be at least the highest version a /publish had acknowledged
// before the request was sent. Named tenants' copies live under their own
// keys, which no publish reaches, so they are version-sticky by design;
// for them a node's version of a document must never regress.
type oracle struct {
	catalog []document.Document
	// acked[doc] is the highest version a /publish reply has carried.
	acked []atomic.Uint64
	// seen[tenant-1][node][doc] is the highest version that node has
	// served that tenant.
	seen [][][]atomic.Uint64

	wrongKey atomic.Int64 // reply named another tenant or URL
	stale    atomic.Int64 // default tenant served below the acknowledged version
	regress  atomic.Int64 // named tenant's version went backwards at a node

	once  sync.Once
	first string // the first violation, for the failure message
}

func newOracle(catalog []document.Document, tenants bool) *oracle {
	o := &oracle{catalog: catalog, acked: make([]atomic.Uint64, len(catalog))}
	if tenants {
		o.seen = make([][][]atomic.Uint64, len(tenantIDs)-1)
		for t := range o.seen {
			o.seen[t] = make([][]atomic.Uint64, numNodes)
			for n := range o.seen[t] {
				o.seen[t][n] = make([]atomic.Uint64, len(catalog))
			}
		}
	}
	return o
}

func (o *oracle) cell(p op) *atomic.Uint64 {
	if p.tenant == 0 {
		return &o.acked[p.doc]
	}
	return &o.seen[p.tenant-1][p.node][p.doc]
}

// floor is read before a request is sent: the lowest version its reply may
// carry.
func (o *oracle) floor(p op) uint64 { return o.cell(p).Load() }

// raise lifts a cell to v if v is higher.
func raise(c *atomic.Uint64, v uint64) {
	for {
		cur := c.Load()
		if v <= cur || c.CompareAndSwap(cur, v) {
			return
		}
	}
}

// publishAcked records a /publish reply.
func (o *oracle) publishAcked(p op, v document.Version) { raise(&o.acked[p.doc], uint64(v)) }

// checkDoc judges one 200 reply; false is a violation.
func (o *oracle) checkDoc(p op, floor uint64, dr node.DocResponse) bool {
	wantTenant, wantURL := tenantIDs[p.tenant], o.catalog[p.doc].URL
	gotTenant, gotURL := document.SplitTenantKey(dr.Doc.URL)
	v := uint64(dr.Doc.Version)
	switch {
	case gotTenant != wantTenant || gotURL != wantURL:
		o.wrongKey.Add(1)
		o.note("asked (%q, %s), reply is for (%q, %s)", wantTenant, wantURL, gotTenant, gotURL)
		return false
	case v < floor && p.tenant == 0:
		o.stale.Add(1)
		o.note("%s served at version %d after version %d was acknowledged", wantURL, v, floor)
		return false
	case v < floor:
		o.regress.Add(1)
		o.note("tenant %q: %s went from version %d back to %d at node %d", wantTenant, wantURL, floor, v, p.node)
		return false
	}
	if p.tenant != 0 {
		raise(o.cell(p), v)
	}
	return true
}

func (o *oracle) note(format string, args ...any) {
	o.once.Do(func() { o.first = fmt.Sprintf(format, args...) })
}

func (o *oracle) violations() int64 {
	return o.wrongKey.Load() + o.stale.Load() + o.regress.Load()
}
