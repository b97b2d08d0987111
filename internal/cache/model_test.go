package cache

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"cachecloud/internal/document"
	"cachecloud/internal/durable"
	"cachecloud/internal/loadstats"
)

// modelCache is the cache written down as plainly as it can be: a map of
// stored copies, each with the (key, seq) pair its replacement policy orders
// it by, a map of monitors for every URL ever asked for, and a scan of the
// whole store for every victim. It uses only what the package exports (and
// loadstats for the rate arithmetic), so the test below runs unchanged
// against any layout of Cache.
type modelCache struct {
	kind     ReplacementKind
	capacity int64
	quotas   TenantQuotas
	stored   map[string]*modelDoc
	monitors map[string]*loadstats.EWRate
	used     int64
	tenants  map[string]int64
	seq      uint64
	clock    float64  // GDS
	durable  []string // every disk-tier call, in order
}

type modelDoc struct {
	cp   document.Copy
	key  float64
	seq  uint64
	size int64 // as of the last store: GDS prices a hit by it
}

var modelHalfLife = loadstats.NewHalfLife(60)

func modelTenant(key string) string {
	tenant, _ := document.SplitTenantKey(key)
	return tenant
}

func durablePut(cp document.Copy) string {
	return fmt.Sprintf("put %s v%d %dB @%d", cp.Doc.URL, cp.Doc.Version, cp.Doc.Size, cp.FetchedAt)
}

// coldFirst returns the stored documents, next victim first.
func (m *modelCache) coldFirst() []*modelDoc {
	docs := make([]*modelDoc, 0, len(m.stored))
	for _, d := range m.stored {
		docs = append(docs, d)
	}
	slices.SortFunc(docs, func(a, b *modelDoc) int {
		if c := cmp.Compare(a.key, b.key); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	})
	return docs
}

func (m *modelCache) documents() []string {
	docs := m.coldFirst()
	slices.Reverse(docs)
	urls := make([]string, len(docs))
	for i, d := range docs {
		urls[i] = d.cp.Doc.URL
	}
	return urls
}

// touch is a store over the document's own copy, or a hit.
func (m *modelCache) touch(d *modelDoc, stored bool) {
	if stored {
		d.size = d.cp.Doc.Size
	}
	switch m.kind {
	case LFU:
		d.key++
	case GreedyDualSize:
		d.key = m.clock + 1/float64(max(d.size, 1))
	}
	m.seq++
	d.seq = m.seq
}

func (m *modelCache) quotaOf(tenant string) int64 {
	if m.quotas == nil {
		return 0
	}
	return m.quotas.ByteQuota(tenant)
}

func (m *modelCache) addBytes(tenant string, delta int64) {
	m.used += delta
	if m.tenants[tenant] += delta; m.tenants[tenant] <= 0 {
		delete(m.tenants, tenant)
	}
}

func (m *modelCache) remove(d *modelDoc) document.Document {
	url := d.cp.Doc.URL
	delete(m.stored, url)
	m.addBytes(modelTenant(url), -d.cp.Doc.Size)
	m.durable = append(m.durable, "delete "+url)
	return d.cp.Doc
}

// victim is the coldest stored document other than protect, among one
// tenant's when ofTenant is set.
func (m *modelCache) victim(ofTenant bool, tenant, protect string) *modelDoc {
	for _, d := range m.coldFirst() {
		if url := d.cp.Doc.URL; url != protect && (!ofTenant || modelTenant(url) == tenant) {
			return d
		}
	}
	return nil
}

// tenantRoom evicts the tenant's own documents until it fits its quota.
func (m *modelCache) tenantRoom(tenant, protect string) []document.Document {
	var evicted []document.Document
	for quota := m.quotaOf(tenant); quota > 0 && m.tenants[tenant] > quota; {
		d := m.victim(true, tenant, protect)
		if d == nil {
			break
		}
		evicted = append(evicted, m.remove(d))
	}
	return evicted
}

// makeRoom evicts first under the tenant's quota, then under the byte
// budget, never the protected document. Only a capacity victim moves the
// GDS clock.
func (m *modelCache) makeRoom(tenant, protect string) []document.Document {
	evicted := m.tenantRoom(tenant, protect)
	for m.capacity > 0 && m.used > m.capacity {
		d := m.victim(false, "", protect)
		if d == nil {
			break
		}
		if m.kind == GreedyDualSize && d.key > m.clock {
			m.clock = d.key
		}
		evicted = append(evicted, m.remove(d))
	}
	return evicted
}

func (m *modelCache) get(url string, now int64) (document.Copy, bool) {
	mon := m.monitors[url]
	if mon == nil {
		mon = new(loadstats.EWRate)
		m.monitors[url] = mon
	}
	mon.Observe(modelHalfLife, now, 1)
	d, ok := m.stored[url]
	if !ok {
		return document.Copy{}, false
	}
	m.touch(d, false)
	return d.cp, true
}

func (m *modelCache) put(cp document.Copy) ([]document.Document, error) {
	url, size, tenant := cp.Doc.URL, cp.Doc.Size, modelTenant(cp.Doc.URL)
	if m.capacity > 0 && size > m.capacity {
		return nil, ErrTooLarge
	}
	if quota := m.quotaOf(tenant); quota > 0 && size > quota {
		return nil, ErrTenantQuota
	}
	if d, ok := m.stored[url]; ok {
		m.addBytes(tenant, size-d.cp.Doc.Size)
		d.cp = cp
		m.touch(d, true)
	} else {
		m.addBytes(tenant, size)
		m.seq++
		d = &modelDoc{cp: cp, seq: m.seq, size: size}
		switch m.kind {
		case LFU:
			d.key = 1
		case GreedyDualSize:
			d.key = m.clock + 1/float64(max(size, 1))
		}
		m.stored[url] = d
	}
	m.durable = append(m.durable, durablePut(cp))
	return m.makeRoom(tenant, url), nil
}

func (m *modelCache) applyUpdate(doc document.Document, now int64) bool {
	d, ok := m.stored[doc.URL]
	if !ok || d.cp.Doc.Version >= doc.Version {
		return ok
	}
	tenant := modelTenant(doc.URL)
	if quota := m.quotaOf(tenant); quota > 0 && doc.Size > quota {
		m.remove(d)
		return false
	}
	m.addBytes(tenant, doc.Size-d.cp.Doc.Size)
	d.cp = document.Copy{Doc: doc, FetchedAt: now}
	m.durable = append(m.durable, durablePut(d.cp))
	m.makeRoom(tenant, doc.URL)
	return true
}

func (m *modelCache) enforce() []document.Document {
	tenants := make([]string, 0, len(m.tenants))
	for t := range m.tenants {
		tenants = append(tenants, t)
	}
	slices.Sort(tenants)
	var evicted []document.Document
	for _, t := range tenants {
		evicted = append(evicted, m.tenantRoom(t, "")...)
	}
	return evicted
}

func (m *modelCache) accessRate(url string, now int64) float64 {
	if mon := m.monitors[url]; mon != nil {
		return mon.Rate(modelHalfLife, now)
	}
	return 0
}

// durableLog records the disk-tier calls a cache makes.
type durableLog struct{ calls []string }

func (l *durableLog) Put(cp document.Copy) error {
	l.calls = append(l.calls, durablePut(cp))
	return nil
}

func (l *durableLog) Delete(url string) error {
	l.calls = append(l.calls, "delete "+url)
	return nil
}

// TestCacheMatchesMapModel drives a cache and the model through the same
// random schedule and requires, after every step, the same answers, the
// same evictions in the same order, the same stored set in the same
// Documents() order, the same byte counts, the same access rate to the bit
// and the same disk-tier calls — for every replacement kind, with and
// without tenant quotas.
func TestCacheMatchesMapModel(t *testing.T) {
	const (
		seeds    = 20
		steps    = 2500
		capacity = 6000
	)
	tenants := []string{"", "t1", "t2", "t3"}
	for _, kind := range allKinds {
		for _, withQuotas := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/quotas=%v", kind, withQuotas), func(t *testing.T) {
				for seed := int64(1); seed <= seeds; seed++ {
					rng := rand.New(rand.NewSource(seed*131 + int64(kind)))
					c := NewWithReplacement("got", capacity, kind)
					log := &durableLog{}
					c.SetDurable(durable.NewQueue(log))
					m := &modelCache{
						kind: kind, capacity: capacity,
						stored:   map[string]*modelDoc{},
						monitors: map[string]*loadstats.EWRate{},
						tenants:  map[string]int64{},
					}
					quotas := quotaTable{}
					if withQuotas {
						quotas["t1"] = 900
						c.SetTenantQuotas(quotas)
						m.quotas = quotas
					}
					versions := map[string]document.Version{}
					key := func() string {
						return document.TenantKey(tenants[rng.Intn(len(tenants))], fmt.Sprintf("http://o/d%d", rng.Intn(30)))
					}
					size := func() int64 {
						switch r := rng.Intn(100); {
						case r == 0:
							return capacity + 1 // never fits
						case r < 3:
							return 0
						}
						return int64(rng.Intn(400) + 1)
					}
					var quotaEvictions int
					for step := 0; step < steps; step++ {
						now := int64(step / 3)
						fail := func(format string, args ...any) {
							t.Helper()
							t.Fatalf("seed %d step %d: %s", seed, step, fmt.Sprintf(format, args...))
						}
						var gotEv, wantEv []document.Document
						switch r := rng.Intn(100); {
						case r < 32:
							k := key()
							gotCp, gotOK := c.Get(k, now)
							wantCp, wantOK := m.get(k, now)
							if gotOK != wantOK || gotCp != wantCp {
								fail("get %q: %v %v, model %v %v", k, gotCp, gotOK, wantCp, wantOK)
							}
						case r < 62:
							k := key()
							versions[k]++
							cp := document.Copy{Doc: document.Document{URL: k, Size: size(), Version: versions[k]}, FetchedAt: now}
							var gotErr, wantErr error
							gotEv, gotErr = c.Put(cp, now)
							wantEv, wantErr = m.put(cp)
							if !errors.Is(gotErr, wantErr) {
								fail("put %q %dB: err %v, model %v", k, cp.Doc.Size, gotErr, wantErr)
							}
						case r < 74:
							k := key()
							if rng.Intn(4) > 0 {
								versions[k]++ // else a version the cache may already hold
							}
							doc := document.Document{URL: k, Size: size(), Version: versions[k]}
							if g, w := c.ApplyUpdate(doc, now), m.applyUpdate(doc, now); g != w {
								fail("update %q to %dB: held %v, model %v", k, doc.Size, g, w)
							}
						case r < 82:
							k := key()
							d, present := m.stored[k]
							if present {
								m.remove(d)
							}
							if g := c.Remove(k); g != present {
								fail("remove %q: present %v, model %v", k, g, present)
							}
						case r < 90:
							k := key()
							g, w := c.AccessRate(k, now), m.accessRate(k, now)
							if math.Float64bits(g) != math.Float64bits(w) {
								fail("access rate of %q: %v, model %v", k, g, w)
							}
						case r < 96 && withQuotas:
							tenant := tenants[rng.Intn(len(tenants))]
							switch q := quotas[tenant]; {
							case q == 0:
								quotas[tenant] = int64(rng.Intn(2000) + 200)
							case rng.Intn(3) == 0:
								delete(quotas, tenant)
							default:
								quotas[tenant] = q/2 + 1
							}
						default:
							gotEv, wantEv = c.EnforceTenantQuotas(now), m.enforce()
						}
						if !slices.Equal(gotEv, wantEv) {
							fail("evicted %v, model %v", gotEv, wantEv)
						}
						want := m.documents()
						if g := c.Documents(); !slices.Equal(g, want) {
							fail("documents %q, model %q", g, want)
						}
						for _, u := range want {
							if cp, ok := c.Peek(u); !ok || cp != m.stored[u].cp {
								fail("stored copy of %q: %v %v, model %v", u, cp, ok, m.stored[u].cp)
							}
						}
						if c.Len() != len(m.stored) || c.Used() != m.used {
							fail("%d documents in %dB, model %d in %dB", c.Len(), c.Used(), len(m.stored), m.used)
						}
						for _, tenant := range tenants {
							if g, w := c.TenantUsed(tenant), m.tenants[tenant]; g != w {
								fail("tenant %q holds %dB, model %dB", tenant, g, w)
							}
						}
						if !slices.Equal(log.calls, m.durable) {
							fail("disk-tier calls\n got %q\nwant %q", log.calls, m.durable)
						}
						log.calls, m.durable = log.calls[:0], m.durable[:0]
					}
					for _, n := range c.TenantQuotaEvictions() {
						quotaEvictions += int(n)
					}
					if withQuotas && quotaEvictions < 30 {
						t.Fatalf("seed %d: %d quota evictions, the schedule does not exercise them", seed, quotaEvictions)
					}
				}
			})
		}
	}
}
