package cache

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"cachecloud/internal/document"
)

var allKinds = []ReplacementKind{LRU, LFU, GreedyDualSize}

// scanPolicy is the reference for tenantVictim: the selection
// makeTenantRoom made before the policies kept tenant sub-orders. It walks
// ordered() from the cold end to the first key of the tenant that is not
// protected, so it reads only the full order and builds no sub-order. The
// cache it serves finds the key's slot (the caller holds its lock).
type scanPolicy struct {
	replacementPolicy
	c *Cache
}

func (s scanPolicy) tenantVictim(tenant string, protect *slot) *slot {
	ordered := s.ordered()
	for i := len(ordered) - 1; i >= 0; i-- {
		if v := s.c.entries[ordered[i]]; v != protect && tenantOf(ordered[i]) == tenant {
			return v
		}
	}
	return nil
}

// tenantSubOrders returns every tenant sub-order the policy keeps, each in
// decreasing keep-priority.
func tenantSubOrders(t *testing.T, p replacementPolicy) map[string][]string {
	t.Helper()
	out := map[string][]string{}
	var subs tenantOrders
	switch p := p.(type) {
	case *lruPolicy:
		subs = p.subs
	case *keyedPolicy:
		subs = p.subs
		checkHeap(t, "the policy's heap", &p.slotHeap, 0)
	default:
		t.Fatalf("unknown policy type %T", p)
	}
	for tenant, sub := range subs {
		checkHeap(t, fmt.Sprintf("tenant %q sub-order", tenant), sub, 1)
		out[tenant] = sub.ordered()
	}
	return out
}

// checkHeap requires h to be a heap that files positions under pos[which]
// and every slot to know its own.
func checkHeap(t *testing.T, name string, h *slotHeap, which int) {
	t.Helper()
	if h.which != which {
		t.Fatalf("%s files positions under pos[%d], want pos[%d]", name, h.which, which)
	}
	for i, s := range h.slots {
		if int(s.pos[which]) != i {
			t.Fatalf("%s: slot %q at %d believes it is at %d", name, s.cp.Doc.URL, i, s.pos[which])
		}
		if i > 0 && h.Less(i, (i-1)/2) {
			t.Fatalf("%s: slot %q at %d goes before its parent", name, s.cp.Doc.URL, i)
		}
	}
}

// checkSubOrders requires every sub-order to be non-empty and equal to the
// full order restricted to its tenant.
func checkSubOrders(t *testing.T, c *Cache) {
	t.Helper()
	full := c.Documents()
	for tenant, sub := range tenantSubOrders(t, c.policy) {
		var want []string
		for _, key := range full {
			if tenantOf(key) == tenant {
				want = append(want, key)
			}
		}
		if len(sub) == 0 {
			t.Fatalf("tenant %q keeps an empty sub-order", tenant)
		}
		if !slices.Equal(sub, want) {
			t.Fatalf("tenant %q sub-order\n got %q\nwant %q", tenant, sub, want)
		}
	}
}

func docURLs(docs []document.Document) []string {
	urls := make([]string, len(docs))
	for i, d := range docs {
		urls[i] = d.URL
	}
	return urls
}

// TestTenantVictimMatchesScanOracle drives a cache and a reference cache
// whose tenant victims come from scanPolicy through the same random
// schedule of stores, hits, updates, removals, quota changes and sweeps,
// and requires the same evictions in the same order, the same full order
// and the same per-tenant bytes after every step, for every replacement
// kind, with and without a byte budget.
func TestTenantVictimMatchesScanOracle(t *testing.T) {
	tenants := []string{"", "t1", "t2", "t3"}
	for _, kind := range allKinds {
		for _, capacity := range []int64{0, 6000} {
			t.Run(fmt.Sprintf("%v/capacity=%d", kind, capacity), func(t *testing.T) {
				for seed := int64(1); seed <= 6; seed++ {
					rng := rand.New(rand.NewSource(seed*31 + int64(kind)))
					quotas := quotaTable{"t1": 900}
					got := NewWithReplacement("got", capacity, kind)
					ref := NewWithReplacement("ref", capacity, kind)
					ref.policy = scanPolicy{ref.policy, ref}
					got.SetTenantQuotas(quotas)
					ref.SetTenantQuotas(quotas)
					versions := map[string]document.Version{}
					key := func() string {
						return document.TenantKey(tenants[rng.Intn(len(tenants))], fmt.Sprintf("http://o/d%d", rng.Intn(25)))
					}
					size := func() int64 {
						if rng.Intn(50) == 0 {
							return 0
						}
						return int64(rng.Intn(400) + 1)
					}
					for step := 0; step < 1200; step++ {
						now := int64(step)
						var gotEv, refEv []document.Document
						op := ""
						switch r := rng.Intn(100); {
						case r < 40:
							k := key()
							versions[k]++
							cp := document.Copy{Doc: document.Document{URL: k, Size: size(), Version: versions[k]}, FetchedAt: now}
							op = fmt.Sprintf("put %q %dB", k, cp.Doc.Size)
							var gotErr, refErr error
							gotEv, gotErr = got.Put(cp, now)
							refEv, refErr = ref.Put(cp, now)
							if (gotErr == nil) != (refErr == nil) || errors.Is(gotErr, ErrTenantQuota) != errors.Is(refErr, ErrTenantQuota) {
								t.Fatalf("seed %d step %d %s: err %v, reference %v", seed, step, op, gotErr, refErr)
							}
						case r < 60:
							k := key()
							op = fmt.Sprintf("get %q", k)
							_, gotOK := got.Get(k, now)
							_, refOK := ref.Get(k, now)
							if gotOK != refOK {
								t.Fatalf("seed %d step %d %s: hit %v, reference %v", seed, step, op, gotOK, refOK)
							}
						case r < 72:
							k := key()
							versions[k]++
							doc := document.Document{URL: k, Size: size(), Version: versions[k]}
							op = fmt.Sprintf("update %q to %dB", k, doc.Size)
							if g, r := got.ApplyUpdate(doc, now), ref.ApplyUpdate(doc, now); g != r {
								t.Fatalf("seed %d step %d %s: held %v, reference %v", seed, step, op, g, r)
							}
						case r < 80:
							k := key()
							op = fmt.Sprintf("remove %q", k)
							if g, r := got.Remove(k), ref.Remove(k); g != r {
								t.Fatalf("seed %d step %d %s: present %v, reference %v", seed, step, op, g, r)
							}
						case r < 94:
							tenant := tenants[rng.Intn(len(tenants))]
							switch q := quotas[tenant]; {
							case q == 0:
								quotas[tenant] = int64(rng.Intn(2000) + 200) // attached after residency
							case rng.Intn(3) == 0:
								delete(quotas, tenant)
							case rng.Intn(2) == 0:
								quotas[tenant] = q * 2
							default:
								quotas[tenant] = q/2 + 1
							}
							op = fmt.Sprintf("quota %q = %d", tenant, quotas[tenant])
						default:
							op = "enforce"
							gotEv = got.EnforceTenantQuotas(now)
							refEv = ref.EnforceTenantQuotas(now)
						}
						if g, r := docURLs(gotEv), docURLs(refEv); !slices.Equal(g, r) {
							t.Fatalf("seed %d step %d %s: evicted %q, reference %q", seed, step, op, g, r)
						}
						if g, r := got.Documents(), ref.Documents(); !slices.Equal(g, r) {
							t.Fatalf("seed %d step %d %s: order %q, reference %q", seed, step, op, g, r)
						}
						if g, r := got.TenantUsage(), ref.TenantUsage(); fmt.Sprint(g) != fmt.Sprint(r) {
							t.Fatalf("seed %d step %d %s: usage %v, reference %v", seed, step, op, g, r)
						}
						checkSubOrders(t, got)
					}
					var quotaEvictions int64
					for _, n := range got.TenantQuotaEvictions() {
						quotaEvictions += n
					}
					if quotaEvictions < 50 {
						t.Fatalf("seed %d: only %d quota evictions, the schedule does not exercise the sub-orders", seed, quotaEvictions)
					}
					if subs := tenantSubOrders(t, ref.policy.(scanPolicy).replacementPolicy); len(subs) != 0 {
						t.Fatalf("reference cache built sub-orders %v", subs)
					}
				}
			})
		}
	}
}

// TestTenantVictimCases covers the cases the scan handled implicitly.
func TestTenantVictimCases(t *testing.T) {
	for _, kind := range allKinds {
		t.Run(kind.String(), func(t *testing.T) {
			t.Run("only the protected entry left", func(t *testing.T) {
				c := NewWithReplacement("e0", 0, kind)
				c.SetTenantQuotas(quotaTable{"acme": 100})
				putDoc(t, c, "globex", "http://o/a", 100, 0)
				putDoc(t, c, "acme", "http://o/a", 100, 1)
				keyA := document.TenantKey("acme", "http://o/a")
				// The quota shrank between the fit check and the eviction.
				c.mu.Lock()
				ev := c.makeTenantRoom("acme", 10, c.entries[keyA], 2)
				c.mu.Unlock()
				if len(ev) != 0 || !c.Has(keyA) || c.Len() != 2 {
					t.Fatalf("evicted %v, want nothing (only the protected copy is acme's)", ev)
				}
				if c.policy.tenantVictim("nobody", nil) != nil {
					t.Fatal("a tenant with no copies has a victim")
				}
				if subs := tenantSubOrders(t, c.policy); len(subs) != 1 || len(subs["acme"]) != 1 {
					t.Fatalf("sub-orders %v, want acme's one entry only", subs)
				}
			})
			t.Run("quota appears when the tenant already holds copies", func(t *testing.T) {
				c := NewWithReplacement("e0", 0, kind)
				for i, u := range []string{"a", "b", "c", "d"} {
					putDoc(t, c, "acme", "http://o/"+u, 100, int64(2*i))
					putDoc(t, c, "globex", "http://o/"+u, 100, int64(2*i+1))
				}
				c.Get(document.TenantKey("acme", "http://o/a"), 10) // a is now acme's most valued copy
				if subs := tenantSubOrders(t, c.policy); len(subs) != 0 {
					t.Fatalf("sub-orders %v before any quota", subs)
				}
				c.SetTenantQuotas(quotaTable{"acme": 300})
				ev := putDoc(t, c, "acme", "http://o/e", 100, 11)
				want := []string{document.TenantKey("acme", "http://o/b"), document.TenantKey("acme", "http://o/c")}
				if !slices.Equal(docURLs(ev), want) {
					t.Fatalf("evicted %q, want %q", docURLs(ev), want)
				}
				if c.TenantUsed("globex") != 400 {
					t.Fatalf("globex resident = %d, want untouched 400", c.TenantUsed("globex"))
				}
				if subs := tenantSubOrders(t, c.policy); len(subs) != 1 || len(subs["acme"]) != 3 {
					t.Fatalf("sub-orders %v, want acme's three entries only", subs)
				}
				checkSubOrders(t, c)
			})
			t.Run("sub-order freed with the tenant's last copy", func(t *testing.T) {
				c := NewWithReplacement("e0", 0, kind)
				quotas := quotaTable{}
				c.SetTenantQuotas(quotas)
				putDoc(t, c, "", "http://o/keep", 100, 0)
				for i := 0; i < 500; i++ {
					tenant := fmt.Sprintf("t%d", i)
					quotas[tenant] = 100
					putDoc(t, c, tenant, "http://o/a", 100, int64(i))
					if ev := putDoc(t, c, tenant, "http://o/b", 100, int64(i)); len(ev) != 1 {
						t.Fatalf("tenant %s evicted %v, want its first copy", tenant, ev)
					}
					if subs := tenantSubOrders(t, c.policy); len(subs) != 1 {
						t.Fatalf("tenant %s: %d sub-orders, want 1", tenant, len(subs))
					}
					c.Remove(document.TenantKey(tenant, "http://o/b"))
					if subs := tenantSubOrders(t, c.policy); len(subs) != 0 {
						t.Fatalf("tenant %s left sub-orders %v behind", tenant, subs)
					}
				}
				if got := c.TenantQuotaEvictions(); len(got) != 500 || got["t7"] != 1 {
					t.Fatalf("quota evictions %v, want 1 for each of 500 tenants", got)
				}
			})
		})
	}
}

// selectionOrdered is the routine slotHeap.ordered replaced, kept as the
// reference for its order: pick the highest (key, seq) left, n times.
func selectionOrdered(h []*slot) []string {
	out := slices.Clone(h)
	urls := make([]string, 0, len(out))
	for len(out) > 0 {
		best := 0
		for i := 1; i < len(out); i++ {
			if out[i].key > out[best].key ||
				(out[i].key == out[best].key && out[i].seq > out[best].seq) {
				best = i
			}
		}
		urls = append(urls, out[best].cp.Doc.URL)
		out = append(out[:best], out[best+1:]...)
	}
	return urls
}

func TestKeyedOrderedMatchesSelectionSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p := &keyedPolicy{subs: make(tenantOrders)} // LFU
	slots := make([]slot, 20000)
	for i := range slots {
		slots[i].cp.Doc = document.Document{URL: fmt.Sprintf("d%d", i), Size: 1}
		p.onStore(&slots[i], false)
	}
	for i := 0; i < 60000; i++ { // few distinct keys, so ties are common
		p.onAccess(&slots[rng.Intn(len(slots))])
	}
	start := time.Now()
	got := p.ordered()
	elapsed := time.Since(start)
	if want := selectionOrdered(p.slots); !slices.Equal(got, want) {
		t.Fatal("ordered() differs from the selection sort it replaced")
	}
	if elapsed > time.Second {
		t.Fatalf("ordered() over 20000 entries took %v", elapsed)
	}
}

// quotaChurn is a cache holding `uncapped` documents of tenant alpha and a
// full quota of tenant beta, so that each further beta store evicts one
// beta document under the quota.
type quotaChurn struct {
	c    *Cache
	next int
}

const churnDocSize = 100

func newQuotaChurn(tb testing.TB, kind ReplacementKind, uncapped, capped int) *quotaChurn {
	tb.Helper()
	q := &quotaChurn{c: NewWithReplacement("e0", 0, kind)}
	q.c.SetTenantQuotas(quotaTable{"beta": int64(capped) * churnDocSize})
	for i := 0; i < capped; i++ {
		q.putBeta(tb)
	}
	for i := 0; i < uncapped; i++ {
		key := document.TenantKey("alpha", fmt.Sprintf("http://o/d%d", i))
		if _, err := q.c.Put(document.Copy{Doc: document.Document{URL: key, Size: churnDocSize, Version: 1}}, 0); err != nil {
			tb.Fatal(err)
		}
	}
	q.putBeta(tb) // the first quota eviction builds beta's sub-order
	return q
}

func (q *quotaChurn) betaCopy() document.Copy {
	q.next++
	key := document.TenantKey("beta", fmt.Sprintf("http://o/d%d", q.next))
	return document.Copy{Doc: document.Document{URL: key, Size: churnDocSize, Version: 1}}
}

func (q *quotaChurn) putBeta(tb testing.TB) []document.Document {
	ev, err := q.c.Put(q.betaCopy(), 0)
	if err != nil {
		tb.Fatal(err)
	}
	return ev
}

// TestTenantQuotaEvictionCostIndependentOfResidents: the time of a quota
// eviction must not grow with what the other tenants store. A scan of the
// replacement order reads about 50x here.
func TestTenantQuotaEvictionCostIndependentOfResidents(t *testing.T) {
	perEviction := func(uncapped int) time.Duration {
		q := newQuotaChurn(t, LRU, uncapped, 20)
		const evictions = 2000
		copies := make([]document.Copy, evictions)
		best := time.Duration(1 << 62)
		for trial := 0; trial < 5; trial++ {
			for i := range copies {
				copies[i] = q.betaCopy()
			}
			start := time.Now()
			for _, cp := range copies {
				if ev, err := q.c.Put(cp, 0); err != nil || len(ev) != 1 {
					t.Fatalf("put evicted %v, err %v; want one quota victim", ev, err)
				}
			}
			best = min(best, time.Since(start)/evictions)
		}
		return best
	}
	small, large := perEviction(1000), perEviction(50000)
	t.Logf("quota eviction: %v with 1000 uncapped residents, %v with 50000", small, large)
	if large > 4*small {
		t.Fatalf("quota eviction takes %v with 50000 uncapped residents, %v with 1000: more than 4x", large, small)
	}
}

// TestTenantQuotaEvictionAllocations: choosing a tenant's victim allocates
// nothing, and a store that evicts one quota victim allocates no more than
// the same store evicting one capacity victim.
func TestTenantQuotaEvictionAllocations(t *testing.T) {
	for _, kind := range allKinds {
		t.Run(kind.String(), func(t *testing.T) {
			const uncapped, capped, runs = 2000, 20, 200
			quota := newQuotaChurn(t, kind, uncapped, capped)
			if n := testing.AllocsPerRun(runs, func() {
				if quota.c.policy.tenantVictim("beta", nil) == nil {
					t.Fatal("no victim")
				}
			}); n != 0 {
				t.Fatalf("tenantVictim allocates %v times per call", n)
			}

			// The same residents under a byte budget they exactly fill, with
			// beta's quota out of reach: every store evicts by capacity.
			budget := newQuotaChurn(t, kind, uncapped, capped)
			budget.c.capacity = budget.c.used
			budget.c.SetTenantQuotas(quotaTable{"beta": 1 << 40})

			measure := func(q *quotaChurn) float64 {
				copies := make([]document.Copy, runs+1)
				for i := range copies {
					copies[i] = q.betaCopy()
				}
				i := 0
				return testing.AllocsPerRun(runs, func() {
					ev, err := q.c.Put(copies[i], 0)
					if err != nil || len(ev) != 1 {
						t.Fatalf("put evicted %v, err %v; want one victim", ev, err)
					}
					i++
				})
			}
			byQuota, byCapacity := measure(quota), measure(budget)
			if byQuota > byCapacity {
				t.Fatalf("a store evicting a quota victim allocates %v times, a capacity victim %v", byQuota, byCapacity)
			}
			if n := quota.c.TenantQuotaEvictions()["beta"]; n != runs+2 {
				t.Fatalf("beta quota evictions = %d, want %d", n, runs+2)
			}
			if n := budget.c.TenantQuotaEvictions()["beta"]; n != 1 {
				t.Fatalf("capacity evictions counted as quota evictions: %d", n)
			}
		})
	}
}

// TestTenantQuotaShrinkReclaimsAtNextPut: a quota shrunk under 10,000
// resident copies is reclaimed by the tenant's next store in time linear
// in the copies dropped. One scan per victim takes seconds here.
func TestTenantQuotaShrinkReclaimsAtNextPut(t *testing.T) {
	const copies = 10000
	c := New("e0", 0)
	quotas := quotaTable{"beta": copies * churnDocSize}
	c.SetTenantQuotas(quotas)
	for i := 0; i < 4*copies; i++ {
		tenant := "alpha"
		if i%4 == 0 {
			tenant = "beta"
		}
		putDoc(t, c, tenant, fmt.Sprintf("http://o/d%d", i), churnDocSize, 0)
	}
	quotas["beta"] = churnDocSize
	start := time.Now()
	ev := putDoc(t, c, "beta", "http://o/last", churnDocSize, 1)
	elapsed := time.Since(start)
	if len(ev) != copies || c.TenantUsed("beta") != churnDocSize || c.TenantUsed("alpha") != 3*copies*churnDocSize {
		t.Fatalf("evicted %d, beta holds %dB, alpha %dB", len(ev), c.TenantUsed("beta"), c.TenantUsed("alpha"))
	}
	for i, d := range ev {
		if want := document.TenantKey("beta", fmt.Sprintf("http://o/d%d", 4*i)); d.URL != want {
			t.Fatalf("eviction %d = %q, want %q (LRU order)", i, d.URL, want)
		}
	}
	t.Logf("reclaimed %d copies in %v", copies, elapsed)
	if elapsed > 500*time.Millisecond {
		t.Fatalf("reclaiming %d copies took %v", copies, elapsed)
	}
}
