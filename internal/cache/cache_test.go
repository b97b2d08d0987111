package cache

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"cachecloud/internal/document"
)

func doc(url string, size int64, v document.Version) document.Document {
	return document.Document{URL: url, Size: size, Version: v}
}

func mustPut(t *testing.T, c *Cache, d document.Document, now int64) []document.Document {
	t.Helper()
	ev, err := c.Put(document.Copy{Doc: d, FetchedAt: now}, now)
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

func TestPutGetRoundTrip(t *testing.T) {
	c := New("c1", 0)
	mustPut(t, c, doc("a", 100, 1), 0)
	got, ok := c.Get("a", 1)
	if !ok || got.Doc.URL != "a" || got.Doc.Version != 1 {
		t.Fatalf("Get = %+v, %v", got, ok)
	}
	if _, ok := c.Get("missing", 1); ok {
		t.Fatal("Get returned missing document")
	}
	if c.Len() != 1 || c.Used() != 100 {
		t.Fatalf("Len=%d Used=%d", c.Len(), c.Used())
	}
}

func TestLRUEviction(t *testing.T) {
	c := New("c1", 300)
	mustPut(t, c, doc("a", 100, 1), 0)
	mustPut(t, c, doc("b", 100, 1), 1)
	mustPut(t, c, doc("c", 100, 1), 2)
	// Touch "a" so "b" becomes LRU.
	if _, ok := c.Get("a", 3); !ok {
		t.Fatal("a missing")
	}
	ev := mustPut(t, c, doc("d", 100, 1), 4)
	if len(ev) != 1 || ev[0].URL != "b" {
		t.Fatalf("evicted %v, want [b]", ev)
	}
	if !c.Has("a") || !c.Has("c") || !c.Has("d") || c.Has("b") {
		t.Fatalf("wrong residency after eviction: %v", c.Documents())
	}
	if c.Used() != 300 {
		t.Fatalf("Used = %d, want 300", c.Used())
	}
}

func TestEvictionMayDropMultiple(t *testing.T) {
	c := New("c1", 300)
	mustPut(t, c, doc("a", 100, 1), 0)
	mustPut(t, c, doc("b", 100, 1), 1)
	mustPut(t, c, doc("c", 100, 1), 2)
	// 250B into 300B capacity with 300B resident: all three LRU entries
	// must go (after a and b, usage is still 350 > 300).
	ev := mustPut(t, c, doc("big", 250, 1), 3)
	if len(ev) != 3 {
		t.Fatalf("evicted %v, want 3 docs", ev)
	}
	if !c.Has("big") || c.Len() != 1 {
		t.Fatalf("residency: %v", c.Documents())
	}
}

func TestPutTooLarge(t *testing.T) {
	c := New("c1", 100)
	_, err := c.Put(document.Copy{Doc: doc("huge", 101, 1)}, 0)
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
	if c.Len() != 0 {
		t.Fatal("rejected document was stored")
	}
}

func TestPutReplaceSameURL(t *testing.T) {
	c := New("c1", 0)
	mustPut(t, c, doc("a", 100, 1), 0)
	mustPut(t, c, doc("a", 150, 2), 1)
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
	if c.Used() != 150 {
		t.Fatalf("Used = %d, want 150", c.Used())
	}
	got, _ := c.Peek("a")
	if got.Doc.Version != 2 {
		t.Fatalf("version = %d, want 2", got.Doc.Version)
	}
}

func TestPutReplaceGrowthEvicts(t *testing.T) {
	c := New("c1", 200)
	mustPut(t, c, doc("a", 100, 1), 0)
	mustPut(t, c, doc("b", 100, 1), 1)
	ev := mustPut(t, c, doc("b", 180, 2), 2)
	if len(ev) != 1 || ev[0].URL != "a" {
		t.Fatalf("evicted %v, want [a]", ev)
	}
}

func TestProtectedEntryNeverSelfEvicted(t *testing.T) {
	c := New("c1", 100)
	ev := mustPut(t, c, doc("only", 100, 1), 0)
	if len(ev) != 0 {
		t.Fatalf("evicted %v, want none", ev)
	}
	if !c.Has("only") {
		t.Fatal("entry evicted itself")
	}
}

func TestRemove(t *testing.T) {
	c := New("c1", 0)
	mustPut(t, c, doc("a", 10, 1), 0)
	if !c.Remove("a") {
		t.Fatal("Remove(a) = false")
	}
	if c.Remove("a") {
		t.Fatal("second Remove(a) = true")
	}
	if c.Used() != 0 || c.Len() != 0 {
		t.Fatal("Remove did not release space")
	}
}

func TestApplyUpdate(t *testing.T) {
	c := New("c1", 0)
	mustPut(t, c, doc("a", 100, 1), 0)
	if !c.ApplyUpdate(doc("a", 120, 2), 5) {
		t.Fatal("ApplyUpdate on held doc = false")
	}
	got, _ := c.Peek("a")
	if got.Doc.Version != 2 || got.Doc.Size != 120 || got.FetchedAt != 5 {
		t.Fatalf("after update: %+v", got)
	}
	if c.Used() != 120 {
		t.Fatalf("Used = %d, want 120", c.Used())
	}
	if c.ApplyUpdate(doc("nope", 10, 2), 5) {
		t.Fatal("ApplyUpdate on absent doc = true")
	}
}

func TestApplyUpdateIgnoresStaleVersion(t *testing.T) {
	c := New("c1", 0)
	mustPut(t, c, doc("a", 100, 5), 0)
	if !c.ApplyUpdate(doc("a", 999, 4), 1) {
		t.Fatal("ApplyUpdate should still report held")
	}
	got, _ := c.Peek("a")
	if got.Doc.Version != 5 || got.Doc.Size != 100 {
		t.Fatalf("stale update applied: %+v", got)
	}
}

func TestApplyUpdateDoesNotPromoteLRU(t *testing.T) {
	c := New("c1", 200)
	mustPut(t, c, doc("a", 100, 1), 0)
	mustPut(t, c, doc("b", 100, 1), 1)
	// Update "a" (the LRU entry); it must stay LRU.
	c.ApplyUpdate(doc("a", 100, 2), 2)
	ev := mustPut(t, c, doc("c", 100, 1), 3)
	if len(ev) != 1 || ev[0].URL != "a" {
		t.Fatalf("evicted %v, want [a] (updates must not refresh recency)", ev)
	}
}

func TestDocumentsOrder(t *testing.T) {
	c := New("c1", 0)
	mustPut(t, c, doc("a", 1, 1), 0)
	mustPut(t, c, doc("b", 1, 1), 1)
	c.Get("a", 2)
	got := c.Documents()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Documents = %v, want [a b]", got)
	}
}

// TestHitMissCounters counts hits and misses the way the store's callers
// do: from what Get reports.
func TestHitMissCounters(t *testing.T) {
	c := New("c1", 0)
	mustPut(t, c, doc("a", 1, 1), 0)
	var h, m int
	for _, u := range []string{"a", "a", "zz"} {
		if _, ok := c.Get(u, 1); ok {
			h++
		} else {
			m++
		}
	}
	if h != 2 || m != 1 {
		t.Fatalf("hits=%d misses=%d, want 2,1", h, m)
	}
}

func TestAccessRateMonitoring(t *testing.T) {
	c := New("c1", 0)
	// Access "hot" 10x per unit, "cold" once every 10 units — even though
	// neither is stored (misses still count as monitored accesses).
	for now := int64(0); now < 100; now++ {
		for i := 0; i < 10; i++ {
			c.Get("hot", now)
		}
		if now%10 == 0 {
			c.Get("cold", now)
		}
	}
	hot, cold := c.AccessRate("hot", 100), c.AccessRate("cold", 100)
	if hot <= cold {
		t.Fatalf("hot rate %.3f <= cold rate %.3f", hot, cold)
	}
	if c.AccessRate("never", 100) != 0 {
		t.Fatal("unseen document has non-zero rate")
	}
}

func TestMeanAccessRate(t *testing.T) {
	c := New("c1", 0)
	if got := c.MeanAccessRate(0); got != 0 {
		t.Fatalf("empty cache mean rate = %v", got)
	}
	mustPut(t, c, doc("a", 1, 1), 0)
	mustPut(t, c, doc("b", 1, 1), 0)
	// Run several half-lives (half-life is 60 units) so the EW estimator
	// converges to the true per-document rate of 1/unit.
	for now := int64(0); now < 500; now++ {
		c.Get("a", now)
		c.Get("b", now)
	}
	mean := c.MeanAccessRate(500)
	if mean < 0.7 || mean > 1.3 {
		t.Fatalf("mean rate = %.3f, want ≈1", mean)
	}
}

func TestEvictionByteRate(t *testing.T) {
	c := New("c1", 100)
	if c.EvictionByteRate(0) != 0 {
		t.Fatal("fresh cache has eviction pressure")
	}
	for i := 0; i < 50; i++ {
		mustPut(t, c, doc(fmt.Sprintf("d%d", i), 100, 1), int64(i))
	}
	if c.EvictionByteRate(50) <= 0 {
		t.Fatal("thrashing cache shows no eviction pressure")
	}
}

// Invariant check under random operations: used bytes always equals the sum
// of stored sizes and never exceeds capacity (after Put returns).
func TestRandomOpsInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	c := New("c1", 5000)
	live := map[string]int64{}
	for op := 0; op < 5000; op++ {
		now := int64(op)
		url := fmt.Sprintf("d%d", rng.Intn(80))
		switch rng.Intn(4) {
		case 0, 1:
			size := int64(rng.Intn(900) + 100)
			ev, err := c.Put(document.Copy{Doc: doc(url, size, 1)}, now)
			if err != nil {
				t.Fatal(err)
			}
			live[url] = size
			for _, d := range ev {
				delete(live, d.URL)
			}
		case 2:
			if c.Remove(url) {
				delete(live, url)
			}
		case 3:
			c.Get(url, now)
		}
		var sum int64
		for _, s := range live {
			sum += s
		}
		if c.Used() != sum {
			t.Fatalf("op %d: Used=%d, live sum=%d", op, c.Used(), sum)
		}
		if c.Used() > 5000 {
			t.Fatalf("op %d: capacity exceeded: %d", op, c.Used())
		}
		if c.Len() != len(live) {
			t.Fatalf("op %d: Len=%d, live=%d", op, c.Len(), len(live))
		}
	}
}

func TestUnlimitedCapacityNeverEvicts(t *testing.T) {
	c := New("c1", 0)
	for i := 0; i < 1000; i++ {
		ev := mustPut(t, c, doc(fmt.Sprintf("d%d", i), 1<<20, 1), int64(i))
		if len(ev) != 0 {
			t.Fatalf("unlimited cache evicted %v", ev)
		}
	}
	if c.Len() != 1000 {
		t.Fatalf("Len = %d", c.Len())
	}
}
