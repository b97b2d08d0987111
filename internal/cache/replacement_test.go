package cache

import (
	"fmt"
	"math/rand"
	"testing"

	"cachecloud/internal/document"
)

func TestReplacementKindString(t *testing.T) {
	if LRU.String() != "lru" || LFU.String() != "lfu" || GreedyDualSize.String() != "gds" {
		t.Fatal("kind names wrong")
	}
	if ReplacementKind(9).String() != "replacement(9)" {
		t.Fatal("unknown kind name wrong")
	}
}

func TestDefaultIsLRU(t *testing.T) {
	c := New("c", 10)
	if c.Replacement() != LRU {
		t.Fatalf("default replacement = %v", c.Replacement())
	}
	if NewWithReplacement("c", 10, ReplacementKind(0)).policy == nil {
		t.Fatal("unknown kind must fall back to a working policy")
	}
}

func TestLFUEvictsLeastFrequent(t *testing.T) {
	c := NewWithReplacement("c", 300, LFU)
	mustPut(t, c, doc("a", 100, 1), 0)
	mustPut(t, c, doc("b", 100, 1), 1)
	mustPut(t, c, doc("c", 100, 1), 2)
	// a: 3 hits, c: 2 hits, b: 0 hits → b is the LFU victim even though it
	// is not the least recently used.
	c.Get("a", 3)
	c.Get("a", 3)
	c.Get("a", 3)
	c.Get("c", 4)
	c.Get("c", 4)
	c.Get("b", 5) // one hit; still least frequent (freq 2 vs 3/4 after insert+hits)
	ev := mustPut(t, c, doc("d", 100, 1), 6)
	if len(ev) != 1 || ev[0].URL != "b" {
		t.Fatalf("LFU evicted %v, want [b]", ev)
	}
}

func TestLFUTieBreaksByRecency(t *testing.T) {
	c := NewWithReplacement("c", 200, LFU)
	mustPut(t, c, doc("old", 100, 1), 0)
	mustPut(t, c, doc("new", 100, 1), 1)
	// Equal frequency: the older (smaller seq) entry goes first.
	ev := mustPut(t, c, doc("x", 100, 1), 2)
	if len(ev) != 1 || ev[0].URL != "old" {
		t.Fatalf("LFU tie evicted %v, want [old]", ev)
	}
}

func TestGDSPrefersEvictingLargeDocs(t *testing.T) {
	c := NewWithReplacement("c", 11000, GreedyDualSize)
	mustPut(t, c, doc("small", 1000, 1), 0)
	mustPut(t, c, doc("big", 10000, 1), 1)
	// Neither has been re-accessed: H(small) = 1/1000 > H(big) = 1/10000,
	// so the big document is the first victim.
	ev := mustPut(t, c, doc("mid", 5000, 1), 2)
	if len(ev) != 1 || ev[0].URL != "big" {
		t.Fatalf("GDS evicted %v, want [big]", ev)
	}
}

func TestGDSClockInflation(t *testing.T) {
	c := NewWithReplacement("c", 3000, GreedyDualSize)
	mustPut(t, c, doc("a", 1000, 1), 0)
	mustPut(t, c, doc("b", 1000, 1), 1)
	mustPut(t, c, doc("c", 1000, 1), 2)
	// Evict once: the clock L rises to the victim's H, so a newly inserted
	// doc outranks untouched old ones.
	ev := mustPut(t, c, doc("d", 1000, 1), 3)
	if len(ev) != 1 {
		t.Fatalf("evicted %v", ev)
	}
	// d was inserted after the clock inflated; the next eviction must be
	// one of the older entries, never d.
	ev = mustPut(t, c, doc("e", 1000, 1), 4)
	if len(ev) != 1 || ev[0].URL == "d" || ev[0].URL == "e" {
		t.Fatalf("GDS evicted %v, want an old entry", ev)
	}
}

func TestVictimExclusionAllPolicies(t *testing.T) {
	for _, kind := range []ReplacementKind{LRU, LFU, GreedyDualSize} {
		t.Run(kind.String(), func(t *testing.T) {
			c := NewWithReplacement("c", 100, kind)
			ev := mustPut(t, c, doc("only", 100, 1), 0)
			if len(ev) != 0 || !c.Has("only") {
				t.Fatalf("sole entry evicted itself: %v", ev)
			}
		})
	}
}

func TestOrderedMatchesResidency(t *testing.T) {
	for _, kind := range []ReplacementKind{LRU, LFU, GreedyDualSize} {
		t.Run(kind.String(), func(t *testing.T) {
			c := NewWithReplacement("c", 0, kind)
			want := map[string]bool{}
			for i := 0; i < 20; i++ {
				u := fmt.Sprintf("d%d", i)
				mustPut(t, c, doc(u, 10, 1), int64(i))
				want[u] = true
			}
			got := c.Documents()
			if len(got) != len(want) {
				t.Fatalf("Documents has %d entries, want %d", len(got), len(want))
			}
			for _, u := range got {
				if !want[u] {
					t.Fatalf("unexpected %s in Documents", u)
				}
			}
		})
	}
}

// Byte accounting must stay exact under random operations for every
// replacement policy.
func TestRandomOpsInvariantsAllPolicies(t *testing.T) {
	for _, kind := range []ReplacementKind{LRU, LFU, GreedyDualSize} {
		t.Run(kind.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(kind)))
			c := NewWithReplacement("c", 5000, kind)
			live := map[string]int64{}
			for op := 0; op < 3000; op++ {
				now := int64(op)
				url := fmt.Sprintf("d%d", rng.Intn(60))
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
				if c.Used() != sum || c.Used() > 5000 || c.Len() != len(live) {
					t.Fatalf("op %d (%v): used=%d sum=%d len=%d live=%d",
						op, kind, c.Used(), sum, c.Len(), len(live))
				}
			}
		})
	}
}

// Under a skewed stream with a working set slightly over capacity, LFU and
// GDS must retain the hot head at least as well as random chance; sanity
// check that hit rates are reasonable and policies differ.
func TestPoliciesBehaveDifferently(t *testing.T) {
	workload := func(kind ReplacementKind) int64 {
		rng := rand.New(rand.NewSource(7))
		c := NewWithReplacement("c", 50_000, kind)
		var hits int64
		for i := 0; i < 20000; i++ {
			r := rng.Intn(100)
			r = (r * r) / 100 // skew toward low indexes
			u := fmt.Sprintf("d%d", r)
			size := int64(500 + 37*r)
			if _, ok := c.Get(u, int64(i)); ok {
				hits++
			} else if _, err := c.Put(document.Copy{Doc: doc(u, size, 1)}, int64(i)); err != nil {
				t.Fatal(err)
			}
		}
		return hits
	}
	lru, lfu, gds := workload(LRU), workload(LFU), workload(GreedyDualSize)
	for kind, hits := range map[string]int64{"lru": lru, "lfu": lfu, "gds": gds} {
		if hits < 7000 {
			t.Fatalf("%s hit count %d implausibly low", kind, hits)
		}
	}
}
