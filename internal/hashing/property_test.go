package hashing

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestPropertyAssignersAgreeOnMembership is the property sweep over the
// consistent-hash assigner: for random node sets and random URLs, the
// returned beacon must be a registered node, repeated calls must agree
// (determinism), and assignment must not depend on construction order.
func TestPropertyAssignersAgreeOnMembership(t *testing.T) {
	build := func(nodes []string) *Consistent { return NewConsistent(nodes, 50) }
	t.Run("consistent", func(t *testing.T) {
		for trial := 0; trial < 20; trial++ {
			rng := rand.New(rand.NewSource(int64(97*trial) + 11))
			n := 1 + rng.Intn(12)
			nodes := make([]string, n)
			for i := range nodes {
				nodes[i] = fmt.Sprintf("cache-%02d", i)
			}
			members := make(map[string]bool, n)
			for _, id := range nodes {
				members[id] = true
			}
			a := build(nodes)

			shuffled := make([]string, n)
			copy(shuffled, nodes)
			rng.Shuffle(n, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			b := build(shuffled)

			for u := 0; u < 100; u++ {
				url := fmt.Sprintf("http://site-%d.example.com/doc/%d", rng.Intn(5), rng.Intn(10000))
				got, err := a.BeaconFor(url)
				if err != nil {
					t.Fatalf("trial %d: BeaconFor(%q): %v", trial, url, err)
				}
				if !members[got] {
					t.Fatalf("trial %d: BeaconFor(%q) = %q, not a member", trial, url, got)
				}
				again, _ := a.BeaconFor(url)
				if again != got {
					t.Fatalf("trial %d: BeaconFor(%q) unstable: %q then %q", trial, url, got, again)
				}
				fromShuffled, err := b.BeaconFor(url)
				if err != nil {
					t.Fatal(err)
				}
				if fromShuffled != got {
					t.Fatalf("trial %d: assignment depends on construction order: %q vs %q",
						trial, got, fromShuffled)
				}
			}
		}
	})
}

// TestPropertyChurnStability checks consistent hashing's churn bound: the
// circle without one node reassigns only the URLs that mapped to it, and
// the circle with it back restores the original assignment exactly.
func TestPropertyChurnStability(t *testing.T) {
	build := func(nodes []string) *Consistent { return NewConsistent(nodes, 50) }
	t.Run("consistent", func(t *testing.T) {
		for trial := 0; trial < 10; trial++ {
			rng := rand.New(rand.NewSource(int64(13*trial) + 5))
			n := 3 + rng.Intn(8)
			nodes := make([]string, n)
			for i := range nodes {
				nodes[i] = fmt.Sprintf("cache-%02d", i)
			}
			a := build(nodes)
			urls := make([]string, 200)
			before := make([]string, len(urls))
			for i := range urls {
				urls[i] = fmt.Sprintf("http://churn.example.com/doc/%d", rng.Intn(100000))
				owner, err := a.BeaconFor(urls[i])
				if err != nil {
					t.Fatal(err)
				}
				before[i] = owner
			}

			v := rng.Intn(n)
			victim := nodes[v]
			a = build(append(nodes[:v:v], nodes[v+1:]...))
			for i, url := range urls {
				owner, err := a.BeaconFor(url)
				if err != nil {
					t.Fatal(err)
				}
				if before[i] != victim && owner != before[i] {
					t.Fatalf("trial %d: removing %q moved %q from %q to %q",
						trial, victim, url, before[i], owner)
				}
				if before[i] == victim && owner == victim {
					t.Fatalf("trial %d: %q still assigned to removed node", trial, url)
				}
			}

			a = build(nodes)
			for i, url := range urls {
				owner, err := a.BeaconFor(url)
				if err != nil {
					t.Fatal(err)
				}
				if owner != before[i] {
					t.Fatalf("trial %d: re-adding %q did not restore %q: %q vs %q",
						trial, victim, url, owner, before[i])
				}
			}
		}
	})
}
