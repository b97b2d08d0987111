package hashing

import (
	"fmt"
	"testing"
	"testing/quick"
)

func nodeNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("cache-%02d", i)
	}
	return out
}

func TestConsistentEmpty(t *testing.T) {
	c := NewConsistent(nil, 100)
	if _, err := c.BeaconFor("u"); err != ErrNoNodes {
		t.Fatalf("err = %v, want ErrNoNodes", err)
	}
	if steps := c.DiscoverySteps("u"); steps != 0 {
		t.Fatalf("DiscoverySteps on empty ring = %d, want 0", steps)
	}
}

func TestConsistentDeterministic(t *testing.T) {
	c1 := NewConsistent(nodeNames(5), 64)
	c2 := NewConsistent(nodeNames(5), 64)
	for i := 0; i < 200; i++ {
		u := fmt.Sprintf("doc%d", i)
		a, _ := c1.BeaconFor(u)
		b, _ := c2.BeaconFor(u)
		if a != b {
			t.Fatalf("nondeterministic assignment for %s", u)
		}
	}
}

func TestConsistentSpreadWithReplicas(t *testing.T) {
	c := NewConsistent(nodeNames(10), 128)
	counts := map[string]int{}
	const docs = 50000
	for i := 0; i < docs; i++ {
		n, err := c.BeaconFor(fmt.Sprintf("doc/%d", i))
		if err != nil {
			t.Fatal(err)
		}
		counts[n]++
	}
	for n, cnt := range counts {
		if cnt < docs/10/2 || cnt > docs/10*2 {
			t.Fatalf("node %s has %d docs, too far from %d", n, cnt, docs/10)
		}
	}
}

// Removing a node must only move documents that were owned by that node —
// the minimal-disruption property consistent hashing exists for.
func TestConsistentMinimalDisruption(t *testing.T) {
	nodes := nodeNames(8)
	c := NewConsistent(nodes, 64)
	before := map[string]string{}
	for i := 0; i < 5000; i++ {
		u := fmt.Sprintf("d%d", i)
		n, _ := c.BeaconFor(u)
		before[u] = n
	}
	c = NewConsistent(append(nodes[:3:3], nodes[4:]...), 64) // without cache-03
	for u, prev := range before {
		now, err := c.BeaconFor(u)
		if err != nil {
			t.Fatal(err)
		}
		if prev != "cache-03" && now != prev {
			t.Fatalf("doc %s moved from %s to %s though %s was not removed", u, prev, now, prev)
		}
		if now == "cache-03" {
			t.Fatalf("doc %s still assigned to removed node", u)
		}
	}
}

// A node named twice is placed on the circle once.
func TestConsistentAddIsIdempotent(t *testing.T) {
	c := NewConsistent([]string{"a", "a", "b", "b"}, 16)
	if got := len(c.ring); got != 32 {
		t.Fatalf("ring has %d points, want 32", got)
	}
}

func TestConsistentReplicasFloor(t *testing.T) {
	c := NewConsistent([]string{"a", "b"}, 0)
	if len(c.ring) != 2 {
		t.Fatalf("replicas floor failed: ring has %d points", len(c.ring))
	}
}

func TestConsistentDiscoveryStepsLogarithmic(t *testing.T) {
	c := NewConsistent(nodeNames(50), 100) // 5000 circle points
	maxSteps := 0
	for i := 0; i < 1000; i++ {
		s := c.DiscoverySteps(fmt.Sprintf("d%d", i))
		if s > maxSteps {
			maxSteps = s
		}
		if s < 1 {
			t.Fatalf("DiscoverySteps = %d, want >= 1", s)
		}
	}
	// ceil(log2(5000)) = 13
	if maxSteps > 14 {
		t.Fatalf("DiscoverySteps max = %d, want <= 14", maxSteps)
	}
	if maxSteps < 10 {
		t.Fatalf("DiscoverySteps max = %d suspiciously small for 5000 points", maxSteps)
	}
}

// Property: assignment always lands on a registered node.
func TestAssignersAlwaysReturnMember(t *testing.T) {
	nodes := nodeNames(7)
	member := map[string]bool{}
	for _, n := range nodes {
		member[n] = true
	}
	c := NewConsistent(nodes, 32)
	f := func(url string) bool {
		b, err := c.BeaconFor(url)
		return err == nil && member[b]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
