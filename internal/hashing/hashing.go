// Package hashing provides the consistent-hashing baseline the paper
// compares dynamic hashing against: Karger-style consistent hashing on a
// unit circle (the paper's reference [5]), with the beacon-discovery cost
// the paper attributes to it. The paper's own dynamic hashing scheme lives
// in internal/ring (intra-ring hash) and internal/core (two-step
// resolution); its other baseline, static hashing, is sim.StaticHashing.
package hashing

import (
	"crypto/md5"
	"encoding/binary"
	"errors"
	"sort"
	"strconv"
)

// ErrNoNodes is returned when the circle holds no nodes.
var ErrNoNodes = errors.New("hashing: no nodes registered")

// Consistent implements consistent hashing on a unit circle with virtual
// nodes. Documents and node replicas are mapped to points on the circle; a
// document is assigned to the first node clockwise from its point.
type Consistent struct {
	ring []circlePoint // sorted by position
}

type circlePoint struct {
	pos  uint64
	node string
}

// NewConsistent builds a consistent-hash circle with the given number of
// virtual replicas per node (>=1; values around 50-200 give good spread).
// A node named twice is placed once.
func NewConsistent(nodes []string, replicas int) *Consistent {
	if replicas < 1 {
		replicas = 1
	}
	c := &Consistent{}
	seen := make(map[string]bool, len(nodes))
	for _, n := range nodes {
		if seen[n] {
			continue
		}
		seen[n] = true
		for r := 0; r < replicas; r++ {
			c.ring = append(c.ring, circlePoint{pos: circleHash(n + "#" + strconv.Itoa(r)), node: n})
		}
	}
	sort.Slice(c.ring, func(i, j int) bool { return c.ring[i].pos < c.ring[j].pos })
	return c
}

// BeaconFor returns the node responsible for the document, or ErrNoNodes
// when the circle is empty.
func (c *Consistent) BeaconFor(url string) (string, error) {
	if len(c.ring) == 0 {
		return "", ErrNoNodes
	}
	pos := circleHash(url)
	i := sort.Search(len(c.ring), func(i int) bool { return c.ring[i].pos >= pos })
	if i == len(c.ring) {
		i = 0
	}
	return c.ring[i].node, nil
}

// DiscoverySteps models the beacon-discovery cost the paper attributes to
// consistent hashing: without a complete view of the circle, locating the
// successor of a point takes up to O(log N) routing steps (binary search
// over the sorted circle). The returned count is the number of probes the
// search performs, used by the ablation benchmarks.
func (c *Consistent) DiscoverySteps(url string) int {
	if len(c.ring) == 0 {
		return 0
	}
	pos := circleHash(url)
	steps := 0
	lo, hi := 0, len(c.ring)
	for lo < hi {
		steps++
		mid := (lo + hi) / 2
		if c.ring[mid].pos >= pos {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if steps == 0 {
		steps = 1
	}
	return steps
}

// circleHash maps a key onto the unit circle represented as uint64 space.
func circleHash(key string) uint64 {
	sum := md5.Sum([]byte(key))
	return binary.BigEndian.Uint64(sum[:8])
}
