package node

import (
	"fmt"

	"cachecloud/internal/document"
	"cachecloud/internal/ring"
)

// newRings builds the cluster's beacon rings (internal/ring) in their
// initial equal division, the one core.Cloud starts from too. The origin
// keeps them for its whole life as the master topology, with per-IrH load
// counters (fine) for its rebalances; every other node kind renders them
// once (layoutOf), as the layout it boots with, from rings without load
// counters. cfg has passed check, which refuses every layout ring.New does.
func newRings(cfg ClusterConfig, fine bool) []*ring.Ring {
	rings := make([]*ring.Ring, len(cfg.Rings))
	for r, names := range cfg.Rings {
		members := make([]ring.Member, len(names))
		for i, name := range names {
			members[i] = ring.Member{ID: name, Capability: 1}
		}
		rings[r], _ = ring.New(ring.Config{IntraGen: cfg.IntraGen, FineGrained: fine}, members)
	}
	return rings
}

// layoutOf renders rings in the wire form. Assignments is only ever this
// rendering: sub-range bounds are computed by internal/ring alone.
func layoutOf(rings []*ring.Ring) Assignments {
	a := Assignments{Rings: make([][]Subrange, len(rings))}
	for r, rg := range rings {
		for _, p := range rg.Assignments() {
			a.Rings[r] = append(a.Rings[r], Subrange{Node: p.ID, Lo: p.Sub.Lo, Hi: p.Sub.Hi})
		}
	}
	return a
}

// routeView is the immutable routing snapshot every node kind routes by:
// the sub-range layout and the peers the origin declared dead. A cache
// node's directory, a shield and the origin each publish a whole new value
// behind an atomic.Pointer when either changes; readers never lock.
type routeView struct {
	assign Assignments
	down   map[string]bool
	// Fixed for the life of the node and shared by every view it publishes.
	intraGen int
	home     map[string]int // each node's configured ring
}

// newRouteView is the view a node boots with. initial is the layout of the
// configured rings with every member present, so it also yields home.
func newRouteView(intraGen int, initial Assignments) *routeView {
	v := &routeView{assign: initial, down: map[string]bool{}, intraGen: intraGen, home: make(map[string]int)}
	for r, subs := range initial.Rings {
		for _, s := range subs {
			v.home[s.Node] = r
		}
	}
	return v
}

// with returns the view that succeeds v once the layout and the dead set
// are assign and down.
func (v *routeView) with(assign Assignments, down map[string]bool) *routeView {
	return &routeView{assign: assign, down: down, intraGen: v.intraGen, home: v.home}
}

// beacon returns the beacon point of hash h.
func (v *routeView) beacon(h document.Hash) (string, error) {
	return v.assign.ownerOfHash(h, v.intraGen)
}

// beaconAddr returns the beacon point of url and its base URL in addrs.
func (v *routeView) beaconAddr(addrs map[string]string, url string) (name, base string, err error) {
	if name, err = v.beacon(document.HashURL(url)); err != nil {
		return "", "", err
	}
	base, ok := addrs[name]
	if !ok {
		return "", "", fmt.Errorf("node: no address for beacon %q", name)
	}
	return name, base, nil
}

// sibling returns another live member of name's ring: the node that holds
// the lazy replica of name's lookup records and stands in for it while it
// is unreachable. It is the first live other member in layout order, of
// the ring the layout has name in or, once name was removed from the
// layout, of its configured ring.
func (v *routeView) sibling(name string) (string, bool) {
	r := v.assign.ringOf(name)
	if r < 0 {
		var ok bool
		// An installed layout comes off the wire: it may have fewer rings.
		if r, ok = v.home[name]; !ok || r >= len(v.assign.Rings) {
			return "", false
		}
	}
	for _, s := range v.assign.Rings[r] {
		if s.Node != name && !v.down[s.Node] {
			return s.Node, true
		}
	}
	return "", false
}
