// Package ring implements the paper's beacon ring — the unit of dynamic
// hashing inside a cache cloud (Sections 2.2 and 2.3).
//
// A beacon ring holds two or more beacon points. The intra-ring hash range
// [0, IntraGen) is divided into consecutive, non-overlapping sub-ranges, one
// per beacon point; a beacon point serves every document whose IrH value
// falls inside its sub-range. Periodically (in cycles) the ring re-divides
// the range so that the load each beacon point is likely to see next cycle
// is proportional to its capability. Two accuracy modes are supported:
//
//   - fine-grained: beacon points maintain per-IrH-value load counters
//     (the paper's CIrHLd information), so the boundary shift is exact;
//   - coarse: only the cycle aggregate (CAvgLoad) is kept and the per-value
//     load is approximated by the sub-range average, trading accuracy for
//     bookkeeping cost.
//
// The implementation reproduces the paper's Figure 2 worked example in both
// modes (see TestPaperFigure2).
package ring

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"cachecloud/internal/loadstats"
)

var (
	// ErrTooFewPoints is returned when a ring would have fewer than one
	// beacon point.
	ErrTooFewPoints = errors.New("ring: a beacon ring needs at least one beacon point")
	// ErrBadIntraGen is returned when IntraGen is smaller than the number
	// of beacon points.
	ErrBadIntraGen = errors.New("ring: IntraGen must be >= number of beacon points")
	// ErrBadCapability is returned for non-positive capabilities.
	ErrBadCapability = errors.New("ring: capability must be > 0")
	// ErrUnknownPoint is returned when an operation names a beacon point
	// that is not in the ring.
	ErrUnknownPoint = errors.New("ring: unknown beacon point")
	// ErrLastPoint is returned when removing the only beacon point.
	ErrLastPoint = errors.New("ring: cannot remove the last beacon point")
	// ErrDuplicatePoint is returned when adding an ID already present.
	ErrDuplicatePoint = errors.New("ring: duplicate beacon point")
)

// Member describes one beacon point joining a ring.
type Member struct {
	// ID identifies the cache hosting the beacon point.
	ID string
	// Capability is the paper's Cp value: a positive real reflecting the
	// power of the hosting machine. Fair load shares are proportional
	// to it.
	Capability float64
}

// SubRange is an inclusive IrH interval [Lo, Hi]. An empty sub-range is
// represented by Lo > Hi.
type SubRange struct {
	Lo, Hi int
}

// Contains reports whether the IrH value lies inside the sub-range.
func (s SubRange) Contains(irh int) bool { return irh >= s.Lo && irh <= s.Hi }

// Len returns the number of IrH values covered.
func (s SubRange) Len() int {
	if s.Hi < s.Lo {
		return 0
	}
	return s.Hi - s.Lo + 1
}

// String implements fmt.Stringer.
func (s SubRange) String() string { return fmt.Sprintf("(%d,%d)", s.Lo, s.Hi) }

// point is the in-ring state for one beacon point.
type point struct {
	id         string
	capability float64
	sub        SubRange
	counter    *loadstats.Counter
}

// Ring is a beacon ring. All methods are safe for concurrent use.
type Ring struct {
	mu          sync.Mutex
	intraGen    int
	fineGrained bool
	points      []*point // ordered by sub-range position
}

// Config parameterises a ring.
type Config struct {
	// IntraGen is the intra-ring hash generator: the size of the hash
	// range. The paper chooses it "relatively large compared to the number
	// of beacon points" (1000 in the evaluation).
	IntraGen int
	// FineGrained selects per-IrH-value load tracking (CIrHLd). When
	// false, rebalancing approximates using the sub-range average.
	FineGrained bool
}

// New creates a ring over the given members. The initial sub-ranges divide
// [0, IntraGen) in proportion to capabilities (equally for equal
// capabilities), matching the paper's initial equal division.
func New(cfg Config, members []Member) (*Ring, error) {
	if len(members) < 1 {
		return nil, ErrTooFewPoints
	}
	if cfg.IntraGen < len(members) {
		return nil, ErrBadIntraGen
	}
	seen := make(map[string]struct{}, len(members))
	var totalCap float64
	for _, m := range members {
		if m.Capability <= 0 {
			return nil, fmt.Errorf("%w: %q has %v", ErrBadCapability, m.ID, m.Capability)
		}
		if _, dup := seen[m.ID]; dup {
			return nil, fmt.Errorf("%w: %q", ErrDuplicatePoint, m.ID)
		}
		seen[m.ID] = struct{}{}
		totalCap += m.Capability
	}
	r := &Ring{intraGen: cfg.IntraGen, fineGrained: cfg.FineGrained}
	// Proportional initial split with a floor of one value per point.
	lo := 0
	var capSoFar float64
	for i, m := range members {
		capSoFar += m.Capability
		hi := int(float64(cfg.IntraGen)*capSoFar/totalCap+0.5) - 1
		if i == len(members)-1 {
			hi = cfg.IntraGen - 1
		}
		minHi := lo // at least one value
		if hi < minHi {
			hi = minHi
		}
		maxHi := cfg.IntraGen - (len(members) - i) // leave room for the rest
		if hi > maxHi {
			hi = maxHi
		}
		r.points = append(r.points, &point{
			id:         m.ID,
			capability: m.Capability,
			sub:        SubRange{Lo: lo, Hi: hi},
			counter:    loadstats.NewCounter(cfg.IntraGen, cfg.FineGrained),
		})
		lo = hi + 1
	}
	return r, nil
}

// IntraGen returns the hash-range size.
func (r *Ring) IntraGen() int {
	return r.intraGen
}

// Size returns the number of beacon points.
func (r *Ring) Size() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.points)
}

// BeaconFor returns the ID of the beacon point whose sub-range contains the
// IrH value.
func (r *Ring) BeaconFor(irh int) (string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	p, err := r.pointFor(irh)
	if err != nil {
		return "", err
	}
	return p.id, nil
}

func (r *Ring) pointFor(irh int) (*point, error) {
	if irh < 0 || irh >= r.intraGen {
		return nil, fmt.Errorf("ring: IrH value %d outside [0,%d)", irh, r.intraGen)
	}
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].sub.Hi >= irh })
	if i == len(r.points) || !r.points[i].sub.Contains(irh) {
		return nil, fmt.Errorf("ring: no beacon point covers IrH value %d", irh)
	}
	return r.points[i], nil
}

// Record adds load for an operation on the given IrH value to the owning
// beacon point's cycle counters.
func (r *Ring) Record(irh int, kind loadstats.Kind, units int64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	p, err := r.pointFor(irh)
	if err != nil {
		return err
	}
	p.counter.Record(irh, kind, units)
	return nil
}

// Assignment is a snapshot of one beacon point's state.
type Assignment struct {
	ID         string
	Capability float64
	Sub        SubRange
	CycleLoad  int64
}

// Assignments returns the current sub-range assignment, ordered by position.
func (r *Ring) Assignments() []Assignment {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Assignment, len(r.points))
	for i, p := range r.points {
		out[i] = Assignment{ID: p.id, Capability: p.capability, Sub: p.sub, CycleLoad: p.counter.Total()}
	}
	return out
}

// Loads returns the current-cycle load of each beacon point, ordered by
// position.
func (r *Ring) Loads() []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]float64, len(r.points))
	for i, p := range r.points {
		out[i] = float64(p.counter.Total())
	}
	return out
}

// Move describes a block of IrH values whose lookup records must migrate
// from one beacon point to another after rebalancing.
type Move struct {
	From, To string
	Sub      SubRange
}

// Rebalance runs the paper's sub-range determination process and starts a
// new cycle: it computes each beacon point's fair share of the ring load
// (proportional to capability), then walks the boundaries from the first
// beacon point, shifting IrH values between neighbours. A beacon point with
// a load surplus sheds values from the top of its sub-range to its successor
// while the cumulative shed load stays within the surplus; a point with a
// deficit acquires values from the start of its successor's sub-range under
// the symmetric rule. The load a shift pushes onto the successor is taken
// into account when the successor's own boundary is decided.
//
// It returns the record migrations implied by the boundary moves and resets
// the cycle counters.
func (r *Ring) Rebalance() []Move {
	r.mu.Lock()
	defer r.mu.Unlock()

	n := len(r.points)
	if n < 2 {
		for _, p := range r.points {
			p.counter.Reset()
		}
		return nil
	}

	// Per-IrH-value loads over the whole range. In fine-grained mode these
	// are the recorded CIrHLd values; in coarse mode each point's cycle
	// load is spread evenly over its sub-range (the paper's CAvgLoad
	// approximation).
	valueLoad := make([]float64, r.intraGen)
	var totalLoad, totalCap float64
	for _, p := range r.points {
		totalCap += p.capability
		totalLoad += float64(p.counter.Total())
		if r.fineGrained {
			for v := p.sub.Lo; v <= p.sub.Hi; v++ {
				valueLoad[v] = float64(p.counter.IrHLoad(v))
			}
		} else if p.sub.Len() > 0 {
			avg := float64(p.counter.Total()) / float64(p.sub.Len())
			for v := p.sub.Lo; v <= p.sub.Hi; v++ {
				valueLoad[v] = avg
			}
		}
	}

	oldSubs := make([]SubRange, n)
	effLoad := make([]float64, n)
	for i, p := range r.points {
		oldSubs[i] = p.sub
		effLoad[i] = float64(p.counter.Total())
	}

	if totalLoad > 0 {
		// Walk boundaries left to right: boundary i separates point i and
		// point i+1.
		for i := 0; i < n-1; i++ {
			p, q := r.points[i], r.points[i+1]
			fair := p.capability / totalCap * totalLoad
			if effLoad[i] > fair {
				// Shrink p: shed top values to q while cumulative shed
				// load stays within the surplus.
				surplus := effLoad[i] - fair
				var shed float64
				for p.sub.Len() > 1 {
					v := p.sub.Hi
					if shed+valueLoad[v] > surplus {
						break
					}
					shed += valueLoad[v]
					p.sub.Hi--
					q.sub.Lo--
				}
				effLoad[i] -= shed
				effLoad[i+1] += shed
			} else if effLoad[i] < fair {
				// Expand p: acquire values from the start of q's range
				// while cumulative acquired load stays within the deficit.
				deficit := fair - effLoad[i]
				var gained float64
				for q.sub.Len() > 1 {
					v := q.sub.Lo
					if gained+valueLoad[v] > deficit {
						break
					}
					gained += valueLoad[v]
					p.sub.Hi++
					q.sub.Lo++
				}
				effLoad[i] += gained
				effLoad[i+1] -= gained
			}
		}
	}

	moves := diffAssignments(r.points, oldSubs)
	for _, p := range r.points {
		p.counter.Reset()
	}
	return moves
}

// diffAssignments computes the record migrations between the old and new
// sub-range layouts. Both layouts are contiguous partitions of the same
// range, so each IrH value has exactly one old and one new owner.
func diffAssignments(points []*point, oldSubs []SubRange) []Move {
	var moves []Move
	for i, p := range points {
		// Values now owned by p that were previously owned by others.
		for j, old := range oldSubs {
			if j == i {
				continue
			}
			lo := max(p.sub.Lo, old.Lo)
			hi := min(p.sub.Hi, old.Hi)
			if lo <= hi {
				moves = append(moves, Move{From: points[j].id, To: p.id, Sub: SubRange{Lo: lo, Hi: hi}})
			}
		}
	}
	sort.Slice(moves, func(i, j int) bool { return moves[i].Sub.Lo < moves[j].Sub.Lo })
	return moves
}

// Add inserts a new beacon point by splitting the sub-range of the point
// that currently covers the widest span (a simple, deterministic choice that
// keeps the layout contiguous). Returns the migration needed to hand the
// upper half of the split range to the new point.
func (r *Ring) Add(m Member) (Move, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m.Capability <= 0 {
		return Move{}, fmt.Errorf("%w: %q has %v", ErrBadCapability, m.ID, m.Capability)
	}
	for _, p := range r.points {
		if p.id == m.ID {
			return Move{}, fmt.Errorf("%w: %q", ErrDuplicatePoint, m.ID)
		}
	}
	if r.intraGen < len(r.points)+1 {
		return Move{}, ErrBadIntraGen
	}
	// Find the widest sub-range with at least 2 values.
	best := -1
	for i, p := range r.points {
		if p.sub.Len() >= 2 && (best == -1 || p.sub.Len() > r.points[best].sub.Len()) {
			best = i
		}
	}
	if best == -1 {
		return Move{}, errors.New("ring: no sub-range wide enough to split")
	}
	donor := r.points[best]
	mid := donor.sub.Lo + donor.sub.Len()/2
	newSub := SubRange{Lo: mid, Hi: donor.sub.Hi}
	donor.sub.Hi = mid - 1
	np := &point{
		id:         m.ID,
		capability: m.Capability,
		sub:        newSub,
		counter:    loadstats.NewCounter(r.intraGen, r.fineGrained),
	}
	r.points = append(r.points, nil)
	copy(r.points[best+2:], r.points[best+1:])
	r.points[best+1] = np
	return Move{From: donor.id, To: m.ID, Sub: newSub}, nil
}

// Remove deletes a beacon point, merging its sub-range into a neighbour
// (the predecessor when one exists, otherwise the successor). Returns the
// migration handing the departed range to the absorber. Used both for
// graceful departure and for failure handling.
func (r *Ring) Remove(id string) (Move, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	idx := -1
	for i, p := range r.points {
		if p.id == id {
			idx = i
			break
		}
	}
	if idx == -1 {
		return Move{}, fmt.Errorf("%w: %q", ErrUnknownPoint, id)
	}
	if len(r.points) == 1 {
		return Move{}, ErrLastPoint
	}
	dead := r.points[idx]
	var absorber *point
	if idx > 0 {
		absorber = r.points[idx-1]
		absorber.sub.Hi = dead.sub.Hi
	} else {
		absorber = r.points[idx+1]
		absorber.sub.Lo = dead.sub.Lo
	}
	r.points = append(r.points[:idx], r.points[idx+1:]...)
	return Move{From: id, To: absorber.id, Sub: dead.sub}, nil
}

// Sibling returns the ID of another beacon point in the ring — the
// predecessor when one exists, otherwise the successor. The cloud uses it as
// the lazy-replication target for lookup records (failure resilience,
// Section 2.3). Returns "" for single-point rings.
func (r *Ring) Sibling(id string) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, p := range r.points {
		if p.id != id {
			continue
		}
		if i > 0 {
			return r.points[i-1].id
		}
		if len(r.points) > 1 {
			return r.points[i+1].id
		}
		return ""
	}
	return ""
}

// Members returns the beacon-point IDs in position order.
func (r *Ring) Members() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, len(r.points))
	for i, p := range r.points {
		out[i] = p.id
	}
	return out
}
