// Package admit implements the overload-resilience primitives for the
// live node layer: a weighted class-priority admission gate with
// explicit queue caps and queue-time deadlines (Gate), an adaptive
// AIMD concurrency limiter for the origin-fetch path
// (Limiter), and a singleflight coalescer that collapses concurrent
// misses for the same document version into one wire fetch (Coalescer).
//
// The package is stdlib-only, clock-injectable, and every primitive has
// a non-blocking TryAcquire/Release surface in addition to the blocking
// context one, so the deterministic stormsweep experiment and the
// simulation harness can drive the exact state machines the production
// nodes run — no goroutines, no wall clock.
//
// Every refusal is a *ShedError (matched by errors.Is against ErrShed),
// never a bare timeout: shedding is a deliberate, typed decision the
// wire layer translates into HTTP 429 with a Retry-After hint.
//
// The primitives keep state, not books: what is in flight or queued, the
// limiter's limit and baseline, the active flights. Admissions, sheds and
// coalesced calls are counted by the caller that sees them (the node's
// metrics registry), once.
package admit

import (
	"errors"
	"fmt"
	"time"
)

// Class is a work class competing for a node's admission capacity.
// Priority follows declared order: queued Hit work is always admitted
// before queued Lookup work, which beats queued Miss work, so a miss
// storm can never starve hit serving.
type Class int

const (
	// Hit is serving an already-stored copy — cheap and latency-critical.
	Hit Class = iota
	// Lookup is the cooperation phase: beacon lookups and peer retrieval.
	Lookup
	// Miss is an origin fetch — the expensive class that storms.
	Miss
	numClasses
)

// NumClasses is the number of work classes.
const NumClasses = int(numClasses)

// String returns the wire name of the class ("hit", "lookup", "miss").
func (c Class) String() string {
	switch c {
	case Hit:
		return "hit"
	case Lookup:
		return "lookup"
	case Miss:
		return "miss"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// Classes lists every work class in priority order.
func Classes() []Class { return []Class{Hit, Lookup, Miss} }

// ErrShed is the sentinel every shed decision matches via errors.Is.
var ErrShed = errors.New("admit: shed")

// Shed reasons carried by ShedError.Reason.
const (
	// ReasonQueueFull: the class queue was already at its cap on arrival.
	ReasonQueueFull = "queue-full"
	// ReasonQueueDeadline: the work waited its full queue-time budget
	// without being admitted.
	ReasonQueueDeadline = "queue-deadline"
	// ReasonLimit: the adaptive limiter refused new in-flight work.
	ReasonLimit = "limit"
	// ReasonTenantShare: the tenant exhausted its weighted fair share of
	// the node's admission capacity (other tenants still have headroom).
	ReasonTenantShare = "tenant-share"
)

// ShedError reports that work was deliberately refused by the overload
// layer. It is distinct from a timeout or a transport failure: the node
// is alive and chose not to take the work, and RetryAfter hints when a
// retry is likely to be admitted.
type ShedError struct {
	Class      Class
	Reason     string
	RetryAfter time.Duration
	// Tenant is the tenant whose quota or fair share triggered the shed;
	// empty when the refusal was tenant-agnostic (global overload).
	Tenant string
}

func (e *ShedError) Error() string {
	if e.Tenant != "" {
		return fmt.Sprintf("admit: shed %s for tenant %q (%s, retry after %v)", e.Class, e.Tenant, e.Reason, e.RetryAfter)
	}
	return fmt.Sprintf("admit: shed %s (%s, retry after %v)", e.Class, e.Reason, e.RetryAfter)
}

// Is makes errors.Is(err, ErrShed) true for every *ShedError.
func (e *ShedError) Is(target error) bool { return target == ErrShed }

// Timer is a handle to a pending AfterFunc callback.
type Timer interface{ Stop() bool }

// Clock is the minimal time source the gate and limiter need for queue
// deadlines. node.Clock satisfies it through a one-line adapter; nil
// selects the wall clock.
type Clock interface {
	Now() time.Time
	AfterFunc(d time.Duration, f func()) Timer
}

type realClock struct{}

type realTimer struct{ t *time.Timer }

func (rt realTimer) Stop() bool { return rt.t.Stop() }

func (realClock) Now() time.Time { return time.Now() }

func (realClock) AfterFunc(d time.Duration, f func()) Timer {
	return realTimer{time.AfterFunc(d, f)}
}

func clockOrReal(c Clock) Clock {
	if c == nil {
		return realClock{}
	}
	return c
}
