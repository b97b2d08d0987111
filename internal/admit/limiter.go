package admit

import (
	"context"
	"math"
	"sync"
	"time"
)

// LimitMode selects the adaptation law of a Limiter.
type LimitMode string

const (
	// LimitAIMD (the default): additive increase on healthy samples,
	// multiplicative decrease when a sample is slow or fails.
	LimitAIMD LimitMode = "aimd"
	// LimitFixed: the limit never adapts (a plain bounded semaphore).
	LimitFixed LimitMode = "fixed"
)

// The adaptation law's constants.
const (
	// limitMin is the limit floor: the limiter never starves the path
	// entirely.
	limitMin = 1
	// slowFactor: a sample slower than slowFactor × the moving baseline
	// counts as congestion.
	slowFactor = 2.0
	// backoff is the multiplicative decrease applied on congestion.
	backoff = 0.5
	// baselineAlpha is the EWMA weight of a healthy sample in the moving
	// latency baseline. Slow samples are folded in at baselineAlpha/8 so a
	// persistent slowdown only creeps into the baseline instead of
	// instantly becoming the new normal.
	baselineAlpha = 1.0 / 16
	// limiterQueueDeadline is the maximum time a waiter spends queued
	// before being shed.
	limiterQueueDeadline = 500 * time.Millisecond
)

// LimiterOptions tunes a Limiter. Zero values select the documented
// defaults.
type LimiterOptions struct {
	// Mode is the adaptation law (default LimitAIMD; any value but
	// LimitFixed runs it).
	Mode LimitMode
	// Initial is the starting limit (default Max/4, at least 1).
	Initial int
	// Max is the limit ceiling (default 16).
	Max int
	// QueueCap bounds waiters blocked at the limit (default Max×2).
	QueueCap int
	// Clock is the deadline time source (nil = wall clock).
	Clock Clock
}

// limiterWaiter is one caller blocked at the limit.
type limiterWaiter struct {
	grant chan struct{}
	done  bool // granted or abandoned (guarded by Limiter.mu)
}

// Limiter adaptively bounds in-flight origin fetches. Each release
// reports the observed latency and outcome; the limit shrinks
// multiplicatively when the origin slows relative to a moving baseline
// and grows additively while it is healthy, so a slowed origin is
// automatically protected from a miss storm. All adaptation state is
// driven purely by reported samples — the limiter never reads a clock
// except for queue deadlines — so the deterministic models can step it
// reproducibly via TryAcquire/Release.
type Limiter struct {
	opts LimiterOptions

	mu       sync.Mutex
	limit    float64
	inflight int
	baseline float64 // moving latency baseline, milliseconds
	queue    []*limiterWaiter
}

// NewLimiter builds a limiter, applying defaults for zero-valued
// options.
func NewLimiter(opts LimiterOptions) *Limiter {
	if opts.Max <= 0 {
		opts.Max = 16
	}
	if opts.Initial <= 0 {
		opts.Initial = opts.Max / 4
	}
	if opts.Initial < limitMin {
		opts.Initial = limitMin
	}
	if opts.Initial > opts.Max {
		opts.Initial = opts.Max
	}
	if opts.QueueCap <= 0 {
		opts.QueueCap = opts.Max * 2
	}
	opts.Clock = clockOrReal(opts.Clock)
	return &Limiter{opts: opts, limit: float64(opts.Initial)}
}

// Acquire admits one in-flight origin fetch, blocking while the current
// limit is reached. On success it returns a release function that must
// be called with the observed fetch latency and outcome. Refusals are
// *ShedError (queue at cap, or queue deadline passed); a caller whose
// ctx ends first gets ctx.Err() and frees its queue slot.
func (l *Limiter) Acquire(ctx context.Context) (release func(latency time.Duration, ok bool), err error) {
	l.mu.Lock()
	if len(l.queue) == 0 && l.inflight < l.limitLocked() {
		l.inflight++
		l.mu.Unlock()
		return l.releaser(), nil
	}
	if len(l.queue) >= l.opts.QueueCap {
		l.mu.Unlock()
		return nil, &ShedError{Class: Miss, Reason: ReasonLimit, RetryAfter: limiterQueueDeadline}
	}
	w := &limiterWaiter{grant: make(chan struct{})}
	l.queue = append(l.queue, w)
	l.mu.Unlock()

	expired := make(chan struct{})
	timer := l.opts.Clock.AfterFunc(limiterQueueDeadline, func() { close(expired) })
	defer timer.Stop()

	select {
	case <-w.grant:
		return l.releaser(), nil
	case <-expired:
		if l.abandon(w) {
			return nil, &ShedError{Class: Miss, Reason: ReasonQueueDeadline, RetryAfter: limiterQueueDeadline}
		}
		<-w.grant
		return l.releaser(), nil
	case <-ctx.Done():
		if l.abandon(w) {
			return nil, ctx.Err()
		}
		<-w.grant
		return l.releaser(), nil
	}
}

// TryAcquire is the non-blocking variant used by the deterministic
// models: it admits only when under the limit with an empty queue.
// Pair each successful TryAcquire with one Release call.
func (l *Limiter) TryAcquire() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.queue) > 0 || l.inflight >= l.limitLocked() {
		return false
	}
	l.inflight++
	return true
}

// Release completes one TryAcquire admission, reporting the observed
// latency and outcome to the adaptation law.
func (l *Limiter) Release(latency time.Duration, ok bool) {
	l.mu.Lock()
	l.inflight--
	l.observeLocked(latency, ok)
	l.pumpLocked()
	l.mu.Unlock()
}

// abandon removes a still-pending waiter. False means the waiter was
// already granted.
func (l *Limiter) abandon(w *limiterWaiter) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if w.done {
		return false
	}
	w.done = true
	for i, qw := range l.queue {
		if qw == w {
			l.queue = append(l.queue[:i], l.queue[i+1:]...)
			break
		}
	}
	return true
}

// releaser builds the idempotent release function for one admission.
func (l *Limiter) releaser() func(latency time.Duration, ok bool) {
	var once sync.Once
	return func(latency time.Duration, ok bool) {
		once.Do(func() { l.Release(latency, ok) })
	}
}

// observeLocked folds one completed-fetch sample into the limit and the
// moving baseline.
func (l *Limiter) observeLocked(latency time.Duration, ok bool) {
	ms := float64(latency) / float64(time.Millisecond)
	if ms < 0 {
		ms = 0
	}
	if l.baseline == 0 && ok {
		l.baseline = ms
	}
	slow := !ok || (l.baseline > 0 && ms > slowFactor*l.baseline)
	switch {
	case l.opts.Mode == LimitFixed:
		// No adaptation.
	case slow:
		l.limit = l.clamp(l.limit * backoff)
	default:
		l.limit = l.clamp(l.limit + 1/math.Max(l.limit, 1))
	}
	if ok {
		alpha := baselineAlpha
		if slow {
			alpha /= 8
		}
		if l.baseline == 0 {
			l.baseline = ms
		} else {
			l.baseline = (1-alpha)*l.baseline + alpha*ms
		}
	}
}

func (l *Limiter) clamp(v float64) float64 {
	if v < limitMin {
		return limitMin
	}
	if v > float64(l.opts.Max) {
		return float64(l.opts.Max)
	}
	return v
}

// limitLocked is the integer admission limit (floor of the fractional
// limit, never below limitMin).
func (l *Limiter) limitLocked() int {
	n := int(l.limit)
	if n < limitMin {
		n = limitMin
	}
	return n
}

// pumpLocked grants queued waiters while under the limit.
func (l *Limiter) pumpLocked() {
	for len(l.queue) > 0 && l.inflight < l.limitLocked() {
		w := l.queue[0]
		l.queue = l.queue[1:]
		w.done = true
		l.inflight++
		close(w.grant)
	}
}

// Limit returns the current integer admission limit.
func (l *Limiter) Limit() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.limitLocked()
}

// Max returns the configured limit ceiling.
func (l *Limiter) Max() int { return l.opts.Max }

// InFlight returns the number of admissions currently held.
func (l *Limiter) InFlight() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.inflight
}

// Queued returns the number of callers blocked at the limit.
func (l *Limiter) Queued() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.queue)
}

// Baseline returns the moving latency baseline in milliseconds.
func (l *Limiter) Baseline() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.baseline
}
