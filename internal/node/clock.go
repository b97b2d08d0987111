package node

import (
	"sync"
	"time"
)

// Clock is the time source the live node layer runs on. Production nodes
// use the wall clock (RealClock); the deterministic simulation harness in
// internal/simnet substitutes a virtual clock whose timers fire from a
// single-goroutine event queue, so heartbeats, failure-detection sweeps,
// reconcile passes, breaker cooldowns, and retry backoffs all advance in
// simulated time with no real sleeps.
//
// The interface is deliberately minimal: periodic work is expressed as
// self-rescheduling AfterFunc chains rather than tickers, because a
// callback-style timer is the only primitive a virtual clock can run
// synchronously inside its scheduler (a ticker channel would hand control
// to a second goroutine and destroy determinism).
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
	// Since returns the elapsed time between t and Now.
	Since(t time.Time) time.Duration
	// AfterFunc schedules f to run once after d. With the real clock f
	// runs in its own goroutine (time.AfterFunc semantics); a virtual
	// clock runs it synchronously when simulated time reaches the
	// deadline.
	AfterFunc(d time.Duration, f func()) Timer
}

// Timer is a handle to a pending AfterFunc callback.
type Timer interface {
	// Stop cancels the pending callback. It reports whether the call
	// was still pending; a callback already started is not interrupted.
	Stop() bool
}

// realClock implements Clock over the time package.
type realClock struct{}

func (realClock) Now() time.Time                  { return time.Now() }
func (realClock) Since(t time.Time) time.Duration { return time.Since(t) }
func (realClock) AfterFunc(d time.Duration, f func()) Timer {
	return realTimer{time.AfterFunc(d, f)}
}

type realTimer struct{ t *time.Timer }

func (rt realTimer) Stop() bool { return rt.t.Stop() }

// RealClock returns the wall-clock Clock every node uses by default.
func RealClock() Clock { return realClock{} }

// clockOrReal resolves a possibly-nil configured clock to a usable one.
func clockOrReal(c Clock) Clock {
	if c == nil {
		return realClock{}
	}
	return c
}

// every runs f every interval — once immediately first when immediate is
// set — until the returned stop function is called. It is the
// AfterFunc-chain equivalent of the ticker loops the node layer used to
// run; under a virtual clock each firing happens synchronously in the
// simulation scheduler. The stop function is idempotent and safe to call
// concurrently, and returns once a firing already under way has finished
// (so what f holds — a connection it will hand back to the pool — is
// settled before the caller closes what f talks to); f must not call it.
func every(clock Clock, interval time.Duration, immediate bool, f func()) (stop func()) {
	var mu sync.Mutex      // guards stopped and timer
	var running sync.Mutex // held for the length of a firing
	stopped := false
	var timer Timer
	var fire func()
	schedule := func() {
		mu.Lock()
		if !stopped {
			timer = clock.AfterFunc(interval, fire)
		}
		mu.Unlock()
	}
	fire = func() {
		running.Lock()
		defer running.Unlock()
		mu.Lock()
		done := stopped
		mu.Unlock()
		if done {
			return // the timer fired as stop was called
		}
		f()
		schedule()
	}
	if immediate {
		f()
	}
	schedule()
	return func() {
		mu.Lock()
		stopped = true
		if timer != nil {
			timer.Stop()
		}
		mu.Unlock()
		running.Lock() // waits out a firing under way; nothing to guard
		running.Unlock()
	}
}
