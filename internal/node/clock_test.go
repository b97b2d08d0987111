package node

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestEveryStopWaitsForTheFiringUnderWay: a heartbeat or reconcile round
// that is on the wire when its stop function is called has finished when
// the call returns, and none starts afterwards — the caller may close what
// the round talks to. (checkLeaks found the other behaviour: a round that
// outlived LocalCluster.Close handed its connection back to the pool.)
func TestEveryStopWaitsForTheFiringUnderWay(t *testing.T) {
	var started, finished atomic.Int64
	entered := make(chan struct{}, 1)
	stop := every(RealClock(), time.Millisecond, false, func() {
		started.Add(1)
		select {
		case entered <- struct{}{}:
		default:
		}
		time.Sleep(30 * time.Millisecond)
		finished.Add(1)
	})
	<-entered // a firing is under way
	stop()
	if s, f := started.Load(), finished.Load(); s != f {
		t.Fatalf("stop returned with %d firings started and %d finished", s, f)
	}
	n := started.Load()
	time.Sleep(20 * time.Millisecond)
	if started.Load() != n {
		t.Fatal("a firing started after stop returned")
	}
	stop() // idempotent
}
