package main

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"time"

	"cachecloud/internal/trace"
)

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	for i := range workloads {
		w := shrunk(&workloads[i])
		a := buildSchedule(&w, 7, 2).encode()
		if b := buildSchedule(&w, 7, 2).encode(); !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave two different schedules", w.name)
		}
		if c := buildSchedule(&w, 8, 2).encode(); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same schedule", w.name)
		}
	}
}

func TestScheduleShape(t *testing.T) {
	w := shrunk(workloadByName("full-stack"))
	s := buildSchedule(&w, 3, 4)
	var pubs, named int
	for _, o := range s.closed {
		if o.kind == opPublish {
			pubs++
		}
		if o.tenant != 0 {
			named++
		}
	}
	n := float64(len(s.closed))
	if got, want := float64(pubs)/n, 1.0/float64(w.readsPerPublish+1); math.Abs(got-want) > want/2 {
		t.Errorf("publish share %.3f, want about %.3f", got, want)
	}
	if got := float64(named) / n; math.Abs(got-0.5) > 0.1 {
		t.Errorf("named-tenant share %.3f, want about half", got)
	}
	for _, o := range s.warm {
		if o.kind != opDoc {
			t.Fatalf("warm-up holds a %v op", o.kind)
		}
	}
	last := time.Duration(0)
	for _, o := range s.open {
		if o.due < last || o.due >= s.openDur {
			t.Fatalf("due time %v out of order or past the phase (%v)", o.due, s.openDur)
		}
		last = o.due
	}

	w = shrunk(workloadByName("coop-miss"))
	s = buildSchedule(&w, 3, 4)
	for name, ops := range map[string][]op{"closed": s.closed, "open": s.open} {
		cycles := 0
		for _, o := range ops {
			if o.kind == opRebalance {
				cycles++
			}
		}
		if cycles != w.rebalances {
			t.Errorf("coop-miss %s phase has %d rebalance cycles, want %d", name, cycles, w.rebalances)
		}
	}
}

// The arrival process must follow rate x diurnal: the curve's mean is 0.51
// over the first and last third of the phase and 0.94 over the middle one.
func TestArrivalsFollowTheDayCurve(t *testing.T) {
	dur := 30 * time.Second
	due := arrivals(rand.New(rand.NewSource(1)), 2000, dur)
	var thirds [3]int
	for _, d := range due {
		thirds[int(3*d/dur)]++
	}
	if want := 2000 * 0.65 * dur.Seconds(); math.Abs(float64(len(due))-want) > want/20 {
		t.Errorf("%d arrivals, want about %.0f (mean of the curve is 0.65)", len(due), want)
	}
	if 2*thirds[1] < 3*thirds[0] || 2*thirds[1] < 3*thirds[2] {
		t.Errorf("arrivals per third %v do not peak in the middle", thirds)
	}
}

// diurnal copies an unexported function of internal/trace; GenerateSydney
// emits round(peak x intensity) requests per cache per unit, which pins it.
func TestDiurnalMatchesTrace(t *testing.T) {
	const units, peak = 200, 1000
	tr := trace.GenerateSydney(trace.SydneyConfig{
		Seed: 1, NumDocs: 10, Caches: 1, Duration: units, PeakReqPerCache: peak, UpdatesPerUnit: 1,
	})
	perUnit := make([]int, units)
	for _, ev := range tr.Events {
		if ev.Kind == trace.Request {
			perUnit[ev.Time]++
		}
	}
	for tu, got := range perUnit {
		if want := int(math.Round(peak * diurnal(float64(tu)/units))); got != want {
			t.Fatalf("unit %d: trace emitted %d requests, diurnal says %d", tu, got, want)
		}
	}
}

// shrunk is a workload with a tenth of the catalog, warm-up and rates: the
// same shape, small enough for the tests.
func shrunk(w *workload) workload {
	s := *w
	s.docs /= 10
	s.warmOps /= 10
	s.closedOpsPerSec /= 10
	s.peakRate /= 10
	return s
}
