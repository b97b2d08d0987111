package main

import (
	"math"
	"testing"
	"time"
)

// Each block is read against the mean of the reference blocks before and
// after it, and the medians over the blocks are what is published.
func TestRelativeReadsBlocksAgainstTheirNeighbours(t *testing.T) {
	ph := newPhase(make([]op, 5))
	ph.ops[4].kind = opPublish // not a /doc: neither counted nor timed
	ph.send = []int64{0, 0, 0, 0, 0}
	ph.done = []int64{300, 600, 600, 900, 5000}
	ph.blocks = []block{{0, 2, time.Second}, {2, 5, time.Second / 2}}
	ph.refs = []refStat{{rate: 10, p50Ns: 100}, {rate: 20, p50Ns: 200}, {rate: 40, p50Ns: 400}}

	rate, lat := ph.relative(0.5)
	// Block 0: 2 docs/s over a reference of 15/s; block 1: 4/s over 30/s.
	if want := 2.0 / 15; math.Abs(rate-want) > 1e-12 {
		t.Errorf("relative rate %v, want %v", rate, want)
	}
	// Block 0: median 300 ns over 150 ns; block 1: 600 ns over 300 ns.
	if len(lat) != 1 || lat[0] != 2 {
		t.Errorf("relative median latency %v, want [2]", lat)
	}

	ph.status[1] = stFailed // a failed /doc is neither a reply nor a latency
	rate, lat = ph.relative(0.5)
	if want := (1.0/15 + 4.0/30) / 2; math.Abs(rate-want) > 1e-12 || lat[0] != 2 {
		t.Errorf("with a failed op: rate %v (want %v), latency %v (want 2)", rate, want, lat[0])
	}
}

func TestReferenceAnswers(t *testing.T) {
	ref, err := startReference(1)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.close()
	st := ref.block(2)
	if st.bad != 0 || st.rate <= 0 || st.p50Ns <= 0 {
		t.Errorf("reference block: %+v", st)
	}
}
