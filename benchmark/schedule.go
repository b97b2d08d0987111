package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"time"

	"cachecloud/internal/document"
	"cachecloud/internal/trace"
)

type opKind uint8

const (
	opDoc opKind = iota
	opPublish
	// opRebalance is one POST /rebalance + POST /replicate cycle at the origin.
	opRebalance
)

// op is one generated client operation. due is the open phase's intended
// send time as an offset from the phase start (0 in the other phases).
type op struct {
	kind   opKind
	node   uint8 // entry node index (opDoc)
	tenant uint8 // index into tenantIDs (opDoc)
	doc    int32 // catalog index
	due    time.Duration
}

// schedule is everything the cluster will be asked to do in one run, fixed
// by (workload, seed, seconds) before the cluster boots.
type schedule struct {
	catalog []document.Document
	warm    []op
	closed  []op
	open    []op
	openDur time.Duration
}

func nodeNames() []string {
	names := make([]string, numNodes)
	for i := range names {
		names[i] = fmt.Sprintf("node-%02d", i)
	}
	return names
}

// diurnal is internal/trace's Sydney day curve (unexported there): one
// sinusoidal day over frac in [0,1), floor 0.3, peak 1.0 at frac 0.5.
// TestDiurnalMatchesTrace pins it to what GenerateSydney emits.
func diurnal(frac float64) float64 {
	return 0.65 + 0.35*math.Sin(2*math.Pi*frac-math.Pi/2)
}

// quietTail is how long before the open phase's end the last arrival may
// be due: a generator that keeps up has then sent everything when the phase
// ends, even across one of the box's 50 to 70 ms freezes (see README).
const quietTail = 100 * time.Millisecond

// arrivals draws the open phase's due times: a Poisson process of rate
// peak x diurnal(t/dur), by thinning a rate-peak process.
func arrivals(rng *rand.Rand, peak float64, dur time.Duration) []time.Duration {
	var out []time.Duration
	end := (dur - quietTail).Seconds()
	for t := rng.ExpFloat64() / peak; t < end; t += rng.ExpFloat64() / peak {
		if rng.Float64() < diurnal(t/dur.Seconds()) {
			out = append(out, time.Duration(t*float64(time.Second)))
		}
	}
	return out
}

// generateTrace asks internal/trace for the workload's catalog and at least
// needReads request events and needPubs update events, each stream in trace
// order. The requests of one trace unit are shuffled: the generators emit
// them grouped by cache, a live client population interleaves them.
func generateTrace(w *workload, seed int64, needReads, needPubs int) (docs []document.Document, reads, pubs []trace.Event) {
	names := nodeNames()
	readsPerUnit := float64(numNodes * w.peakReq)
	if w.sydney {
		readsPerUnit *= 0.65 // the day curve's mean
	}
	// UpdatesPerUnit 0 would silently become the paper's 195; read-only
	// workloads generate one update per unit and never use it.
	updates := 1
	if w.readsPerPublish > 0 {
		updates = int(readsPerUnit)/w.readsPerPublish + 2
	}
	for units := int64(float64(needReads)/readsPerUnit*1.15) + 2; ; units *= 2 {
		var tr *trace.Trace
		if w.sydney {
			drift := units / int64(w.hotDrifts)
			if drift < 1 {
				drift = 1
			}
			tr = trace.GenerateSydney(trace.SydneyConfig{
				Seed: seed, NumDocs: w.docs, CacheIDs: names, Duration: units,
				PeakReqPerCache: w.peakReq, UpdatesPerUnit: updates, HotDriftPeriod: drift,
			})
		} else {
			tr = trace.GenerateZipf(trace.ZipfConfig{
				Seed: seed, NumDocs: w.docs, Alpha: w.alpha, CacheIDs: names, Duration: units,
				ReqPerCache: w.peakReq, UpdatesPerUnit: updates,
			})
		}
		reads, pubs = tr.FilterKind(trace.Request).Events, tr.FilterKind(trace.Update).Events
		if len(reads) < needReads || len(pubs) < needPubs {
			continue
		}
		rng := rand.New(rand.NewSource(seed ^ 0x5eed5))
		for lo := 0; lo < len(reads); {
			hi := lo
			for hi < len(reads) && reads[hi].Time == reads[lo].Time {
				hi++
			}
			unit := reads[lo:hi]
			rng.Shuffle(len(unit), func(i, j int) { unit[i], unit[j] = unit[j], unit[i] })
			lo = hi
		}
		return tr.Docs, reads, pubs
	}
}

// buildSchedule generates the run's operations from the seed. seconds is
// the measured time: closedShare of it sizes the closed phase's op count,
// openShare is the open phase's length.
func buildSchedule(w *workload, seed int64, seconds float64) *schedule {
	s := &schedule{openDur: time.Duration(seconds * openShare * float64(time.Second))}
	due := arrivals(rand.New(rand.NewSource(seed^0xa771)), w.peakRate, s.openDur)
	closedN := int(float64(w.closedOpsPerSec) * seconds * closedShare)
	warmN := 0
	if w.warm == warmReplay {
		warmN = w.warmOps
	}
	total, needPubs := warmN+closedN+len(due), 0
	if w.readsPerPublish > 0 {
		// A publish is drawn one time in readsPerPublish+1; twice the mean
		// is far more than any seed draws.
		needPubs = 2 * total / (w.readsPerPublish + 1)
	}
	docs, reads, pubs := generateTrace(w, seed, total, needPubs)
	s.catalog = docs

	docIdx := make(map[string]int32, len(docs))
	for i, d := range docs {
		docIdx[d.URL] = int32(i)
	}
	nodeIdx := make(map[string]uint8, numNodes)
	for i, n := range nodeNames() {
		nodeIdx[n] = uint8(i)
	}
	// take draws the next n ops: a publish with probability 1 in
	// readsPerPublish+1 (when publishes is set), else a request; each
	// stream is consumed in trace order, so the mix is the same all run
	// long whatever the trace's own day curve does.
	mix := rand.New(rand.NewSource(seed ^ 0x7e4a47))
	take := func(n int, publishes bool) []op {
		ops := make([]op, n)
		for i := range ops {
			if publishes && w.readsPerPublish > 0 && mix.Intn(w.readsPerPublish+1) == 0 {
				ops[i] = op{kind: opPublish, doc: docIdx[pubs[0].URL]}
				pubs = pubs[1:]
				continue
			}
			ops[i] = op{doc: docIdx[reads[0].URL], node: nodeIdx[reads[0].Cache]}
			reads = reads[1:]
			if w.tenants {
				// Half default, a quarter each on alpha and beta.
				if r := mix.Intn(4); r >= 2 {
					ops[i].tenant = uint8(r - 1)
				}
			}
		}
		return ops
	}

	switch w.warm {
	case warmEveryDoc:
		s.warm = make([]op, 0, numNodes*len(docs))
		for n := 0; n < numNodes; n++ {
			for d := range docs {
				s.warm = append(s.warm, op{node: uint8(n), doc: int32(d)})
			}
		}
	case warmReplay:
		// Warm-up fills caches; publishes belong to the timed phases.
		s.warm = take(warmN, false)
	}
	s.closed = withRebalances(take(closedN, true), w.rebalances, nil)
	open := take(len(due), true)
	for i := range open {
		open[i].due = due[i]
	}
	s.open = withRebalances(open, w.rebalances, func(k int) time.Duration {
		return s.openDur * time.Duration(k) / time.Duration(w.rebalances+1)
	})
	return s
}

// withRebalances inserts cycles rebalance ops at evenly spaced points of
// ops: by position when dueAt is nil, else before the first op due after
// dueAt(k).
func withRebalances(ops []op, cycles int, dueAt func(k int) time.Duration) []op {
	if cycles == 0 {
		return ops
	}
	out := make([]op, 0, len(ops)+cycles)
	k := 1
	for i, o := range ops {
		for k <= cycles {
			if dueAt == nil && i < k*len(ops)/(cycles+1) {
				break
			}
			if dueAt != nil && o.due < dueAt(k) {
				break
			}
			r := op{kind: opRebalance}
			if dueAt != nil {
				r.due = dueAt(k)
			}
			out = append(out, r)
			k++
		}
		out = append(out, o)
	}
	return out
}

// encode serialises the schedule (catalog URLs and sizes, then every op's
// kind, node, tenant, document and due time) for the determinism test.
func (s *schedule) encode() []byte {
	var b bytes.Buffer
	for _, d := range s.catalog {
		b.WriteString(d.URL)
		_ = binary.Write(&b, binary.LittleEndian, d.Size)
	}
	for _, phase := range [][]op{s.warm, s.closed, s.open} {
		_ = binary.Write(&b, binary.LittleEndian, int64(len(phase)))
		for _, o := range phase {
			b.Write([]byte{byte(o.kind), o.node, o.tenant})
			_ = binary.Write(&b, binary.LittleEndian, o.doc)
			_ = binary.Write(&b, binary.LittleEndian, int64(o.due))
		}
	}
	return b.Bytes()
}
