package main

import (
	"math"
	"slices"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef declares a metric in BENCHMARK.json's terms. bound applies to
// end-to-end metrics only: the share of the parent's median by which the
// metric may worsen.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
}

// endToEnd is what a user of the cluster sees. The three closed-phase
// figures are multiples of the reference server's, measured in alternating
// blocks (reference.go); the absolute figures are per-layer metrics.
// TestBenchmarkJSONMatchesTheProgram keeps BENCHMARK.json equal to this table.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"doc_rate_rel", "ratio", "higher", 0.25},
	{"busy_p50_rel", "ratio", "lower", 0.25},
	{"busy_p90_rel", "ratio", "lower", 0.25},
	{"origin_offload", "ratio", "higher", 0.05},
	{"live_heap_mb", "MB", "lower", 0.10},
}

// ladderRungs are the per-layer cost ladder, in request-path order.
var ladderRungs = []metricDef{
	{"document.hash_ns", "ns", "lower", 0},
	{"document.tenant_key_ns", "ns", "lower", 0},
	{"ring.owner_ns", "ns", "lower", 0},
	{"core.lookup_ns", "ns", "lower", 0},
	{"core.update_ns", "ns", "lower", 0},
	{"cache.get_ns", "ns", "lower", 0},
	{"cache.put_evict_ns", "ns", "lower", 0},
	{"cache.apply_update_ns", "ns", "lower", 0},
	{"admit.gate_ns", "ns", "lower", 0},
	{"tenant.fairshare_ns", "ns", "lower", 0},
	{"placement.utility_ns", "ns", "lower", 0},
	{"durable.put_ns", "ns", "lower", 0},
	{"durable.open_replay_ms", "ms", "lower", 0},
	{"obs.observe_ns", "ns", "lower", 0},
	{"node.encode_doc_ns", "ns", "lower", 0},
	{"node.doc_hit_handler_ns", "ns", "lower", 0},
	{"node.lookup_handler_ns", "ns", "lower", 0},
	{"node.fetch_handler_ns", "ns", "lower", 0},
	{"node.apply_handler_ns", "ns", "lower", 0},
	{"node.sfetch_handler_ns", "ns", "lower", 0},
	{"node.origin_fetch_handler_ns", "ns", "lower", 0},
	{"node.http_hop_ns", "ns", "lower", 0},
	{"node.doc_hit_wire_ns", "ns", "lower", 0},
	{"ladder.handler_gap_ns", "ns", "lower", 0},
	{"ladder.wire_gap_ns", "ns", "lower", 0},
}

// countMetrics come from the untraced pass: the generator's own view (the
// open phase's percentiles are from the due time), the nodes' /stats and the
// Go runtime. Several were end-to-end in the issue and could not be, by the
// driver's contract or for want of repeating (see README).
var countMetrics = []metricDef{
	{"client.doc_rps", "1/s", "higher", 0},
	{"client.busy_p50_ms", "ms", "lower", 0},
	{"client.busy_p90_ms", "ms", "lower", 0},
	{"client.busy_p99_ms", "ms", "lower", 0},
	{"ref.rps", "1/s", "higher", 0},
	{"ref.p50_ms", "ms", "lower", 0},
	{"client.p50_ms", "ms", "lower", 0},
	{"client.p95_ms", "ms", "lower", 0},
	{"client.p99_ms", "ms", "lower", 0},
	{"client.p999_ms", "ms", "lower", 0},
	{"client.p99_trough_ms", "ms", "lower", 0},
	{"client.p99_peak_ms", "ms", "lower", 0},
	{"client.local_p50_ms", "ms", "lower", 0},
	{"client.peer_p50_ms", "ms", "lower", 0},
	{"client.origin_p50_ms", "ms", "lower", 0},
	{"client.gen_lag_p90_ms", "ms", "lower", 0},
	{"client.gen_lag_p99_ms", "ms", "lower", 0},
	{"client.backlog_end", "count", "lower", 0},
	{"node.local_hit_ratio", "ratio", "higher", 0},
	{"node.peer_hit_ratio", "ratio", "higher", 0},
	{"node.shed", "count", "lower", 0},
	{"node.failed", "count", "lower", 0},
	{"node.coalesced", "count", "higher", 0},
	{"node.failed_over", "count", "lower", 0},
	{"node.degraded", "count", "lower", 0},
	{"node.shield_hit_ratio", "ratio", "higher", 0},
	{"node.update_msgs_per_publish", "count", "lower", 0},
	{"ring.beacon_load_cov", "ratio", "lower", 0},
	{"ring.rebalance_ms", "ms", "lower", 0},
	{"tenant.shed_ratio", "ratio", "lower", 0},
	{"durable.store_bytes", "bytes", "lower", 0},
	{"durable.compactions", "count", "lower", 0},
	{"durable.errors", "count", "lower", 0},
	{"runtime.cpu_ms_per_req", "ms", "lower", 0},
	{"runtime.allocs_per_req", "count", "lower", 0},
	{"runtime.bytes_per_req", "bytes", "lower", 0},
	{"runtime.gc_pause_ms", "ms", "lower", 0},
	{"runtime.peak_rss_mb", "MB", "lower", 0},
	{"trace.overhead_ratio", "ratio", "higher", 0},
	{"trace.orphan_ratio", "ratio", "lower", 0},
	{"client.publish_p50_ms", "ms", "lower", 0},
	{"client.publish_p99_ms", "ms", "lower", 0},
	{"client.slo_miss_ratio", "ratio", "lower", 0},
	{"client.doc_fail_ratio", "ratio", "lower", 0},
}

// perLayer lists every per-layer metric a traced run prints: the ladder,
// two numbers per span name, the counts.
func perLayer() []metricDef {
	out := append([]metricDef(nil), ladderRungs...)
	for _, name := range spanNames[:numSpanNames] {
		out = append(out,
			metricDef{"span." + name + ".per_req", "count", "lower", 0},
			metricDef{"span." + name + ".self_us_per_req", "us", "lower", 0})
	}
	return append(out, countMetrics...)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantileNs is the nearest-rank q-quantile of sorted values; 0 when there
// are none.
func quantileNs(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// quantileMs is quantileNs of nanosecond values, in milliseconds.
func quantileMs(sorted []int64, q float64) float64 { return float64(quantileNs(sorted, q)) / 1e6 }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// latencies returns the sorted latencies of the phase's successful ops of
// one kind that keep satisfies: from the due time in the open phase, from
// the send otherwise.
func (ph *phase) latencies(kind opKind, open bool, keep func(i int) bool) []int64 {
	var out []int64
	for i, o := range ph.ops {
		if o.kind != kind || ph.status[i] != stOK || (keep != nil && !keep(i)) {
			continue
		}
		from := ph.send[i]
		if open {
			from = int64(o.due)
		}
		out = append(out, ph.done[i]-from)
	}
	slices.Sort(out)
	return out
}

// count returns how many ops of a kind the phase holds and how many of
// them succeeded.
func (ph *phase) count(kind opKind) (all, ok int) {
	for i, o := range ph.ops {
		if o.kind == kind {
			all++
			if ph.status[i] == stOK {
				ok++
			}
		}
	}
	return all, ok
}

// docRate is the closed phase's OK /doc replies per wall second.
func (p *pass) docRate() float64 {
	_, ok := p.closed.count(opDoc)
	return float64(ok) / p.closed.wall.Seconds()
}

// relative reads the closed phase against the reference: for each block,
// the block's /doc rate over the mean rate of the reference blocks on either
// side of it, and the block's q-quantiles of /doc latency over the mean of
// those reference blocks' median latency; of each, the median over the
// blocks.
func (ph *phase) relative(qs ...float64) (rate float64, lat []float64) {
	rates := make([]float64, len(ph.blocks))
	lats := make([][]float64, len(qs))
	for k, b := range ph.blocks {
		before, after := ph.refs[k], ph.refs[k+1]
		var ns []int64
		for i := b.lo; i < b.hi; i++ {
			if ph.ops[i].kind == opDoc && ph.status[i] == stOK {
				ns = append(ns, ph.done[i]-ph.send[i])
			}
		}
		slices.Sort(ns)
		rates[k] = float64(len(ns)) / b.wall.Seconds() / ((before.rate + after.rate) / 2)
		for j, q := range qs {
			lats[j] = append(lats[j], float64(quantileNs(ns, q))/(float64(before.p50Ns+after.p50Ns)/2))
		}
	}
	lat = make([]float64, len(qs))
	for j := range qs {
		lat[j] = median(lats[j])
	}
	return median(rates), lat
}

// median is the second quartile of v.
func median(v []float64) float64 {
	_, m, _ := quartiles(v)
	return m
}

// sloMisses counts open-phase /doc ops that failed, were shed or took
// longer than the workload's limit, counted from the due time.
func (p *pass) sloMisses() (misses, docs int) {
	for i, o := range p.open.ops {
		if o.kind != opDoc {
			continue
		}
		docs++
		if p.open.status[i] != stOK || p.open.done[i]-int64(o.due) > int64(p.w.slo) {
			misses++
		}
	}
	return misses, docs
}

// endToEndMetrics are the numbers an untraced pass publishes. All of them
// come from the closed phase, where nothing idles: the open phase's
// percentiles did not repeat on this box (README, "Noise") and are per-layer
// metrics.
func (p *pass) endToEndMetrics() map[string]metric {
	rate, lat := p.closed.relative(0.50, 0.90)
	closedDocs, _ := p.closed.count(opDoc)
	originFetches := p.s1.origin.Fetches - p.s0.origin.Fetches
	return map[string]metric{
		"setup_s":        {p.setup.Seconds(), "s"},
		"doc_rate_rel":   {rate, "ratio"},
		"busy_p50_rel":   {lat[0], "ratio"},
		"busy_p90_rel":   {lat[1], "ratio"},
		"origin_offload": {1 - ratio(float64(originFetches), float64(closedDocs)), "ratio"},
		"live_heap_mb":   {float64(p.liveHeap) / (1 << 20), "MB"},
	}
}

// countMetricValues are the per-layer counts and ratios of an untraced
// pass; traced is the same workload's traced pass and tsum the summary of
// its spans.
func (p *pass) countMetricValues(traced *pass, tsum spanSummary) map[string]metric {
	open := p.open
	intensity := func(i int) float64 { return diurnal(float64(open.ops[i].due) / float64(p.eng.sched.openDur)) }
	bySource := func(src uint8) []int64 {
		return open.latencies(opDoc, true, func(i int) bool { return open.source[i] == src })
	}
	lat := open.latencies(opDoc, true, nil)
	// Thirds of the curve's range [0.3, 1.0].
	trough := open.latencies(opDoc, true, func(i int) bool { return intensity(i) < 0.3+0.7/3 })
	peak := open.latencies(opDoc, true, func(i int) bool { return intensity(i) > 1-0.7/3 })
	pub := open.latencies(opPublish, true, nil)

	var d struct {
		served, local, peer, shed, failed, coalesced, failedOver, degraded int64
		shieldFetches, shieldHits, storeBytes, compactions, durableErrs    int64
		tenantReq, tenantShed, fanned                                      int64
	}
	beacon := make([]float64, len(p.s2.caches))
	for i, b := range p.s2.caches {
		a := p.s0.caches[i]
		d.served += b.Served - a.Served
		d.local += b.LocalHits - a.LocalHits
		d.peer += b.PeerHits - a.PeerHits
		d.shed += b.Shed - a.Shed
		d.failed += b.Failed - a.Failed
		d.coalesced += b.Coalesced - a.Coalesced
		d.failedOver += b.FailedOver - a.FailedOver
		d.degraded += b.Degraded - a.Degraded
		d.shieldFetches += b.ShieldFetches - a.ShieldFetches
		d.shieldHits += b.ShieldHits - a.ShieldHits
		d.storeBytes += b.StoreBytes
		d.compactions += b.StoreCompactions
		d.durableErrs += b.DurableErrors
		for _, ts := range b.Tenants {
			d.tenantReq += ts.Requests
			d.tenantShed += ts.Shed
		}
		beacon[i] = float64(b.BeaconOps - a.BeaconOps)
	}
	for i, b := range p.s2.shields {
		d.fanned += b.UpdatesFanned - p.s0.shields[i].UpdatesFanned
	}
	// Messages one publish causes: origin to shields (or to the beacon),
	// shields to beacons, beacons to holders.
	pubs := float64(p.eng.publishes.Load())
	msgs := float64(p.eng.notified.Load() + p.eng.shieldsNotified.Load() + d.fanned)
	if p.w.shields == 0 {
		msgs += pubs
	}

	var rebalNs, rebals int64
	timed := int64(len(p.closed.ops) + len(p.open.ops))
	var notOK int64
	for _, ph := range []*phase{p.closed, open} {
		for i, o := range ph.ops {
			if o.kind == opRebalance {
				rebalNs += ph.done[i] - ph.send[i]
				rebals++
			}
			if ph.status[i] != stOK {
				notOK++
			}
		}
	}
	misses, docs := p.sloMisses()
	lag := p.genLag()
	busy := p.closed.latencies(opDoc, false, nil)
	var refRate, refP50 []float64
	for _, r := range p.closed.refs {
		refRate, refP50 = append(refRate, r.rate), append(refP50, float64(r.p50Ns)/1e6)
	}
	plainRate, _ := p.closed.relative()
	tracedRate, _ := traced.closed.relative()

	return map[string]metric{
		"client.doc_rps":               {p.docRate(), "1/s"},
		"client.busy_p50_ms":           {quantileMs(busy, 0.50), "ms"},
		"client.busy_p90_ms":           {quantileMs(busy, 0.90), "ms"},
		"client.busy_p99_ms":           {quantileMs(busy, 0.99), "ms"},
		"ref.rps":                      {median(refRate), "1/s"},
		"ref.p50_ms":                   {median(refP50), "ms"},
		"client.p50_ms":                {quantileMs(lat, 0.50), "ms"},
		"client.p95_ms":                {quantileMs(lat, 0.95), "ms"},
		"client.p99_ms":                {quantileMs(lat, 0.99), "ms"},
		"client.p999_ms":               {quantileMs(lat, 0.999), "ms"},
		"client.p99_trough_ms":         {quantileMs(trough, 0.99), "ms"},
		"client.p99_peak_ms":           {quantileMs(peak, 0.99), "ms"},
		"client.local_p50_ms":          {quantileMs(bySource(srcLocal), 0.5), "ms"},
		"client.peer_p50_ms":           {quantileMs(bySource(srcPeer), 0.5), "ms"},
		"client.origin_p50_ms":         {quantileMs(bySource(srcOrigin), 0.5), "ms"},
		"client.gen_lag_p90_ms":        {quantileMs(lag, 0.90), "ms"},
		"client.gen_lag_p99_ms":        {quantileMs(lag, 0.99), "ms"},
		"client.backlog_end":           {float64(p.backlogEnd()), "count"},
		"node.local_hit_ratio":         {ratio(float64(d.local), float64(d.served)), "ratio"},
		"node.peer_hit_ratio":          {ratio(float64(d.peer), float64(d.served)), "ratio"},
		"node.shed":                    {float64(d.shed), "count"},
		"node.failed":                  {float64(d.failed), "count"},
		"node.coalesced":               {float64(d.coalesced), "count"},
		"node.failed_over":             {float64(d.failedOver), "count"},
		"node.degraded":                {float64(d.degraded), "count"},
		"node.shield_hit_ratio":        {ratio(float64(d.shieldHits), float64(d.shieldFetches)), "ratio"},
		"node.update_msgs_per_publish": {ratio(msgs, pubs), "count"},
		"ring.beacon_load_cov":         {cov(beacon), "ratio"},
		"ring.rebalance_ms":            {ratio(float64(rebalNs)/1e6, float64(rebals)), "ms"},
		"tenant.shed_ratio":            {ratio(float64(d.tenantShed), float64(d.tenantReq)), "ratio"},
		"durable.store_bytes":          {float64(d.storeBytes), "bytes"},
		"durable.compactions":          {float64(d.compactions), "count"},
		"durable.errors":               {float64(d.durableErrs), "count"},
		"runtime.cpu_ms_per_req":       {ms(p.closed.cpu) / float64(len(p.closed.ops)), "ms"},
		"runtime.allocs_per_req":       {float64(p.closed.mallocs) / float64(len(p.closed.ops)), "count"},
		"runtime.bytes_per_req":        {float64(p.closed.bytes) / float64(len(p.closed.ops)), "bytes"},
		"runtime.gc_pause_ms":          {ms(p.gcPause), "ms"},
		"runtime.peak_rss_mb":          {peakRSSMB(), "MB"},
		"trace.overhead_ratio":         {ratio(tracedRate, plainRate), "ratio"},
		"trace.orphan_ratio":           {ratio(float64(tsum.orphans), float64(tsum.total)), "ratio"},
		"client.publish_p50_ms":        {quantileMs(pub, 0.5), "ms"},
		"client.publish_p99_ms":        {quantileMs(pub, 0.99), "ms"},
		"client.slo_miss_ratio":        {ratio(float64(misses), float64(docs)), "ratio"},
		"client.doc_fail_ratio":        {ratio(float64(notOK), float64(timed)), "ratio"},
	}
}

// cov is the coefficient of variation: the paper's load-balance figure
// over the beacon points' operation counts.
func cov(v []float64) float64 {
	var sum, sq float64
	for _, x := range v {
		sum += x
	}
	mean := sum / float64(len(v))
	if mean == 0 {
		return 0
	}
	for _, x := range v {
		sq += (x - mean) * (x - mean)
	}
	return math.Sqrt(sq/float64(len(v))) / mean
}

// spanMetrics reports, for each span name, spans per client op and self
// microseconds per client op over a traced pass. Client ops are the
// client.doc and client.publish spans together.
func spanMetrics(sum spanSummary) map[string]metric {
	ops := float64(sum.byName[spClientDoc].count + sum.byName[spClientPublish].count)
	out := make(map[string]metric, 2*numSpanNames)
	for i, name := range spanNames[:numSpanNames] {
		st := sum.byName[i]
		out["span."+name+".per_req"] = metric{ratio(float64(st.count), ops), "count"}
		out["span."+name+".self_us_per_req"] = metric{ratio(float64(st.selfNs)/1e3, ops), "us"}
	}
	return out
}
