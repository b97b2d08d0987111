package main

import "time"

// Cluster shape shared by every workload: livebench's defaults.
const (
	numNodes = 6
	ringSize = 2
	intraGen = 1000
)

// Tenants of the full-stack workload. Index 0 is the default tenant.
var tenantIDs = []string{"", "alpha", "beta"}

// warmKind selects a workload's warm-up pass.
type warmKind int

const (
	// warmEveryDoc requests every catalog document at every node, so the
	// timed phases see only local hits.
	warmEveryDoc warmKind = iota
	// warmReplay replays the first warmOps trace events, filling the
	// capacity-bound caches to their steady state.
	warmReplay
)

// workload fixes one traffic mix and the cluster it runs against. Every
// field is a constant of the benchmark: identical on every commit.
type workload struct {
	name string
	why  string

	// Trace: catalog size and popularity law. sydney selects
	// trace.GenerateSydney (requests Zipf 0.8, updates Zipf 1.0, hot-set
	// drift); otherwise trace.GenerateZipf with alpha.
	docs    int
	alpha   float64
	sydney  bool
	peakReq int // requests per cache per trace unit (at the diurnal peak for sydney)
	// readsPerPublish is the op mix: one publish per this many requests;
	// 0 = read-only.
	readsPerPublish int
	hotDrifts       int // hot-set rotations across the generated trace (sydney)

	// Cluster.
	capacityShare float64 // per-node byte budget as a share of catalog bytes; 0 = unlimited
	utility       bool    // utility placement (ad hoc otherwise)
	shields       int
	durable       bool // StoreDir in a temp dir, Fsync "rotate"
	// tenants puts half the requests on tenants alpha (weight 3) and beta
	// (weight 1); betaQuotaShare is beta's per-node byte quota as a share
	// of catalog bytes, far below what its quarter of the traffic asks for.
	tenants        bool
	betaQuotaShare float64

	// Run.
	warm       warmKind
	warmOps    int
	rebalances int // /rebalance+/replicate cycles at fixed points of each timed phase
	// exclusivePublish keeps a publish and a default-tenant request for
	// the same document from overlapping (see README, "Known races").
	exclusivePublish bool
	// closedOpsPerSec sizes the closed phase: ops = closedOpsPerSec x the
	// phase's share of -seconds. Frozen at the seed commit's closed-loop
	// rate (requests and publishes together), two figures.
	closedOpsPerSec int
	// peakRate is R_w, the open phase's arrival rate at the diurnal peak:
	// a fifth of closedOpsPerSec, frozen. (The issue asked for 0.7 of the
	// closed-loop rate; an arrival that wakes sleeping threads costs about
	// twice a request in a saturated closed loop, and hot-local's latency
	// left the scale at a third: README, "Noise".)
	peakRate float64
	// slo is the latency limit behind client.slo_miss_ratio and, at a tenth,
	// the limit on how late the generator may run.
	slo time.Duration
}

// The run splits -seconds between the phases as the issue's 15 s : 20 s.
const (
	closedShare = 3.0 / 7.0
	openShare   = 4.0 / 7.0
)

var workloads = []workload{
	{
		name: "hot-local",
		why:  "500 docs warm at every node, read-only: only handleDoc's hit path works; beacon, peer, shield, origin, durable and placement do nothing",
		docs: 500, alpha: 0.9, peakReq: 4,
		warm:            warmEveryDoc,
		closedOpsPerSec: 56000, peakRate: 11000,
		slo: 10 * time.Millisecond,
	},
	{
		name: "coop-miss",
		why:  "20k docs, caches hold 5%, utility placement, rebalances: most requests go lookup, peer fetch or origin, place, evict; the hit path is a small share",
		docs: 20000, alpha: 0.8, peakReq: 4,
		capacityShare: 0.05, utility: true,
		warm: warmReplay, warmOps: 18000, rebalances: 4,
		closedOpsPerSec: 10000, peakRate: 2000,
		slo: 20 * time.Millisecond,
	},
	{
		name: "update-storm",
		why:  "2k docs warm at every node behind 2 shields, 1 publish per 4 reads: each publish fans supdate, update, apply to 6 holders; reads stay local hits",
		docs: 2000, sydney: true, peakReq: 10, readsPerPublish: 4, hotDrifts: 1,
		shields:         2,
		warm:            warmEveryDoc,
		closedOpsPerSec: 14000, peakRate: 2800,
		slo: 10 * time.Millisecond,
	},
	{
		name: "full-stack",
		why:  "Sydney trace with hot-set drift, durable nodes, 2 shields, 3 tenants (one over its byte quota), 1 publish per 20 reads: the production mix, every layer at once",
		docs: 10000, sydney: true, peakReq: 10, readsPerPublish: 20, hotDrifts: 8,
		shields: 2, durable: true, tenants: true, betaQuotaShare: 0.01,
		warm: warmReplay, warmOps: 12000,
		exclusivePublish: true,
		closedOpsPerSec:  5000, peakRate: 1000,
		slo: 20 * time.Millisecond,
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
