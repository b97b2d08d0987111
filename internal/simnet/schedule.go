package simnet

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Event is one entry of a fault schedule. At is the virtual-time offset
// from simulation start; events execute in At order (ties in list order).
type Event struct {
	At   time.Duration
	Kind EventKind
	Node string // crash/heal target (empty otherwise)
	N    int    // kind-specific count (loads, publishes, drop permille)
}

// EventKind enumerates the schedule actions the harness can execute.
type EventKind string

const (
	// EvLoad performs N client document requests spread over the live
	// nodes (seeded choice of entry node and document).
	EvLoad EventKind = "load"
	// EvPublish publishes updates for N seeded catalog documents through
	// the origin and checks the fan-out invariant on each.
	EvPublish EventKind = "publish"
	// EvReplicate triggers the origin's lazy-replication pass (every live
	// beacon pushes its records to its ring sibling).
	EvReplicate EventKind = "replicate"
	// EvRebalance runs one origin sub-range determination cycle (load
	// collection, intra-ring algorithm, install everywhere).
	EvRebalance EventKind = "rebalance"
	// EvCrash partitions Node away from everyone and snapshots its record
	// count for the accounting invariant.
	EvCrash EventKind = "crash"
	// EvHeal reconnects Node.
	EvHeal EventKind = "heal"
	// EvHealWarm restarts a crashed Node the way a real process restart
	// would: the old node object is discarded (memory state gone), a
	// fresh one is built over the same durable store directory, boots
	// warm from the log, rejoins via heartbeat, and revalidates its
	// recovered copies against the beacons — with the invariant that
	// revalidation issues zero origin fetches. Requires Config.Warm (or
	// an explicit StoreDir).
	EvHealWarm EventKind = "heal-warm"
	// EvDrop sets the network drop probability to N permille (N=0 closes
	// the degradation window).
	EvDrop EventKind = "drop"
	// EvReconcile runs one holder-side anti-entropy pass on every live
	// node in name order.
	EvReconcile EventKind = "reconcile"
	// EvBurst concentrates N client requests on one seeded entry node
	// (seeded document choice per request) and checks the overload
	// conservation invariant on the delta: every offered request is
	// exactly one of served, shed, or failed, with positive goodput on a
	// clean network.
	EvBurst EventKind = "burst"
	// EvHotDoc issues N client requests for one seeded hot document
	// across seeded entry nodes (a miss-storm shape: many requesters, one
	// document) under the same conservation invariant as EvBurst.
	EvHotDoc EventKind = "hotdoc"
	// EvCheckAccounting verifies RecordsLost/RecordsRecovered deltas
	// against the white-box ledger taken at the preceding crash.
	EvCheckAccounting EventKind = "check-accounting"
	// EvCheckWarm verifies the warm-restart invariant against the ledger
	// taken at the preceding heal-warm: the restarted node's origin
	// fetches since the heal must not exceed the documents that were
	// genuinely stale or never cached there (catalog − revalidated-fresh,
	// plus any publishes inside the window) — i.e. a warm restart never
	// degenerates into a cold-miss storm.
	EvCheckWarm EventKind = "check-warm"
	// EvCheck runs the quiescent invariants: view agreement, reachability,
	// freshness (the exact-partition invariant runs after every event).
	EvCheck EventKind = "check"
	// EvShieldCrash partitions shield Node away from everyone (two-tier
	// runs only). Cloud fetches fail over along the shield ring; publishes
	// and purges while the shield is down are caught up at its next
	// reconcile.
	EvShieldCrash EventKind = "shield-crash"
	// EvShieldHeal reconnects shield Node.
	EvShieldHeal EventKind = "shield-heal"
	// EvPurgeScoped purges one seeded document's edge copies in cloud
	// scope: caches drop the copy, shields keep theirs, so the next miss is
	// absorbed by the shield tier. Completeness is checked immediately when
	// the whole hierarchy is reachable.
	EvPurgeScoped EventKind = "purge-scoped"
	// EvPurgeGlobal purges one seeded document everywhere: the origin bumps
	// the URL's purge generation and both tiers drop their copies; a shield
	// that missed the purge applies the generation at its next reconcile.
	EvPurgeGlobal EventKind = "purge-global"
	// EvTenantStorm issues N client requests spread over seeded tenants,
	// entry nodes, and documents (multi-tenant runs only). Per-tenant
	// conservation is checked on the counter deltas, a zero-weight tenant
	// must be shed entirely, and the per-tenant byte-quota invariant runs
	// after the event like after every other.
	EvTenantStorm EventKind = "tenant-storm"
)

// GenConfig tunes the schedule generator.
type GenConfig struct {
	Nodes  int // cluster size
	Rounds int // crash/recover rounds
	// Warm switches every round's recovery to the warm-restart shape:
	// heal-warm instead of heal, post-heal load traffic, and a
	// check-warm of the origin-fetch bound. Warm=false generation is
	// byte-identical to pre-warm schedules (the rng stream is untouched).
	Warm bool
	// Shields, when positive, appends a shield-tier fault phase to every
	// round: one shield crashes, traffic fails over along the shield ring,
	// publishes and purges land past it, and it heals before the round's
	// closing reconcile. Shields==0 generation is byte-identical to
	// single-tier schedules (the rng stream is untouched).
	Shields int
	// Tenants, when positive, adds a tenant-storm phase to every round:
	// seeded multi-tenant traffic under the per-tenant quota and
	// conservation invariants. Tenants==0 generation is byte-identical to
	// single-tenant schedules (the rng stream is untouched).
	Tenants int
}

// Generate builds a seeded fault schedule of Rounds crash/recover rounds.
// Each round follows the discipline that makes the accounting invariant
// exact: load traffic (optionally under a short drop window), publishes
// while the cluster is healthy, a quiet gap of at least one heartbeat so
// the victim's last beat reports its final record count, a replication
// pass so the sibling replica matches, then the crash, the detection
// window, the accounting check, the heal, and a reconcile+settle before
// the full quiescent check. Drop windows are kept shorter than missK-1
// heartbeats so degradation alone can never trip the failure detector.
func Generate(seed int64, cfg GenConfig) []Event {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 4
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = 3
	}
	rng := rand.New(rand.NewSource(seed))
	const hb = heartbeat
	var evs []Event
	t := 50 * time.Millisecond
	add := func(kind EventKind, nodeName string, n int) {
		evs = append(evs, Event{At: t, Kind: kind, Node: nodeName, N: n})
	}

	// Warm-up: populate caches and beacon records while fully healthy.
	add(EvLoad, "", 30+rng.Intn(20))
	t += 100 * time.Millisecond

	for round := 0; round < cfg.Rounds; round++ {
		// Load phase, sometimes under a degradation window.
		if rng.Intn(2) == 0 {
			add(EvDrop, "", 100+rng.Intn(150)) // 10–25% drops
			t += 20 * time.Millisecond
			add(EvLoad, "", 10+rng.Intn(15))
			t += hb // shorter than (missK-1) heartbeats
			add(EvDrop, "", 0)
			t += 20 * time.Millisecond
		}
		add(EvLoad, "", 15+rng.Intn(15))
		t += 50 * time.Millisecond
		// Overload shapes: a concentrated burst at one entry node and a
		// hot-document storm, each in roughly half the rounds.
		if rng.Intn(2) == 0 {
			add(EvBurst, "", 15+rng.Intn(20))
			t += 30 * time.Millisecond
		}
		if rng.Intn(2) == 0 {
			add(EvHotDoc, "", 10+rng.Intn(20))
			t += 30 * time.Millisecond
		}
		// Multi-tenant storm phase (tenant-aware runs only — the extra rng
		// draws live entirely inside this branch, so Tenants==0 schedules
		// are byte-identical to single-tenant generation).
		if cfg.Tenants > 0 {
			add(EvTenantStorm, "", 12+rng.Intn(16))
			t += 30 * time.Millisecond
		}
		add(EvPublish, "", 2+rng.Intn(3))
		if rng.Intn(3) == 0 {
			t += 50 * time.Millisecond
			add(EvRebalance, "", 0)
		}

		// Quiet gap ≥ one heartbeat, then replicate: the victim's last
		// beat and its sibling's replica both reflect the final records.
		t += hb + hb/2
		add(EvReplicate, "", 0)

		// Crash a seeded victim and wait out the detection window.
		victim := fmt.Sprintf("n%d", rng.Intn(cfg.Nodes))
		t += 50 * time.Millisecond
		add(EvCrash, victim, 0)
		t += (missK + 2) * hb
		add(EvCheckAccounting, victim, 0)

		// Recover: heal, let it heartbeat back in, reconcile, settle. In
		// warm mode the heal is a full process restart over the durable
		// store, followed by post-heal traffic and the origin-fetch bound
		// check while the network is clean.
		t += 50 * time.Millisecond
		if cfg.Warm {
			add(EvHealWarm, victim, 0)
			t += 2*hb + hb/2
			add(EvLoad, "", 15+rng.Intn(15))
			t += 50 * time.Millisecond
			add(EvCheckWarm, victim, 0)
			t += 50 * time.Millisecond
		} else {
			add(EvHeal, victim, 0)
			t += 2*hb + hb/2
		}
		// Shield-tier fault phase (two-tier runs only — the extra rng draws
		// live entirely inside this branch, so Shields==0 schedules are
		// untouched). One shield crashes while the cache tier is healthy,
		// loads fail over along the shield ring, publishes and purges land
		// past the crashed shield, then it heals — the round's closing
		// reconcile catches it up before the quiescent check.
		if cfg.Shields > 0 {
			shieldVictim := fmt.Sprintf("s%d", rng.Intn(cfg.Shields))
			add(EvShieldCrash, shieldVictim, 0)
			t += 50 * time.Millisecond
			add(EvLoad, "", 10+rng.Intn(10))
			t += 50 * time.Millisecond
			add(EvPublish, "", 1+rng.Intn(2))
			t += 50 * time.Millisecond
			if rng.Intn(2) == 0 {
				add(EvPurgeScoped, "", 0)
				t += 30 * time.Millisecond
			}
			if rng.Intn(3) == 0 {
				add(EvPurgeGlobal, "", 0)
				t += 30 * time.Millisecond
			}
			add(EvShieldHeal, shieldVictim, 0)
			t += 50 * time.Millisecond
			// Post-heal traffic and purges with the full tier live: these
			// run under the strict cross-tier checks (per-shield delivery,
			// scoped-purge completeness).
			add(EvPurgeScoped, "", 0)
			t += 30 * time.Millisecond
			if rng.Intn(2) == 0 {
				add(EvPurgeGlobal, "", 0)
				t += 30 * time.Millisecond
			}
		}
		add(EvReconcile, "", 0)
		t += 100 * time.Millisecond
		add(EvCheck, "", 0)
		t += 100 * time.Millisecond
	}
	return evs
}

// Encode renders a schedule in the line-based text format, one event per
// line, suitable for replay files and failure reports.
func Encode(evs []Event) string {
	var b strings.Builder
	b.WriteString("# simnet schedule v1\n")
	for _, ev := range evs {
		fmt.Fprintf(&b, "at=%s kind=%s", ev.At, ev.Kind)
		if ev.Node != "" {
			fmt.Fprintf(&b, " node=%s", ev.Node)
		}
		if ev.N != 0 {
			fmt.Fprintf(&b, " n=%d", ev.N)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// validKinds guards Decode against arbitrary input.
var validKinds = map[EventKind]bool{
	EvLoad: true, EvPublish: true, EvReplicate: true, EvRebalance: true,
	EvCrash: true, EvHeal: true, EvHealWarm: true, EvDrop: true, EvReconcile: true,
	EvBurst: true, EvHotDoc: true,
	EvCheckAccounting: true, EvCheckWarm: true, EvCheck: true,
	EvShieldCrash: true, EvShieldHeal: true,
	EvPurgeScoped: true, EvPurgeGlobal: true,
	EvTenantStorm: true,
}

// Decode parses the text format produced by Encode. Blank lines and
// #-comments are ignored. Events are returned sorted by At (stable), so
// a hand-edited file need not be pre-sorted.
func Decode(text string) ([]Event, error) {
	var evs []Event
	for lineNo, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var ev Event
		seen := map[string]bool{}
		for _, field := range strings.Fields(line) {
			key, val, ok := strings.Cut(field, "=")
			if !ok || val == "" {
				return nil, fmt.Errorf("simnet: line %d: malformed field %q", lineNo+1, field)
			}
			if seen[key] {
				return nil, fmt.Errorf("simnet: line %d: duplicate field %q", lineNo+1, key)
			}
			seen[key] = true
			switch key {
			case "at":
				d, err := time.ParseDuration(val)
				if err != nil || d < 0 {
					return nil, fmt.Errorf("simnet: line %d: bad at=%q", lineNo+1, val)
				}
				ev.At = d
			case "kind":
				k := EventKind(val)
				if !validKinds[k] {
					return nil, fmt.Errorf("simnet: line %d: unknown kind %q", lineNo+1, val)
				}
				ev.Kind = k
			case "node":
				ev.Node = val
			case "n":
				n, err := strconv.Atoi(val)
				if err != nil || n < 0 {
					return nil, fmt.Errorf("simnet: line %d: bad n=%q", lineNo+1, val)
				}
				ev.N = n
			default:
				return nil, fmt.Errorf("simnet: line %d: unknown field %q", lineNo+1, key)
			}
		}
		if !seen["at"] || !seen["kind"] {
			return nil, fmt.Errorf("simnet: line %d: missing at= or kind=", lineNo+1)
		}
		evs = append(evs, ev)
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
	return evs, nil
}
