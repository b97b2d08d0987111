package node

import (
	"fmt"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"

	"cachecloud/internal/document"
	"cachecloud/internal/obs"
)

// Directory-level tests: one directory, no cluster, no HTTP. The cluster
// is five names in two rings; "a" is the directory under test.
var testNames = []string{"a", "b", "c", "d", "e"}

func testLayout() Assignments {
	return Assignments{Rings: [][]Subrange{
		{{Node: "a", Lo: 0, Hi: 5}, {Node: "b", Lo: 6, Hi: 10}, {Node: "c", Lo: 11, Hi: 15}},
		{{Node: "d", Lo: 0, Hi: 7}, {Node: "e", Lo: 8, Hi: 15}},
	}}
}

func newTestDirectory(self string) *directory {
	return newDirectory(self, 16, testNames, testLayout(), obs.NewRegistry("test", nil))
}

// urlsOf returns the first n test URLs whose beacon under a is owner, in
// URL order.
func urlsOf(t *testing.T, a Assignments, owner string, n int) []string {
	t.Helper()
	var out []string
	for i := 0; len(out) < n; i++ {
		if i > 200*n+2000 {
			t.Fatalf("no %d URLs for %s", n, owner)
		}
		u := fmt.Sprintf("http://dir/doc/%05d", i)
		if got, _ := a.ownerOf(u, 16); got == owner {
			out = append(out, u)
		}
	}
	return out
}

// holdersOf returns a table's holder map for url (nil when there is no
// record).
func holdersOf(d *directory, replicas bool, url string) map[string]uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	rec := d.recordOf(url, !replicas)
	if rec == nil {
		return nil
	}
	out := make(map[string]uint64, len(rec.holders))
	for _, l := range rec.holders {
		out[l.holder] = l.seq
	}
	return out
}

func findWire(recs []WireRecord, url string) (WireRecord, bool) {
	for _, wr := range recs {
		if wr.URL == url {
			return wr, true
		}
	}
	return WireRecord{}, false
}

// TestSequenceRule is the table test of the sequence rule, through the
// directory's own entry points, on an owned entry (a URL "a" is the beacon
// of) and on a replica entry (a URL of its sibling's, reached by failover).
func TestSequenceRule(t *testing.T) {
	type op struct {
		drop bool
		seq  uint64
	}
	cases := []struct {
		name      string
		ops       []op
		wantSeq   uint64
		wantThere bool
		wantStale int64
	}{
		{"register then newer drop", []op{{false, 5}, {true, 6}}, 0, false, 0},
		{"drop overtaken by a newer registration", []op{{false, 5}, {false, 9}, {true, 6}}, 9, true, 1},
		{"drop arrives first, registration after", []op{{false, 5}, {true, 6}, {false, 9}}, 9, true, 0},
		{"retried registration does not lower the number", []op{{false, 9}, {false, 5}}, 9, true, 0},
		{"unnumbered drop always applies", []op{{false, 9}, {true, 0}}, 0, false, 0},
		{"unnumbered registration keeps a number", []op{{false, 9}, {false, 0}, {true, 6}}, 9, true, 1},
		{"any numbered drop removes an unnumbered entry", []op{{false, 0}, {true, 1}}, 0, false, 0},
		{"drop of an absent holder", []op{{true, 7}}, 0, false, 0},
	}
	for _, replica := range []bool{false, true} {
		owner := "a"
		if replica {
			owner = "b"
		}
		url := urlsOf(t, testLayout(), owner, 1)[0]
		for _, tc := range cases {
			d := newTestDirectory("a")
			for _, o := range tc.ops {
				if o.drop {
					d.deregister("d", o.seq, []string{url})
				} else {
					d.lookup(0, url, "d", o.seq, nil)
				}
			}
			seq, there := holdersOf(d, replica, url)["d"]
			if there != tc.wantThere || seq != tc.wantSeq || d.staleDrops.Value() != tc.wantStale {
				t.Errorf("replica=%v %s: listed=%v seq=%d stale=%d, want %v %d %d",
					replica, tc.name, there, seq, d.staleDrops.Value(), tc.wantThere, tc.wantSeq, tc.wantStale)
			}
			if other := holdersOf(d, !replica, url); other != nil {
				t.Errorf("replica=%v %s: the other table has a record too: %v", replica, tc.name, other)
			}
		}
	}
}

// TestLookupAnswersAndLists: the answer leaves the requester out, piggy-
// backed drops apply before it is built, and a failed-over lookup is
// answered from the replica with dead holders filtered.
func TestLookupAnswersAndLists(t *testing.T) {
	d := newTestDirectory("a")
	own := urlsOf(t, testLayout(), "a", 2)
	u, v := own[0], own[1]
	d.lookup(0, u, "b", 1, nil)
	d.lookup(0, u, "c", 2, nil)
	d.lookup(0, v, "c", 3, nil)
	if got := d.lookup(0, u, "b", 4, nil).Holders; !reflect.DeepEqual(got, []string{"c"}) {
		t.Fatalf("answer to b = %v, want [c]", got)
	}
	// c's lookup for u carries its drop of v and of u itself.
	if got := d.lookup(0, u, "c", 5, []string{v, u}).Holders; !reflect.DeepEqual(got, []string{"b"}) {
		t.Fatalf("answer to c = %v, want [b]", got)
	}
	if h := holdersOf(d, false, v); len(h) != 0 {
		t.Fatalf("v still lists %v after the piggybacked drop", h)
	}
	if h := holdersOf(d, false, u); h["c"] != 5 || h["b"] != 4 {
		t.Fatalf("u lists %v, want b:4 c:5", h)
	}
	if got := d.registered.Value(); got != 5 {
		t.Fatalf("lookup_registered_total = %d, want 5", got)
	}
	// A plain lookup only reads.
	if got := d.lookup(0, u, "", 0, nil).Holders; !reflect.DeepEqual(got, []string{"b", "c"}) || d.registered.Value() != 5 {
		t.Fatalf("plain lookup: %v, registered=%d", got, d.registered.Value())
	}

	// Failover: b's URL, known here only by b's push.
	w := urlsOf(t, testLayout(), "b", 1)[0]
	if err := d.acceptReplicas("b", true, []WireRecord{{URL: w, Holders: []string{"c", "d", "e"}, Version: 7}}); err != nil {
		t.Fatal(err)
	}
	d.setDown([]string{"b"})
	if err := d.acceptReplicas("b", false, []WireRecord{{URL: w, Holders: []string{"b", "c", "d"}, Version: 7}}); err != nil {
		t.Fatal(err)
	}
	lr := d.lookup(0, w, "c", 6, nil)
	if !reflect.DeepEqual(lr.Holders, []string{"d"}) || lr.Version != 7 {
		t.Fatalf("failover answer = %+v, want holders [d] (b is down, c asked) at version 7", lr)
	}
	if holdersOf(d, false, w) != nil {
		t.Fatal("a failed-over lookup minted an owned record")
	}
	if ops := d.beaconOps.Value(); ops != 6 {
		t.Fatalf("beacon_ops_total = %d, want 6 (replica answers are not charged)", ops)
	}
	rep := d.collectLoads()
	if rep.Total != 6 || rep.Node != "a" {
		t.Fatalf("collected %+v, want total 6", rep)
	}
	if again := d.collectLoads(); again.Total != 0 {
		t.Fatalf("second collect = %d, want 0 (reset)", again.Total)
	}
}

// TestUpdateFanoutAndUnlist: update returns the holders in name order with
// the numbers the fan-out began with, and unlist spares a holder that
// registered again meanwhile.
func TestUpdateFanoutAndUnlist(t *testing.T) {
	d := newTestDirectory("a")
	u := urlsOf(t, testLayout(), "a", 1)[0]
	d.lookup(0, u, "c", 3, nil)
	d.lookup(0, u, "b", 2, nil)
	push, holders := d.update(1, document.Document{URL: u, Version: 4})
	if want := []listing{{"b", 2}, {"c", 3}}; !reflect.DeepEqual(holders, want) || push.Replicas != 2 || push.Doc.Version != 4 {
		t.Fatalf("update = %+v %+v, want %v", push, holders, want)
	}
	d.lookup(1, u, "c", 9, nil) // c registers again while the fan-out runs
	d.unlist(u, holders)
	if h := holdersOf(d, false, u); !reflect.DeepEqual(h, map[string]uint64{"c": 9}) {
		t.Fatalf("after unlist: %v, want only c:9", h)
	}
	if lr := d.lookup(1, u, "", 0, nil); lr.Version != 4 {
		t.Fatalf("record version = %d, want 4", lr.Version)
	}
	d.update(2, document.Document{URL: u, Version: 3})
	if lr := d.lookup(2, u, "", 0, nil); lr.Version != 4 {
		t.Fatalf("an older update lowered the version to %d", lr.Version)
	}
}

// TestInstallHandsOffAndPromotes: records that left the node's ranges come
// back as sorted batches per new owner; replicas of newly owned ranges are
// merged and consumed exactly once; a holder listed on a replica during
// failover keeps its number through promotion.
func TestInstallHandsOffAndPromotes(t *testing.T) {
	d := newTestDirectory("a")
	old := testLayout()
	next := Assignments{Rings: [][]Subrange{
		// a's range goes to b and c; a takes over what was c's.
		{{Node: "b", Lo: 0, Hi: 2}, {Node: "c", Lo: 3, Hi: 10}, {Node: "a", Lo: 11, Hi: 15}},
		old.Rings[1],
	}}
	mine := urlsOf(t, old, "a", 12)
	for i, u := range mine {
		d.lookup(0, u, "d", uint64(10+i), nil)
		d.update(0, document.Document{URL: u, Version: document.Version(i + 1)})
	}
	// e is dead before c's push arrives, and the push still names it.
	d.setDown([]string{"e"})
	gained := urlsOf(t, old, "c", 3)
	push := []WireRecord{
		{URL: gained[0], Holders: []string{"e"}, Version: 5},
		{URL: gained[1], Holders: []string{"d", "e"}, Version: 6},
		{URL: gained[2], Version: 7},
	}
	if err := d.acceptReplicas("c", true, push); err != nil {
		t.Fatal(err)
	}
	kept := urlsOf(t, old, "b", 1)[0] // stays b's: its replica must stay a replica
	if err := d.acceptReplicas("b", true, []WireRecord{{URL: kept, Holders: []string{"d"}, Version: 1}}); err != nil {
		t.Fatal(err)
	}
	// During c's outage d registers for gained[0] here, numbered 42.
	d.lookup(0, gained[0], "d", 42, nil)
	// Failover traffic also recreated gained[1] as an owned record.
	if err := d.importRecords([]WireRecord{{URL: gained[1], Holders: []string{"b"}, Version: 9}}); err != nil {
		t.Fatal(err)
	}

	out, promoted := d.install(next)
	if promoted != 3 {
		t.Fatalf("promoted = %d, want 3", promoted)
	}
	if len(out) != 2 || out[0].owner != "b" || out[1].owner != "c" {
		t.Fatalf("hand-off owners = %+v, want [b c]", out)
	}
	total := 0
	for _, ho := range out {
		if !sort.SliceIsSorted(ho.records, func(i, j int) bool { return ho.records[i].URL < ho.records[j].URL }) {
			t.Fatalf("batch for %s is not sorted by URL", ho.owner)
		}
		for _, wr := range ho.records {
			if got, _ := next.ownerOf(wr.URL, 16); got != ho.owner {
				t.Fatalf("%s handed to %s, owner is %s", wr.URL, ho.owner, got)
			}
			if !reflect.DeepEqual(wr.Holders, []string{"d"}) || wr.Version == 0 {
				t.Fatalf("handed-off record lost its contents: %+v", wr)
			}
		}
		total += len(ho.records)
	}
	if total != len(mine) {
		t.Fatalf("handed off %d records, want %d", total, len(mine))
	}
	if recs := d.snapshot(false); len(recs) != 3 {
		t.Fatalf("owned after install = %+v, want the 3 promoted", recs)
	}
	if reps := d.snapshot(true); len(reps) != 1 || reps[0].URL != kept {
		t.Fatalf("replicas after install = %+v, want only %s", reps, kept)
	}
	if h := holdersOf(d, false, gained[0]); !reflect.DeepEqual(h, map[string]uint64{"d": 42}) {
		t.Fatalf("promoted %s lists %v, want d:42 (e is down)", gained[0], h)
	}
	if h := holdersOf(d, false, gained[1]); !reflect.DeepEqual(h, map[string]uint64{"b": 0, "d": 0}) {
		t.Fatalf("promoted %s lists %v, want b and d (merged), unnumbered", gained[1], h)
	}
	if wr, _ := findWire(d.snapshot(false), gained[1]); wr.Version != 9 {
		t.Fatalf("merged version = %d, want 9", wr.Version)
	}
	// The number survived: a drop issued before that registration is stale.
	d.deregister("d", 41, []string{gained[0]})
	if h := holdersOf(d, false, gained[0]); h["d"] != 42 || d.staleDrops.Value() != 1 {
		t.Fatalf("drop 41 after promotion: holders %v stale=%d, want d:42 kept, 1 stale", h, d.staleDrops.Value())
	}
	// Consumed exactly once.
	if out, promoted := d.install(next); len(out) != 0 || promoted != 0 {
		t.Fatalf("second install of the same layout: out=%v promoted=%d", out, promoted)
	}
}

// TestReplicaResetDropsOnlyThatSender: a reset push replaces what that
// sibling pushed before and nothing else.
func TestReplicaResetDropsOnlyThatSender(t *testing.T) {
	d := newTestDirectory("a")
	ub, uc := urlsOf(t, testLayout(), "b", 3), urlsOf(t, testLayout(), "c", 1)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(d.acceptReplicas("b", true, []WireRecord{{URL: ub[0], Version: 1}, {URL: ub[1], Version: 1}}))
	must(d.acceptReplicas("c", true, []WireRecord{{URL: uc[0], Holders: []string{"d"}, Version: 1}}))
	d.lookup(0, ub[2], "d", 8, nil) // a failover registration, kept for b
	must(d.acceptReplicas("b", true, []WireRecord{{URL: ub[1], Holders: []string{"e"}, Version: 2}}))
	want := []WireRecord{
		{URL: ub[1], Holders: []string{"e"}, Version: 2},
		{URL: uc[0], Holders: []string{"d"}, Version: 1},
	}
	sort.Slice(want, func(i, j int) bool { return want[i].URL < want[j].URL })
	if got := d.snapshot(true); !reflect.DeepEqual(got, want) {
		t.Fatalf("replicas = %+v, want %+v", got, want)
	}
}

// TestMembershipPrunesBothKinds: a dead node leaves owned and replica
// holder lists alike.
func TestMembershipPrunesBothKinds(t *testing.T) {
	d := newTestDirectory("a")
	own, rep := urlsOf(t, testLayout(), "a", 1)[0], urlsOf(t, testLayout(), "b", 1)[0]
	if err := d.importRecords([]WireRecord{{URL: own, Holders: []string{"c", "d"}}}); err != nil {
		t.Fatal(err)
	}
	if err := d.acceptReplicas("b", true, []WireRecord{{URL: rep, Holders: []string{"c", "d"}}}); err != nil {
		t.Fatal(err)
	}
	d.setDown([]string{"c"})
	for _, replica := range []bool{false, true} {
		url := own
		if replica {
			url = rep
		}
		if h := holdersOf(d, replica, url); !reflect.DeepEqual(h, map[string]uint64{"d": 0}) {
			t.Fatalf("replica=%v: holders %v after c died, want only d", replica, h)
		}
	}
	if !d.route().down["c"] || len(d.route().down) != 1 {
		t.Fatalf("down view = %v", d.route().down)
	}
	d.setDown(nil)
	if len(d.route().down) != 0 {
		t.Fatal("an empty broadcast did not clear the dead set")
	}
}

// TestReconcileVerdicts: Keep=false below the record's version, a current
// copy listed under the report's number, a URL of another beacon not owned,
// and Unreported sorted and capped.
func TestReconcileVerdicts(t *testing.T) {
	d := newTestDirectory("a")
	own := urlsOf(t, testLayout(), "a", maxBatchDrops+12)
	foreign := urlsOf(t, testLayout(), "d", 1)[0]
	stale, fresh := own[0], own[1]
	listedOnly := own[2:]
	seed := []WireRecord{
		{URL: stale, Holders: []string{"b"}, Version: 5},
		{URL: fresh, Version: 5},
	}
	for _, u := range listedOnly {
		seed = append(seed, WireRecord{URL: u, Holders: []string{"b"}, Version: 1})
	}
	if err := d.importRecords(seed); err != nil {
		t.Fatal(err)
	}
	resp, err := d.reconcile("b", 77, []ReconcileEntry{
		{URL: stale, Version: 3}, {URL: fresh, Version: 7}, {URL: foreign, Version: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	results, unreported := resp.Results, resp.Unreported
	want := []ReconcileResult{
		{URL: stale, Version: 5, Owned: true, Keep: false},
		{URL: fresh, Version: 7, Owned: true, Keep: true},
		{URL: foreign, Version: 2, Owned: false, Keep: true},
	}
	if !reflect.DeepEqual(results, want) {
		t.Fatalf("verdicts = %+v, want %+v", results, want)
	}
	if h := holdersOf(d, false, stale); len(h) != 0 {
		t.Fatalf("stale copy's holder still listed: %v", h)
	}
	if h := holdersOf(d, false, fresh); h["b"] != 77 {
		t.Fatalf("fresh copy listed as %v, want b:77", h)
	}
	if holdersOf(d, false, foreign) != nil {
		t.Fatal("a report minted a record for a URL this node is not the beacon of")
	}
	sort.Strings(listedOnly)
	if !reflect.DeepEqual(unreported, listedOnly[:maxBatchDrops]) {
		t.Fatalf("unreported: %d URLs (first %q), want the first %d of the sorted list", len(unreported), unreported[0], maxBatchDrops)
	}
}

// TestForgetRemovesRecordAndReplica: after a purge nothing can bring the
// document's holder list back, and the beacon names the live peers to
// tell.
func TestForgetRemovesRecordAndReplica(t *testing.T) {
	d := newTestDirectory("a")
	u := urlsOf(t, testLayout(), "a", 1)[0]
	d.lookup(0, u, "b", 1, nil)
	if err := d.acceptReplicas("b", true, []WireRecord{{URL: u, Holders: []string{"c"}, Version: 3}}); err != nil {
		t.Fatal(err)
	}
	d.setDown([]string{"d"})
	if peers := d.purge(u); !reflect.DeepEqual(peers, []string{"b", "c", "e"}) {
		t.Fatalf("purge peers = %v, want [b c e]", peers)
	}
	d.forget(u)
	if owned, _, replicas := d.counts(); owned != 0 || replicas != 0 {
		t.Fatalf("after forget: %d owned, %d replicas", owned, replicas)
	}
	if _, promoted := d.install(testLayout()); promoted != 0 {
		t.Fatalf("an install promoted %d replicas of a purged document", promoted)
	}
}

// TestUnknownHolderRefused: a name outside the cluster never becomes a
// holder-map key, whichever message carries it, and a refused batch
// applies nothing. On the parent commit only /lookup?holder= checked.
func TestUnknownHolderRefused(t *testing.T) {
	d := newTestDirectory("a")
	u := urlsOf(t, testLayout(), "a", 2)
	bad := []WireRecord{
		{URL: u[0], Holders: []string{"b"}, Version: 1},
		{URL: u[1], Holders: []string{"b", "stranger"}, Version: 1},
	}
	if _, ok := d.holderName("stranger"); ok {
		t.Fatal("holderName admitted a stranger")
	}
	if _, err := d.reconcile("stranger", 1, []ReconcileEntry{{URL: u[0], Version: 1}}); err == nil {
		t.Fatal("reconcile listed a stranger")
	}
	if err := d.importRecords(bad); err == nil {
		t.Fatal("import listed a stranger")
	}
	if err := d.acceptReplicas("b", true, bad); err == nil {
		t.Fatal("a replica push listed a stranger")
	}
	if owned, _, replicas := d.counts(); owned != 0 || replicas != 0 {
		t.Fatalf("refused messages left %d owned and %d replica records", owned, replicas)
	}
}

// TestReplicaPushFromStrangerRefused: a replica push whose From names no
// node of the cluster is refused whole, over HTTP with a 400, and a reset
// push from a stranger drops nothing. An empty From names no sender and is
// accepted. On the parent commit the stranger's name was kept on every
// replica it pushed.
func TestReplicaPushFromStrangerRefused(t *testing.T) {
	d := newTestDirectory("a")
	ub := urlsOf(t, testLayout(), "b", 2)
	if err := d.acceptReplicas("b", true, []WireRecord{{URL: ub[0], Holders: []string{"c"}, Version: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := d.acceptReplicas("stranger", true, []WireRecord{{URL: ub[1], Holders: []string{"d"}, Version: 1}}); err == nil {
		t.Fatal("a push from a stranger was accepted")
	}
	if got := d.snapshot(true); len(got) != 1 || got[0].URL != ub[0] {
		t.Fatalf("replicas after the stranger's push: %+v, want only b's", got)
	}
	if err := d.acceptReplicas("", false, []WireRecord{{URL: ub[1], Holders: []string{"d"}, Version: 1}}); err != nil {
		t.Fatalf("a push naming no sender: %v", err)
	}

	cfg := trioConfig()
	cn, err := NewCacheNodeWithTransport("n0", cfg, fuzzTransport{})
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	for from, want := range map[string]int{"stranger": 400, "n1": 200, "": 200} {
		body := `{"records":[{"url":"http://live/doc/1","holders":["n1"],"version":1}],"from":"` + from + `"}`
		rec := httptest.NewRecorder()
		cn.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/records/replica", strings.NewReader(body)))
		if rec.Code != want {
			t.Fatalf("/records/replica from %q: %d %s, want %d", from, rec.Code, rec.Body, want)
		}
	}
}

// heldOf returns how many of d's owned records are not empty, as counted
// without a walk.
func heldOf(d *directory) int {
	_, held, _ := d.counts()
	return held
}

// heldByWalk counts d's owned records that are not empty by walking the
// table.
func heldByWalk(d *directory) int {
	n := 0
	for _, wr := range d.snapshot(false) {
		if !wr.Empty() {
			n++
		}
	}
	return n
}

// TestEmptyRecordsStayHome: a record with no holder and version 0 crosses
// no wire. A push or a hand-off that carries one leaves both tables and
// their gauges as they were; a holder or a version alone still crosses; a
// push that empties a replica drops it; and an empty owned record is not
// at stake. On the parent commit each empty record became a record.
func TestEmptyRecordsStayHome(t *testing.T) {
	reg := obs.NewRegistry("test", nil)
	d := newDirectory("a", 16, testNames, testLayout(), reg)
	gauges := func() string {
		var out []string
		for _, line := range strings.Split(reg.Render(), "\n") {
			if !strings.HasPrefix(line, "#") && (strings.Contains(line, "lookup_records") || strings.Contains(line, "replica_records")) {
				out = append(out, line)
			}
		}
		return strings.Join(out, "; ")
	}
	own, rep := urlsOf(t, testLayout(), "a", 6), urlsOf(t, testLayout(), "b", 6)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(d.importRecords([]WireRecord{{URL: own[0], Version: 2}, {URL: own[1], Holders: []string{"c"}}}))
	must(d.acceptReplicas("b", true, []WireRecord{{URL: rep[0], Version: 2}, {URL: rep[1], Holders: []string{"c"}}}))
	before := gauges()
	if owned, _, replicas := d.counts(); owned != 2 || replicas != 2 {
		t.Fatalf("%d owned and %d replica records, want 2 of each (%s)", owned, replicas, before)
	}
	must(d.importRecords([]WireRecord{{URL: own[2]}, {URL: own[3], Holders: []string{}}}))
	must(d.acceptReplicas("b", false, []WireRecord{{URL: rep[2]}, {URL: rep[3], Holders: []string{}}}))
	if after := gauges(); after != before {
		t.Fatalf("empty records moved the gauges: %s, were %s", after, before)
	}
	if got := holdersOf(d, false, own[2]); got != nil {
		t.Fatalf("an empty hand-off made an owned record: %v", got)
	}
	// A push that names a replica empty supersedes it with nothing.
	must(d.acceptReplicas("b", false, []WireRecord{{URL: rep[1]}}))
	if got := d.snapshot(true); len(got) != 1 || got[0].URL != rep[0] {
		t.Fatalf("replicas after an emptying push: %+v, want only %s", got, rep[0])
	}
	// An owned record a lookup made, or one its holders all dropped, is
	// empty: not at stake, not pushed.
	d.lookup(0, own[4], "", 0, nil)
	d.lookup(0, own[5], "d", 1, nil)
	d.deregister("d", 2, []string{own[5]})
	if owned := len(d.snapshot(false)); owned != 4 {
		t.Fatalf("%d owned records, want 4", owned)
	}
	push := d.replicaPush()
	if want := []WireRecord{{URL: own[0], Version: 2}, {URL: own[1], Holders: []string{"c"}}}; !reflect.DeepEqual(push, want) {
		t.Fatalf("push = %+v, want %+v", push, want)
	}
	if got := heldOf(d); got != 2 || got != heldByWalk(d) {
		t.Fatalf("%d owned records at stake, want 2 (walk %d)", got, heldByWalk(d))
	}
}
