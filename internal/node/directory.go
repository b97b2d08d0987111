package node

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"cachecloud/internal/document"
	"cachecloud/internal/loadstats"
	"cachecloud/internal/obs"
)

// record is one lookup record a live node keeps as a beacon point: an
// owned entry (this node is the document's beacon) or the lazy replica of
// a ring sibling's entry. Both are the same type, so the sequence rule
// holds on both.
type record struct {
	// holders lists each holder with the sequence number of its newest
	// registration (0: unnumbered — it crossed the wire in a WireRecord),
	// in name order: every answer, fan-out and wire form is a walk of it.
	holders []listing
	version document.Version
	hash    document.Hash // of the record's URL, so that no table walk hashes
	rates   *rates        // nil until the first lookup or update
	// Replica entries only: the sibling that pushed the entry, or the
	// beacon a failover registration is kept for (that node's next full
	// push supersedes it), and the number of the push that last wrote it.
	from string
	push uint64
}

// listing is one holder of a record and the number it is listed under.
type listing struct {
	holder string
	seq    uint64
}

// rates is a record's pair of monitors, cloud-wide lookups and updates;
// monitorHalfLife is the half-life they all share, one hour of trace time.
type rates struct{ lookups, updates loadstats.EWRate }

var monitorHalfLife = loadstats.NewHalfLife(60)

// entry is the get-or-create of url's record in one of the directory's two
// tables; hash is url's. The holder list and the rate monitors come with
// their first use: the replica of a document nobody holds is one allocation.
func entry(table map[string]*record, url string, hash document.Hash) *record {
	rec, ok := table[url]
	if !ok {
		rec = &record{hash: hash}
		table[url] = rec
	}
	return rec
}

// hashOf returns url's hash, without running MD5 when either table has a
// record of url. Caller holds mu.
func (d *directory) hashOf(url string) document.Hash {
	if rec := cmp.Or(d.owned[url], d.replicas[url]); rec != nil {
		return rec.hash
	}
	return document.HashURL(url)
}

// observe counts one lookup (or update) and returns the document's
// monitored rates. Rate decays its monitor in place, so the rates are read
// in the same critical section as the count.
func (r *record) observe(now int64, lookup bool) (lookupRate, updateRate float64) {
	if r.rates == nil {
		r.rates = new(rates)
	}
	if lookup {
		r.rates.lookups.Observe(monitorHalfLife, now, 1)
	} else {
		r.rates.updates.Observe(monitorHalfLife, now, 1)
	}
	return r.rates.lookups.Rate(monitorHalfLife, now), r.rates.updates.Rate(monitorHalfLife, now)
}

// find returns h's place in the name-ordered list and whether it is there.
func (r *record) find(h string) (int, bool) {
	return slices.BinarySearchFunc(r.holders, h, func(l listing, h string) int { return cmp.Compare(l.holder, h) })
}

// listed returns the holders in name order, skip and the members of down
// left out; nil when none is left.
func (r *record) listed(skip string, down map[string]bool) []string {
	var out []string
	for _, l := range r.holders {
		if l.holder == skip || down[l.holder] {
			continue
		}
		if out == nil {
			out = make([]string, 0, len(r.holders))
		}
		out = append(out, l.holder)
	}
	return out
}

// list records a registration of holder h numbered seq. An older or
// unnumbered registration never lowers the number already kept.
func (r *record) list(h string, seq uint64) {
	i, ok := r.find(h)
	if !ok {
		r.holders = slices.Insert(r.holders, i, listing{h, seq})
	} else if seq > r.holders[i].seq {
		r.holders[i].seq = seq
	}
}

// drop removes holder h, unless h registered again after it issued the
// drop numbered seq: the two messages crossed and the registration is the
// newer fact. An unnumbered drop (0) always applies. It reports whether
// the drop was ignored as stale.
func (r *record) drop(h string, seq uint64) (stale bool) {
	i, ok := r.find(h)
	if !ok {
		return false
	}
	if seq != 0 && seq < r.holders[i].seq {
		return true
	}
	r.unlistAt(i)
	return false
}

// unlistAt removes the i-th listing. A record nobody holds keeps no array.
func (r *record) unlistAt(i int) {
	if r.holders = slices.Delete(r.holders, i, i+1); len(r.holders) == 0 {
		r.holders = nil
	}
}

// wire renders the record for a hand-off, a replica push or a snapshot:
// holder names in order, their numbers left behind.
func (r *record) wire(url string) WireRecord {
	return WireRecord{URL: url, Version: r.version, Holders: r.listed("", nil)}
}

// merge folds a record that crossed the wire into r: the newer version
// wins and every holder is listed, unnumbered, once however often named.
func (r *record) merge(wr WireRecord) {
	if wr.Version > r.version {
		r.version = wr.Version
	}
	for _, h := range wr.Holders {
		r.list(h, 0)
	}
}

// handoff is the records one new owner is due after an install.
type handoff struct {
	owner   string
	records []WireRecord
}

// directory is the beacon-point state of a live node: the layout and the
// dead-peer set, the lookup records it owns, the replicas of its ring
// siblings' records and the cycle's load counters. It knows no HTTP,
// transport or clock (time comes in as now): a handler decodes, makes one
// call here and sends what the call returns. mu is a leaf lock: nothing is
// called while it is held.
type directory struct {
	self  string
	names []string // every node of the cluster, sorted

	// view (see route.go) is republished under mu and read without it:
	// request routing and placement never wait for an install or a hand-off.
	view atomic.Pointer[routeView]

	mu       sync.Mutex
	owned    map[string]*record
	replicas map[string]*record
	pushes   uint64 // replica pushes accepted so far
	// loads[ring] is a dense per-IrH-value load counter for the ranges this
	// node owns in that ring (it only ever has entries for its own ring,
	// but indexing by ring keeps the wire format uniform).
	loads map[int][]int64

	beaconOps  *obs.Counter
	registered *obs.Counter // lookups that listed their requester
	staleDrops *obs.Counter // drops ignored under the sequence rule
}

// newDirectory builds node self's directory and registers its series.
func newDirectory(self string, intraGen int, names []string, assign Assignments, reg *obs.Registry) *directory {
	d := &directory{
		self:       self,
		names:      names,
		owned:      make(map[string]*record),
		replicas:   make(map[string]*record),
		loads:      make(map[int][]int64),
		beaconOps:  reg.Counter("beacon_ops_total"),
		registered: reg.Counter("lookup_registered_total"),
		staleDrops: reg.Counter("drops_ignored_stale_total"),
	}
	d.view.Store(newRouteView(intraGen, assign))
	reg.GaugeFunc("lookup_records", func() float64 { owned, _ := d.counts(); return float64(owned) })
	reg.GaugeFunc("replica_records", func() float64 { _, replicas := d.counts(); return float64(replicas) })
	reg.GaugeFunc("ring_count", func() float64 { return float64(len(d.route().assign.Rings)) })
	reg.GaugeFunc("owned_subrange_len", func() float64 { return float64(ownedSubrangeLen(&d.route().assign, self)) })
	reg.GaugeFunc("down_peers", func() float64 { return float64(len(d.route().down)) })
	return d
}

// route returns the routing snapshot in force.
func (d *directory) route() *routeView { return d.view.Load() }

// counts returns how many owned and replica records the directory holds.
func (d *directory) counts() (owned, replicas int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.owned), len(d.replicas)
}

// holderName is the one gate a name passes before it may enter a holder
// list: it must be a node of the cluster. The cluster's own copy of it is
// returned, so that no record keeps a request's bytes alive. The shield's
// table follows the same rule for the cloud IDs it keeps: it subscribes
// only liveCloud, and stores the constant (ShieldNode.handleFetch).
func (d *directory) holderName(name string) (string, bool) {
	if i, ok := slices.BinarySearch(d.names, name); ok {
		return d.names[i], true
	}
	return "", false
}

// admit puts every holder name of a batch of wire records through
// holderName, and refuses the batch when one fails.
func (d *directory) admit(recs []WireRecord) error {
	for _, wr := range recs {
		for i, h := range wr.Holders {
			name, ok := d.holderName(h)
			if !ok {
				return fmt.Errorf("unknown holder %q on record %q", h, wr.URL)
			}
			wr.Holders[i] = name
		}
	}
	return nil
}

// ownerOf returns the beacon of hash h under v, "" when no sub-range
// covers it.
func (d *directory) ownerOf(v *routeView, h document.Hash) string {
	owner, _ := v.beacon(h)
	return owner
}

// charge records one beacon operation on h's IrH value. Caller holds mu.
func (d *directory) charge(v *routeView, h document.Hash) {
	ringIdx := h.RingIndex(len(v.assign.Rings))
	irh := h.IrH(v.intraGen)
	d.beaconOps.Inc()
	dense := d.loads[ringIdx]
	if dense == nil {
		dense = make([]int64, v.intraGen)
		d.loads[ringIdx] = dense
	}
	if irh >= 0 && irh < len(dense) {
		dense[irh]++
	}
}

// lookup serves one /lookup: the requester's piggybacked drops are
// applied; the answer is built from the record as it then stands, the
// requester left out, so that its replica count and peer choice are those
// of the other holders; then, when holder is set (a name from holderName),
// the requester is listed under seq.
//
// A URL this node is not the beacon of failed over from its ring sibling:
// it is answered from the lazy replica without taking ownership (that
// happens at install), and the requester is listed on the replica, kept
// for the real beacon. An owned record minted here instead would be
// replicated back to that beacon and counted as a crash recovery when an
// install promotes it.
func (d *directory) lookup(now int64, url, holder string, seq uint64, drops []string) LookupResponse {
	hash := document.HashURL(url)
	d.mu.Lock()
	defer d.mu.Unlock()
	v := d.route()
	d.deregisterLocked(v, holder, seq, drops)
	owner := d.ownerOf(v, hash)
	rec := d.owned[url]
	if owner == d.self {
		rec = entry(d.owned, url, hash)
	}
	var out LookupResponse
	if rec != nil {
		d.charge(v, hash)
		out.Version = rec.version
		out.LookupRate, out.UpdateRate = rec.observe(now, true)
		out.Holders = rec.listed(holder, nil)
	} else if rep := d.replicas[url]; rep != nil {
		out.Version = rep.version
		out.Holders = rep.listed(holder, v.down)
	}
	if holder != "" {
		if owner != d.self {
			rec = entry(d.replicas, url, hash)
			rec.from = owner
		}
		rec.list(holder, seq)
		d.registered.Inc()
	}
	return out
}

// deregister drops holder from each URL's record, subject to the sequence
// rule (record.drop), on the owned entry of a URL this node is the beacon
// of and on the replica entry of any other.
func (d *directory) deregister(holder string, seq uint64, urls []string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.deregisterLocked(d.route(), holder, seq, urls)
}

func (d *directory) deregisterLocked(v *routeView, holder string, seq uint64, urls []string) {
	for _, url := range urls {
		table := d.replicas
		if d.ownerOf(v, d.hashOf(url)) == d.self {
			table = d.owned
		}
		if rec, ok := table[url]; ok && rec.drop(holder, seq) {
			d.staleDrops.Inc()
		}
	}
}

// update folds an origin update into the document's record and returns the
// push to fan out and the holders to send it to, in name order, each with
// the number it was listed under when the fan-out began.
func (d *directory) update(now int64, doc document.Document) (UpdateRequest, []listing) {
	hash := document.HashURL(doc.URL)
	d.mu.Lock()
	defer d.mu.Unlock()
	d.charge(d.route(), hash)
	rec := entry(d.owned, doc.URL, hash)
	push := UpdateRequest{Doc: doc}
	push.LookupRate, push.UpdateRate = rec.observe(now, false)
	if doc.Version > rec.version {
		rec.version = doc.Version
	}
	push.Replicas = len(rec.holders)
	return push, slices.Clone(rec.holders)
}

// unlist removes the listings of url that its fan-out found stale (dead,
// unreachable, or no longer holding). A holder that registered again since
// the fan-out began keeps its entry: the verdict is about the earlier
// registration.
func (d *directory) unlist(url string, stale []listing) {
	if len(stale) == 0 {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	rec, ok := d.owned[url]
	if !ok {
		return
	}
	for _, l := range stale {
		if i, listed := rec.find(l.holder); listed && rec.holders[i].seq == l.seq {
			rec.unlistAt(i)
		}
	}
}

// forget removes url's owned record and its replica. The replica must go
// too: a later install could promote it and resurrect the holder list of a
// purged document.
func (d *directory) forget(url string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.owned, url)
	delete(d.replicas, url)
}

// purge is the beacon side of a scoped invalidation: it charges the
// operation and returns the live peers to broadcast the drop to, in name
// order. The beacon's own drop goes through forget like everyone's.
func (d *directory) purge(url string) (peers []string) {
	hash := document.HashURL(url)
	d.mu.Lock()
	defer d.mu.Unlock()
	v := d.route()
	d.charge(v, hash)
	for _, name := range d.names {
		if name != d.self && !v.down[name] {
			peers = append(peers, name)
		}
	}
	return peers
}

// install puts a new layout in force. Replicas of sub-ranges the node now
// owns are folded into its owned records and consumed — how lookups
// survive a beacon crash (Section 2.3's lazy replication); a holder listed
// on the replica during the failover keeps its number. The fold happens
// even where failover traffic already recreated the record: the replica
// can carry holders it lacks, and consuming it keeps a later install from
// counting it as recovered again. Records the node no longer owns come
// back as one batch per new owner, owners and URLs sorted.
func (d *directory) install(a Assignments) (out []handoff, promoted int) {
	d.mu.Lock()
	v := d.route()
	v = v.with(a, v.down)
	d.view.Store(v)
	for url, rep := range d.replicas {
		if d.ownerOf(v, rep.hash) != d.self {
			continue
		}
		rec := entry(d.owned, url, rep.hash)
		if rep.version > rec.version {
			rec.version = rep.version
		}
		for _, l := range rep.holders {
			if !v.down[l.holder] {
				rec.list(l.holder, l.seq)
			}
		}
		delete(d.replicas, url)
		promoted++
	}
	byOwner := make(map[string][]WireRecord)
	for url, rec := range d.owned {
		owner := d.ownerOf(v, rec.hash)
		if owner == "" || owner == d.self {
			continue
		}
		byOwner[owner] = append(byOwner[owner], rec.wire(url))
		delete(d.owned, url)
	}
	d.mu.Unlock()

	for owner, recs := range byOwner {
		sort.Slice(recs, func(i, j int) bool { return recs[i].URL < recs[j].URL })
		out = append(out, handoff{owner, recs})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].owner < out[j].owner })
	return out, promoted
}

// importRecords merges records handed off by their previous beacon.
func (d *directory) importRecords(recs []WireRecord) error {
	if err := d.admit(recs); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, wr := range recs {
		entry(d.owned, wr.URL, d.hashOf(wr.URL)).merge(wr)
	}
	return nil
}

// acceptReplicas stores a sibling's record copies without taking
// ownership; they are promoted only if this node later owns their range.
// A pushed entry supersedes the one held for its URL (written over, not
// reallocated: a cycle's push mostly repeats the last one's URLs). A reset
// push is a full snapshot of the sender's records: what it pushed before
// and not again (every other replica, when it does not name itself) is
// dropped, so that it cannot be promoted later; other siblings' are kept.
func (d *directory) acceptReplicas(from string, reset bool, recs []WireRecord) error {
	if err := d.admit(recs); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.pushes++
	for _, wr := range recs {
		rep := entry(d.replicas, wr.URL, d.hashOf(wr.URL))
		rep.holders = rep.holders[:0]
		rep.version, rep.from, rep.push = 0, from, d.pushes
		rep.merge(wr)
	}
	if reset {
		for url, rep := range d.replicas {
			if rep.push != d.pushes && (from == "" || rep.from == from) {
				delete(d.replicas, url)
			}
		}
	}
	return nil
}

// snapshot returns the owned records, or the replicas, sorted by URL.
func (d *directory) snapshot(replicas bool) []WireRecord {
	d.mu.Lock()
	table := d.owned
	if replicas {
		table = d.replicas
	}
	out := make([]WireRecord, 0, len(table))
	for url, rec := range table {
		out = append(out, rec.wire(url))
	}
	d.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].URL < out[j].URL })
	return out
}

// collectLoads reports the cycle's per-IrH loads and resets them.
func (d *directory) collectLoads() LoadReport {
	d.mu.Lock()
	defer d.mu.Unlock()
	rep := LoadReport{Node: d.self, PerIrH: make(map[int][]int64, len(d.loads))}
	for ringIdx, dense := range d.loads {
		rep.PerIrH[ringIdx] = append([]int64(nil), dense...)
		for i, v := range dense {
			rep.Total += v
			dense[i] = 0
		}
	}
	return rep
}

// setDown installs the origin's list of dead peers. Dead nodes leave every
// holder list, owned and replica, so that lookups stop steering requesters
// at them; they register again after rejoining.
func (d *directory) setDown(names []string) {
	down := make(map[string]bool, len(names))
	for _, name := range names {
		down[name] = true
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	v := d.route()
	d.view.Store(v.with(v.assign, down))
	if len(down) == 0 {
		return
	}
	isDown := func(l listing) bool { return down[l.holder] }
	for _, table := range []map[string]*record{d.owned, d.replicas} {
		for _, rec := range table {
			if rec.holders = slices.DeleteFunc(rec.holders, isDown); len(rec.holders) == 0 {
				rec.holders = nil
			}
		}
	}
}

// reconcile folds one holder's anti-entropy report into the records this
// node owns and returns the per-copy verdicts: a current copy is listed
// under seq — healing records lost to crashes, capacity churn, or stores
// made while the beacon was unreachable — and advances the record to its
// version; a copy staler than the version already fanned out gets
// Keep=false and is unlisted. It also returns the documents the node lists
// the holder for that the report left out (at most maxBatchDrops): a lost
// drop, or an entry a promoted replica brought back. The beacon does not
// act on those; the holder, which alone knows what it stores and what it
// is fetching, answers with drops.
func (d *directory) reconcile(holder string, seq uint64, entries []ReconcileEntry) (ReconcileResponse, error) {
	name, ok := d.holderName(holder)
	if !ok {
		return ReconcileResponse{}, fmt.Errorf("unknown holder %q", holder)
	}
	holder = name
	var unreported []string
	out := make([]ReconcileResult, 0, len(entries))
	reported := make(map[string]struct{}, len(entries))
	d.mu.Lock()
	v := d.route()
	for _, e := range entries {
		reported[e.URL] = struct{}{}
		hash := d.hashOf(e.URL)
		owned := d.ownerOf(v, hash) == d.self
		res := ReconcileResult{URL: e.URL, Version: e.Version, Owned: owned, Keep: true}
		if owned {
			rec := entry(d.owned, e.URL, hash)
			if e.Version < rec.version {
				rec.drop(holder, 0)
				res.Keep = false
			} else {
				rec.list(holder, seq)
				rec.version = e.Version
			}
			res.Version = rec.version
		}
		out = append(out, res)
	}
	for url, rec := range d.owned {
		if _, listed := rec.find(holder); !listed {
			continue
		}
		if _, ok := reported[url]; !ok {
			unreported = append(unreported, url)
		}
	}
	d.mu.Unlock()
	sort.Strings(unreported) // deterministic, whatever the cut keeps
	if len(unreported) > maxBatchDrops {
		unreported = unreported[:maxBatchDrops]
	}
	return ReconcileResponse{Results: out, Unreported: unreported}, nil
}
