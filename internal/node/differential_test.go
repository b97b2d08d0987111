package node

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"cachecloud/internal/core"
	"cachecloud/internal/document"
	"cachecloud/internal/obs"
)

// The differential test drives one seeded schedule through the simulator's
// engine (core.Cloud) and through the live node's (one directory per
// cache, messages delivered by direct calls) and requires the two to agree
// after every step. The layout is the Cloud's: after every topology step
// each directory installs Cloud.RingAssignments(). DESIGN.md, "One protocol
// engine: direction", names the protocol differences the schedule is built
// around; the comparison itself is exact.

const (
	diffCaches = 6 // three rings of two
	diffRings  = 3
	diffDocs   = 40
	diffGen    = 64
)

type diffHarness struct {
	t     *testing.T
	rng   *rand.Rand
	cloud *core.Cloud
	// assign is the Cloud's layout in the node's wire form, taken again
	// after every topology step.
	assign Assignments
	ids    []string
	dirs   map[string]*directory // live caches only
	down   string                // the crashed cache, "" when all are up
	urls   []string
	hashes []document.Hash // of urls, index for index
	ver    map[string]document.Version
	holds  map[string]map[string]bool // cache → url → stores a copy
	seq    uint64
	now    int64

	migrated, promoted, pruned int
}

func newDiffHarness(t *testing.T, seed int64) *diffHarness {
	h := &diffHarness{
		t: t, rng: rand.New(rand.NewSource(seed)),
		dirs: make(map[string]*directory), ver: make(map[string]document.Version),
		holds: make(map[string]map[string]bool),
	}
	for i := 0; i < diffCaches; i++ {
		h.ids = append(h.ids, fmt.Sprintf("c%d", i))
	}
	for i := 0; i < diffDocs; i++ {
		h.urls = append(h.urls, fmt.Sprintf("http://diff/doc/%03d", i))
		h.hashes = append(h.hashes, document.HashURL(h.urls[i]))
	}
	cloud, err := core.New(core.Config{NumRings: diffRings, IntraGen: diffGen, FineGrained: true, ReplicateRecords: true}, h.ids, nil)
	if err != nil {
		t.Fatal(err)
	}
	h.cloud = cloud
	h.assign = h.layout()
	for _, id := range h.ids {
		h.join(id)
	}
	return h
}

// layout converts the Cloud's rings into the node's wire form.
func (h *diffHarness) layout() Assignments { return cloudLayout(h.cloud) }

func (h *diffHarness) join(id string) {
	h.dirs[id] = newDirectory(id, diffGen, h.ids, h.assign, obs.NewRegistry("diff", nil))
	h.holds[id] = make(map[string]bool)
}

// beacon returns the directory the layout in force makes url's beacon.
func (h *diffHarness) beacon(url string) *directory {
	owner, err := h.assign.ownerOf(url, diffGen)
	if err != nil {
		h.t.Fatal(err)
	}
	return h.dirs[owner]
}

func (h *diffHarness) liveCache() string {
	for {
		if id := h.ids[h.rng.Intn(len(h.ids))]; id != h.down {
			return id
		}
	}
}

// doc picks a document, the low indexes far more often, from a window that
// moves through the catalog so that the rings keep having load to move.
func (h *diffHarness) doc(step int) string {
	i := int(h.rng.ExpFloat64()*6) + step/400*7
	return h.urls[i%len(h.urls)]
}

func (h *diffHarness) nextSeq() uint64 { h.seq++; return h.seq }

func sortedCopy(in []string) []string {
	out := append([]string{}, in...)
	sort.Strings(out)
	return out
}

// replicate runs the lazy replication pass on both sides.
func (h *diffHarness) replicate() {
	h.cloud.ReplicateRecords()
	for _, id := range h.ids {
		d, ok := h.dirs[id]
		if !ok {
			continue
		}
		recs := d.replicaPush()
		// The sibling is the other member of the cache's ring, as in
		// handleReplicate; the layout names live caches only.
		for _, sub := range h.assign.Rings[h.assign.ringOf(id)] {
			if sub.Node != id {
				if err := h.dirs[sub.Node].acceptReplicas(id, true, recs); err != nil {
					h.t.Fatal(err)
				}
				break
			}
		}
	}
}

// installAll puts the Cloud's layout in force at every live directory and
// delivers the hand-offs.
func (h *diffHarness) installAll() {
	h.assign = h.layout()
	var pending []handoff
	for _, id := range h.ids {
		if d, ok := h.dirs[id]; ok {
			out, promoted := d.install(h.assign)
			pending = append(pending, out...)
			h.promoted += promoted
		}
	}
	for _, ho := range pending {
		if err := h.dirs[ho.owner].importRecords(ho.records); err != nil {
			h.t.Fatal(err)
		}
		h.migrated += len(ho.records)
	}
}

func (h *diffHarness) setDownAll(names []string) {
	for _, d := range h.dirs {
		d.setDown(names)
	}
}

// step runs one schedule step on both engines and returns its name and the
// document it touched ("" for a topology step).
func (h *diffHarness) step(i int) (kind, url string) {
	h.now = int64(i / 10)
	url = h.doc(i)
	id := h.liveCache()
	switch p := h.rng.Intn(1000); {
	case p < 300:
		return "lookup", url
	case p < 560:
		h.holds[id][url] = true
		if _, err := h.cloud.Cache(id).Put(document.Copy{Doc: document.Document{URL: url, Size: 1, Version: h.ver[url]}, FetchedAt: h.now}, h.now); err != nil {
			h.t.Fatal(err)
		}
		if err := h.cloud.RegisterHolder(url, id); err != nil {
			h.t.Fatal(err)
		}
		h.beacon(url).lookup(h.now, url, id, h.nextSeq(), nil)
		return "register", url
	case p < 720:
		if !h.holds[id][url] {
			return "lookup", url
		}
		delete(h.holds[id], url)
		h.cloud.Cache(id).Remove(url)
		if err := h.cloud.DeregisterHolder(url, id); err != nil {
			h.t.Fatal(err)
		}
		h.beacon(url).deregister(id, h.nextSeq(), []string{url})
		return "deregister", url
	case p < 770:
		// The copy goes and no drop is sent: the next update finds the
		// listing stale and prunes it, on both sides.
		delete(h.holds[id], url)
		h.cloud.Cache(id).Remove(url)
		return "evict-silently", url
	case p < 960:
		h.ver[url]++
		doc := document.Document{URL: url, Size: 1, Version: h.ver[url]}
		res, err := h.cloud.Update(doc, h.now)
		if err != nil {
			h.t.Fatal(err)
		}
		d := h.beacon(url)
		_, holders := d.update(h.now, doc)
		var notified []string
		var stale []listing
		for _, l := range holders {
			if h.holds[l.holder][url] {
				notified = append(notified, l.holder)
			} else {
				stale = append(stale, l)
			}
		}
		d.unlist(url, stale)
		h.pruned += len(stale)
		if got, want := notified, sortedCopy(res.Notified); !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
			h.t.Fatalf("step %d update %s v%d: directory notifies %v, core %v", i, url, doc.Version, got, want)
		}
		return "update", url
	case p < 985:
		h.replicate()
		h.cloud.Rebalance()
		h.installAll()
		return "rebalance", ""
	case h.down == "":
		// One cache down at a time keeps every ring at two members or one,
		// so that core's sibling and the node's are the same cache.
		h.replicate()
		h.down = id
		if err := h.cloud.RemoveCache(id, false); err != nil {
			h.t.Fatal(err)
		}
		delete(h.dirs, id)
		delete(h.holds, id)
		h.setDownAll([]string{id})
		h.installAll()
		return "crash", ""
	default:
		id, h.down = h.down, ""
		if err := h.cloud.AddCache(id, 1, 0); err != nil {
			h.t.Fatal(err)
		}
		h.assign = h.layout()
		h.join(id)
		h.setDownAll(nil)
		h.installAll()
		return "rejoin", ""
	}
}

// readBack looks url up on both sides (a lookup charges load and creates
// the record, on both) and compares the whole answer. core shows a record's
// version through Lookup only, so versions are read back for the document a
// step touched, and for every document after a topology step — the only
// steps that can change the version of a document they do not name.
func (h *diffHarness) readBack(step int, kind, url string) {
	res, err := h.cloud.Lookup(url, h.now)
	if err != nil {
		h.t.Fatal(err)
	}
	d := h.beacon(url)
	lr := d.lookup(h.now, url, "", 0, nil)
	if d.self != res.Beacon || lr.Version != res.Version || !reflect.DeepEqual(append([]string{}, lr.Holders...), sortedCopy(res.Holders)) {
		h.t.Fatalf("step %d (%s) %s: directory %s answers %v v%d, core %s answers %v v%d",
			step, kind, url, d.self, lr.Holders, lr.Version, res.Beacon, sortedCopy(res.Holders), res.Version)
	}
}

// compare checks, without charging anything, that every document has the
// same beacon and the same holder set on both sides, and that no directory
// but the beacon's keeps an owned record of it.
func (h *diffHarness) compare(step int, kind string) {
	for i, url := range h.urls {
		beacon, err := h.cloud.BeaconForHash(h.hashes[i])
		if err != nil {
			h.t.Fatal(err)
		}
		if owner, _ := h.assign.ownerOfHash(h.hashes[i], diffGen); owner != beacon {
			h.t.Fatalf("step %d (%s) %s: core's beacon is %s, the layout's is %s", step, kind, url, beacon, owner)
		}
		var got []string
		for id, d := range h.dirs {
			holders := holdersOf(d, false, url)
			if holders != nil && id != beacon {
				h.t.Fatalf("step %d (%s) %s: %s keeps an owned record, the beacon is %s", step, kind, url, id, beacon)
			}
			for name := range holders {
				got = append(got, name)
			}
		}
		sort.Strings(got)
		if want := sortedCopy(h.cloud.Holders(url)); len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
			h.t.Fatalf("step %d (%s) %s at %s: directory lists %v, core %v", step, kind, url, beacon, got, want)
		}
	}
	for id, d := range h.dirs {
		if got, walk := heldOf(d), heldByWalk(d); got != walk {
			h.t.Fatalf("step %d (%s): %s has %d owned records at stake, a walk counts %d", step, kind, id, got, walk)
		}
	}
}

// TestDirectoryMatchesCore is the "live node vs core disagreement" check:
// 20 seeds × 2,000 steps of lookup / register / deregister / update /
// rebalance with hand-off / replicate, crash and promote / rejoin.
func TestDirectoryMatchesCore(t *testing.T) {
	var migrated, promoted, pruned int
	for seed := int64(1); seed <= 20; seed++ {
		h := newDiffHarness(t, seed)
		for i := 0; i < 2000; i++ {
			kind, url := h.step(i)
			if url != "" {
				h.readBack(i, kind, url)
			} else {
				for _, u := range h.urls {
					h.readBack(i, kind, u)
				}
			}
			h.compare(i, kind)
		}
		migrated, promoted, pruned = migrated+h.migrated, promoted+h.promoted, pruned+h.pruned
	}
	// The schedule must have exercised what it is for.
	if migrated == 0 || promoted == 0 || pruned == 0 {
		t.Fatalf("schedules handed off %d records, promoted %d replicas and pruned %d stale listings; want all > 0", migrated, promoted, pruned)
	}
	t.Logf("handed off %d records, promoted %d replicas, pruned %d stale listings", migrated, promoted, pruned)
}
