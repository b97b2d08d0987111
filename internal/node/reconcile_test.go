package node

import (
	"context"
	"net/http"
	"testing"

	"cachecloud/internal/document"
)

// findHeldDoc loads documents through a node until one is stored on it,
// returning that URL. Ad hoc placement stores every miss, so the first
// request suffices; the loop guards against capacity evictions.
func findHeldDoc(t *testing.T, client *http.Client, lc *LocalCluster, nodeName string) string {
	t.Helper()
	base := lc.Cfg.Addrs[nodeName]
	for _, d := range testCatalog(40) {
		dr := getDoc(t, client, base, d.URL)
		if dr.Stored && lc.Caches[nodeName].store.Has(d.URL) {
			return d.URL
		}
	}
	t.Fatal("no document stored on node")
	return ""
}

// TestReconcileReRegistersLostRecord checks the healing direction of the
// anti-entropy pass: when a beacon loses the lookup record for a held
// copy (crash, migration glitch), the holder's next reconcile pass
// re-registers it so lookups find the copy again.
func TestReconcileReRegistersLostRecord(t *testing.T) {
	lc := startCluster(t, 4, 2, ClusterConfig{IntraGen: 64})
	client := &http.Client{}
	holder := "live-00"
	url := findHeldDoc(t, client, lc, holder)

	// Erase the record wherever the beacon keeps it.
	beacon, _, err := lc.Caches[holder].beaconURL(url)
	if err != nil {
		t.Fatal(err)
	}
	bn := lc.Caches[beacon]
	bn.dir.forget(url)

	reported, dropped := lc.Caches[holder].Reconcile(context.Background())
	if reported == 0 {
		t.Fatalf("reconcile reported %d copies, want > 0", reported)
	}
	if dropped != 0 {
		t.Fatalf("reconcile dropped %d fresh copies, want 0", dropped)
	}
	found := false
	for _, wr := range bn.Records() {
		if wr.URL != url {
			continue
		}
		for _, h := range wr.Holders {
			if h == holder {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("beacon %s did not re-register %s as holder of %s", beacon, holder, url)
	}
}

// TestReconcileDropsStaleCopy checks the staleness-bounding direction:
// a holder whose copy predates the beacon's fanned-out version must drop
// it on reconcile (Keep=false) instead of serving it indefinitely.
func TestReconcileDropsStaleCopy(t *testing.T) {
	lc := startCluster(t, 4, 2, ClusterConfig{IntraGen: 64})
	client := &http.Client{}
	holder := "live-00"
	url := findHeldDoc(t, client, lc, holder)

	// Advance the beacon's record version past the stored copy's, as if an
	// update fan-out never reached this holder.
	beacon, _, err := lc.Caches[holder].beaconURL(url)
	if err != nil {
		t.Fatal(err)
	}
	bn := lc.Caches[beacon]
	cp, _ := lc.Caches[holder].store.Peek(url)
	if err := bn.dir.importRecords([]WireRecord{{URL: url, Version: cp.Doc.Version + 5}}); err != nil {
		t.Fatal(err)
	}

	_, dropped := lc.Caches[holder].Reconcile(context.Background())
	if dropped != 1 {
		t.Fatalf("reconcile dropped %d copies, want 1", dropped)
	}
	if lc.Caches[holder].store.Has(url) {
		t.Fatalf("stale copy of %s still stored after reconcile", url)
	}
	for _, wr := range bn.Records() {
		if wr.URL != url {
			continue
		}
		for _, h := range wr.Holders {
			if h == holder {
				t.Fatalf("beacon still lists %s as holder of stale %s", holder, url)
			}
		}
	}
}

// TestReconcileVersionAdvances checks that the beacon adopts a newer
// version seen on a holder (e.g. a degraded-path store made while the
// beacon was partitioned away) so later lookups report it.
func TestReconcileVersionAdvances(t *testing.T) {
	lc := startCluster(t, 4, 2, ClusterConfig{IntraGen: 64})
	client := &http.Client{}
	holder := "live-00"
	url := findHeldDoc(t, client, lc, holder)
	hn := lc.Caches[holder]
	cp, _ := hn.store.Peek(url)
	newer := document.Document{URL: url, Size: cp.Doc.Size, Version: cp.Doc.Version + 3}
	if !hn.store.ApplyUpdate(newer, hn.now()) {
		t.Fatal("ApplyUpdate failed")
	}

	hn.Reconcile(context.Background())

	beacon, _, err := hn.beaconURL(url)
	if err != nil {
		t.Fatal(err)
	}
	for _, wr := range lc.Caches[beacon].Records() {
		if wr.URL == url && wr.Version != newer.Version {
			t.Fatalf("beacon version %d, want %d", wr.Version, newer.Version)
		}
	}
}

// TestUpdateFanoutPrunesUnreachableHolder checks that a holder whose
// /apply push fails is dropped from the lookup record: the beacon must
// not keep steering requesters at a copy it could not refresh.
func TestUpdateFanoutPrunesUnreachableHolder(t *testing.T) {
	lc := startCluster(t, 4, 2, ClusterConfig{IntraGen: 64})
	client := &http.Client{}
	holder := "live-00"
	base := lc.Cfg.Addrs[holder]
	var url, beacon, beaconBase string
	for _, d := range testCatalog(40) {
		b, bb, err := lc.Caches[holder].beaconURL(d.URL)
		if err != nil || b == holder {
			continue
		}
		dr := getDoc(t, client, base, d.URL)
		if dr.Stored && lc.Caches[holder].store.Has(d.URL) {
			url, beacon, beaconBase = d.URL, b, bb
			break
		}
	}
	if url == "" {
		t.Fatal("no stored document with a remote beacon")
	}

	// Crash the holder, then push an update through the beacon. The /apply
	// push fails, so the beacon must prune the holder from the record.
	if !lc.StopNode(holder) {
		t.Fatal("StopNode failed")
	}
	doc := document.Document{URL: url, Size: 100, Version: 99}
	var ur UpdateResponse
	if err := postJSON(client, beaconBase+"/update", UpdateRequest{Doc: doc}, &ur); err != nil {
		t.Fatal(err)
	}
	for _, wr := range lc.Caches[beacon].Records() {
		if wr.URL != url {
			continue
		}
		for _, h := range wr.Holders {
			if h == holder {
				t.Fatalf("beacon still lists crashed holder %s for %s after failed push", holder, url)
			}
		}
	}
}

// TestReplicaResetDropsStaleEntries checks the Reset semantics of replica
// pushes: a full-snapshot push replaces the receiver's replicas from that
// sender, so records the sender no longer holds cannot be promoted later.
func TestReplicaResetDropsStaleEntries(t *testing.T) {
	lc := startCluster(t, 2, 2, ClusterConfig{IntraGen: 64})
	client := &http.Client{}
	a, b := lc.Caches["live-00"], lc.Caches["live-01"]

	// Seed b with a replica from a that a does not actually hold.
	stale := RecordsImport{
		Records: []WireRecord{{URL: "http://live/ghost", Holders: []string{"live-00"}, Version: 7}},
		From:    a.Name(),
	}
	if err := postJSON(client, lc.Cfg.Addrs["live-01"]+"/records/replica", stale, nil); err != nil {
		t.Fatal(err)
	}
	if len(b.ReplicaSnapshot()) != 1 {
		t.Fatal("stale replica not stored")
	}

	// Give a at least one real record, then run its replication pass.
	findHeldDoc(t, client, lc, "live-00")
	if err := postJSON(client, lc.Cfg.Addrs["live-00"]+"/replicate", struct{}{}, nil); err != nil {
		t.Fatal(err)
	}
	for _, wr := range b.ReplicaSnapshot() {
		if wr.URL == "http://live/ghost" {
			t.Fatal("stale replica survived a Reset snapshot push")
		}
	}
}
