package node

import (
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"cachecloud/internal/document"
	"cachecloud/internal/durable"
)

// heldWrites sits between a node's queue and its store: the first write
// parks until release is closed, as one inside a seal or a compaction does.
type heldWrites struct {
	durable.Mutator
	once    sync.Once
	entered chan struct{} // closed when the first write parks
	release chan struct{}
}

func (h *heldWrites) hold() {
	h.once.Do(func() {
		close(h.entered)
		<-h.release
	})
}

func (h *heldWrites) Apply(op durable.Op) error { h.hold(); return h.Mutator.Apply(op) }

// holdWrites gives d a fresh queue in front of a heldWrites over its store.
// The caller holds the lock its tier queues under, or nothing is running.
func holdWrites(d *disk) *heldWrites {
	h := &heldWrites{Mutator: d.st, entered: make(chan struct{}), release: make(chan struct{})}
	d.q = durable.NewQueue(h)
	return h
}

func durableConfig(t *testing.T) ClusterConfig {
	return ClusterConfig{StoreDir: t.TempDir(), Fsync: "never"}
}

// TestShieldServesWhileDiskHeld parks the owner shield's store inside the
// write of a missed document's copy: a fetch of a document the shield
// already holds is still answered from that copy, and the parked copy
// reaches the log once the store lets go.
func TestShieldServesWhileDiskHeld(t *testing.T) {
	lc, order := shieldCluster(t, durableConfig(t), nil)
	client := &http.Client{Timeout: 5 * time.Second}
	owner, base := lc.Shields[order[0]], lc.Cfg.ShieldAddrs[order[0]]
	hit, miss := "http://live/doc/43", "http://live/doc/44"
	sfetch := func(url string) (ShieldFetchResponse, error) {
		var sfr ShieldFetchResponse
		err := getJSON(client, base+"/sfetch?cloud="+liveCloud+"&url="+queryEscape(url), &sfr)
		return sfr, err
	}
	if _, err := sfetch(hit); err != nil {
		t.Fatal(err)
	}

	owner.mu.Lock()
	h := holdWrites(&owner.disk)
	owner.mu.Unlock()
	missed := make(chan error, 1)
	go func() {
		_, err := sfetch(miss)
		missed <- err
	}()
	<-h.entered
	if sfr, err := sfetch(hit); err != nil || !sfr.ShieldHit {
		t.Fatalf("held copy not served while the store is busy: %+v, %v", sfr, err)
	}
	close(h.release)
	if err := <-missed; err != nil {
		t.Fatal(err)
	}
	if e, ok := owner.disk.st.Get(miss); !ok || e.Doc.Version != 1 {
		t.Fatalf("the missed copy is not in the log: %+v, %v", e, ok)
	}
}

// TestShieldHeldWhileTombstoneQueued parks the owner shield's store inside
// a global purge's tombstone: the shield's memory holds no copy, its disk
// still does. A publish then may not be declined — the origin would skip
// the shield from then on — so it is answered held. Restarted from the disk
// as it was at that moment, the shield has its copy back, and the next
// publish reaches it.
func TestShieldHeldWhileTombstoneQueued(t *testing.T) {
	cfg := durableConfig(t)
	lc, order := shieldCluster(t, cfg, nil)
	client := &http.Client{Timeout: 5 * time.Second}
	name := order[0]
	owner, base := lc.Shields[name], lc.Cfg.ShieldAddrs[name]
	url := "http://live/doc/45"
	getDoc(t, client, lc.Cfg.Addrs["live-00"], url)

	owner.mu.Lock()
	h := holdWrites(&owner.disk)
	owner.mu.Unlock()
	purged := make(chan error, 1)
	go func() {
		purged <- postJSON(client, base+"/spurge", PurgeRequest{URL: url, Scope: PurgeScopeGlobal, Gen: 1}, &PurgeResponse{})
	}()
	<-h.entered
	if pr := publish(t, client, lc, url); pr.Version != 2 || pr.ShieldsNotified != 2 {
		t.Fatalf("first publish: %+v", pr)
	}
	dir := filepath.Join(cfg.StoreDir, name)
	image := t.TempDir()
	copyFiles(t, dir, image) // what a crash now would leave on disk
	close(h.release)
	if err := <-purged; err != nil {
		t.Fatal(err)
	}

	lc.StopNode(name)
	if err := owner.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	copyFiles(t, image, dir)
	restarted, err := lc.RestartShield(name, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v := restarted.HeldVersions()[url]; v != 1 {
		t.Fatalf("restarted shield holds version %d, want the crash image's 1", v)
	}
	pr := publish(t, client, lc, url)
	if v := restarted.HeldVersions()[url]; v != pr.Version {
		t.Fatalf("publish %+v skipped the restarted shield, which holds version %d", pr, v)
	}
}

// TestCloseWritesQueuedMutations closes a cache node while its store is
// parked inside one write and a second mutation is queued behind it: both
// are in the log when the store is reopened.
func TestCloseWritesQueuedMutations(t *testing.T) {
	cfg := durableConfig(t)
	lc := startCluster(t, 2, 2, cfg)
	n := lc.Caches["live-00"]
	h := holdWrites(&n.disk)
	n.store.SetDurable(n.disk.q)
	urls := []string{"http://live/doc/46", "http://live/doc/47"}
	put := func(url string) {
		if _, err := n.store.Put(document.Copy{Doc: document.Document{URL: url, Size: 10, Version: 1}}, 0); err != nil {
			t.Error(err)
		}
	}
	first := make(chan struct{})
	go func() {
		put(urls[0])
		close(first)
	}()
	<-h.entered
	put(urls[1])
	closed := make(chan error, 1)
	go func() { closed <- n.Close() }()
	time.Sleep(20 * time.Millisecond) // Close reaches the store while the write is parked
	close(h.release)
	<-first
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	st, err := durable.Open(filepath.Join(cfg.StoreDir, "live-00"), durable.Options{Fsync: durable.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = st.Close() }()
	for _, url := range urls {
		if _, ok := st.Get(url); !ok {
			t.Errorf("%s was queued before Close and is not in the log", url)
		}
	}
}

// copyFiles copies the regular files of dir src into dst.
func copyFiles(t *testing.T, src, dst string) {
	t.Helper()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		raw, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
