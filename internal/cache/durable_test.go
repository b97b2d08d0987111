package cache

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"cachecloud/internal/document"
	"cachecloud/internal/durable"
)

func dcopy(url string, version uint64, size int64) document.Copy {
	return document.Copy{
		Doc:       document.Document{URL: url, Size: size, Version: document.Version(version)},
		FetchedAt: int64(version),
	}
}

func logState(t *testing.T, s *durable.Store) map[string]uint64 {
	t.Helper()
	out := make(map[string]uint64)
	for _, e := range s.Entries() {
		out[e.Doc.URL] = uint64(e.Doc.Version)
	}
	return out
}

// TestEvictionTombstonesDurable drives each replacement policy past
// capacity with the durable tier attached and asserts the log always
// mirrors residency: evicted entries are tombstoned at eviction time and
// do not resurrect when the log is reopened.
func TestEvictionTombstonesDurable(t *testing.T) {
	for _, kind := range []ReplacementKind{LRU, LFU, GreedyDualSize} {
		t.Run(kind.String(), func(t *testing.T) {
			dir := t.TempDir()
			st, err := durable.Open(dir, durable.Options{Fsync: durable.FsyncNever})
			if err != nil {
				t.Fatal(err)
			}
			c := NewWithReplacement("c0", 300, kind)
			c.SetDurable(durable.NewQueue(st))
			var evictedEver []string
			for i := 0; i < 12; i++ {
				url := fmt.Sprintf("/doc%d", i)
				evicted, err := c.Put(dcopy(url, uint64(i+1), 100), int64(i))
				if err != nil {
					t.Fatal(err)
				}
				for _, d := range evicted {
					evictedEver = append(evictedEver, d.URL)
				}
			}
			if len(evictedEver) == 0 {
				t.Fatal("capacity 300 never evicted across 12 puts of 100B")
			}
			// The log's live index must be exactly the resident set.
			resident := make(map[string]bool)
			for _, url := range c.Documents() {
				resident[url] = true
			}
			state := logState(t, st)
			if len(state) != len(resident) {
				t.Fatalf("log holds %d entries, cache holds %d", len(state), len(resident))
			}
			for url := range state {
				if !resident[url] {
					t.Fatalf("log holds %q which the cache evicted", url)
				}
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			// Reopen: nothing evicted may resurrect.
			re, err := durable.Open(dir, durable.Options{Fsync: durable.FsyncNever})
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = re.Close() }()
			recovered := logState(t, re)
			for _, url := range evictedEver {
				if resident[url] {
					continue // re-admitted later; residency wins
				}
				if _, back := recovered[url]; back {
					t.Fatalf("evicted %q resurrected on restart", url)
				}
			}
			for url := range recovered {
				if !resident[url] {
					t.Fatalf("recovered %q was not resident at crash", url)
				}
			}
		})
	}
}

// TestRemoveAndUpdateMirrorDurable checks the other mutation paths:
// explicit Remove tombstones, ApplyUpdate persists the refreshed version.
func TestRemoveAndUpdateMirrorDurable(t *testing.T) {
	dir := t.TempDir()
	st, err := durable.Open(dir, durable.Options{Fsync: durable.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	c := New("c0", 0)
	c.SetDurable(durable.NewQueue(st))
	if _, err := c.Put(dcopy("/a", 1, 10), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Put(dcopy("/b", 1, 10), 0); err != nil {
		t.Fatal(err)
	}
	if !c.ApplyUpdate(document.Document{URL: "/a", Size: 12, Version: 5}, 1) {
		t.Fatal("ApplyUpdate missed a held document")
	}
	if !c.Remove("/b") {
		t.Fatal("Remove missed /b")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := durable.Open(dir, durable.Options{Fsync: durable.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = re.Close() }()
	got := logState(t, re)
	if len(got) != 1 || got["/a"] != 5 {
		t.Fatalf("recovered %v, want {/a: 5}", got)
	}
}

// blockingDurable is a durable.Mutator whose first Put parks on a channel,
// simulating a store mid-compaction, while recording every mutation it
// eventually applies.
type blockingDurable struct {
	mu      sync.Mutex
	ops     []string
	block   chan struct{}
	entered chan struct{}
	once    sync.Once
}

func (b *blockingDurable) Put(cp document.Copy) error {
	b.once.Do(func() { close(b.entered) })
	<-b.block
	b.mu.Lock()
	b.ops = append(b.ops, "put:"+cp.Doc.URL)
	b.mu.Unlock()
	return nil
}

func (b *blockingDurable) Delete(url string) error {
	b.mu.Lock()
	b.ops = append(b.ops, "del:"+url)
	b.mu.Unlock()
	return nil
}

func (b *blockingDurable) snapshot() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]string(nil), b.ops...)
}

// TestDurableMirrorDoesNotBlockServing pins the disk tier inside a slow
// write (as a rotation-triggered log compaction would) and asserts the
// cache keeps serving: reads see the committed entry, further writers
// return immediately (their mutations queue behind the active drain), and
// once the store unblocks every mutation lands in commit order.
func TestDurableMirrorDoesNotBlockServing(t *testing.T) {
	bd := &blockingDurable{block: make(chan struct{}), entered: make(chan struct{})}
	c := New("c0", 0)
	q := durable.NewQueue(bd)
	c.SetDurable(q)

	slowDone := make(chan struct{})
	go func() {
		_, _ = c.Put(dcopy("/slow", 1, 10), 0)
		close(slowDone)
	}()
	<-bd.entered // the drain goroutine is now parked inside the store

	// Every serving-path call below must complete while the store write is
	// still in flight; run each with a watchdog so a regression fails fast
	// instead of hanging the test binary.
	step := func(name string, fn func()) {
		t.Helper()
		done := make(chan struct{})
		go func() {
			fn()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s blocked behind an in-flight durable write", name)
		}
	}
	step("Get", func() {
		if _, ok := c.Get("/slow", 1); !ok {
			t.Error("committed entry invisible while its log write is in flight")
		}
	})
	step("Put", func() {
		if _, err := c.Put(dcopy("/fast", 2, 10), 1); err != nil {
			t.Errorf("concurrent Put: %v", err)
		}
	})
	step("Remove", func() {
		if !c.Remove("/fast") {
			t.Error("concurrent Remove missed /fast")
		}
	})

	close(bd.block)
	<-slowDone
	// The first Put's drain loop picks up the mutations queued while it
	// was parked, so by now all three are applied — in commit order.
	want := []string{"put:/slow", "put:/fast", "del:/fast"}
	got := bd.snapshot()
	if len(got) != len(want) {
		t.Fatalf("durable ops %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("durable ops %v, want %v (order must match commit order)", got, want)
		}
	}
	if q.Errors() != 0 {
		t.Fatalf("Errors = %d, want 0", q.Errors())
	}
}

// TestDurableErrorsDegradeGracefully verifies the cache keeps serving
// when the disk tier rejects writes (closed store), only counting the
// failures.
func TestDurableErrorsDegradeGracefully(t *testing.T) {
	st, err := durable.Open(t.TempDir(), durable.Options{Fsync: durable.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	c := New("c0", 0)
	q := durable.NewQueue(st)
	c.SetDurable(q)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Put(dcopy("/a", 1, 10), 0); err != nil {
		t.Fatalf("Put must not surface durable errors: %v", err)
	}
	if _, ok := c.Get("/a", 1); !ok {
		t.Fatal("cache lost the entry on a durable failure")
	}
	if q.Errors() == 0 {
		t.Fatal("durable failure not counted")
	}
	c.SetDurable(nil)
	if _, err := c.Put(dcopy("/b", 1, 10), 0); err != nil {
		t.Fatal(err)
	}
	if q.Errors() != 1 {
		t.Fatalf("Errors = %d after detach, want 1", q.Errors())
	}
}
