package durable

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cachecloud/internal/document"
	"cachecloud/internal/obs"
)

func mkCopy(url string, version uint64, size int64) document.Copy {
	return document.Copy{
		Doc:       document.Document{URL: url, Size: size, Version: document.Version(version)},
		FetchedAt: int64(version * 10),
	}
}

// indexState is the URL → version view of an index used for
// prefix-consistency comparisons.
type indexState map[string]uint64

func snapshotState(s *Store) indexState {
	st := make(indexState)
	for _, e := range s.Entries() {
		st[e.Doc.URL] = uint64(e.Doc.Version)
	}
	return st
}

func statesEqual(a, b indexState) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// op is one workload mutation (tombstone when version == 0).
type op struct {
	url     string
	version uint64
	size    int64
}

// applyOps replays a prefix of a workload into the expected-state form.
func applyOps(ops []op, k int) indexState {
	st := make(indexState)
	for _, o := range ops[:k] {
		if o.version == 0 {
			delete(st, o.url)
		} else {
			st[o.url] = o.version
		}
	}
	return st
}

// runOps executes a workload against a live store.
func runOps(t *testing.T, s *Store, ops []op) {
	t.Helper()
	for _, o := range ops {
		var err error
		if o.version == 0 {
			err = s.Delete(o.url)
		} else {
			err = s.Put(mkCopy(o.url, o.version, o.size))
		}
		if err != nil {
			t.Fatalf("op %+v: %v", o, err)
		}
	}
}

func TestPutDeleteReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	ops := []op{
		{"/a", 1, 100}, {"/b", 1, 200}, {"/a", 3, 120}, {"/c", 2, 50}, {"/b", 0, 0},
	}
	runOps(t, s, ops)
	want := applyOps(ops, len(ops))
	if got := snapshotState(s); !statesEqual(got, want) {
		t.Fatalf("live state %v, want %v", got, want)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s2.Close() }()
	if got := snapshotState(s2); !statesEqual(got, want) {
		t.Fatalf("recovered state %v, want %v", got, want)
	}
	if s2.Stats().Recovered != len(want) {
		t.Fatalf("Recovered = %d, want %d", s2.Stats().Recovered, len(want))
	}
	if e, ok := s2.Get("/a"); !ok || e.Doc.Version != 3 || e.Doc.Size != 120 || e.FetchedAt != 30 {
		t.Fatalf("Get(/a) = %+v, %v", e, ok)
	}
	if _, ok := s2.Get("/b"); ok {
		t.Fatal("tombstoned /b resurrected")
	}
}

func TestCloseRejectsMutations(t *testing.T) {
	s, err := Open(t.TempDir(), Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(mkCopy("/x", 1, 10)); err != ErrClosed {
		t.Fatalf("Put after Close = %v, want ErrClosed", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("double Close = %v", err)
	}
}

// workloadSegment builds a single-segment store from ops and returns the
// segment path plus the per-record byte boundaries (offset after the
// magic header, then after each complete record), so tests can map a
// truncation offset to the exact prefix of ops it preserves.
func workloadSegment(t *testing.T, ops []op) (dir string, segPath string, boundaries []int64) {
	t.Helper()
	dir = t.TempDir()
	s, err := Open(dir, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	boundaries = append(boundaries, int64(len(segMagic)))
	for _, o := range ops {
		if o.version == 0 {
			err = s.Delete(o.url)
		} else {
			err = s.Put(mkCopy(o.url, o.version, o.size))
		}
		if err != nil {
			t.Fatal(err)
		}
		s.mu.Lock()
		boundaries = append(boundaries, s.activeBytes)
		segPath = s.segPath(s.activeID)
		s.mu.Unlock()
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, segPath, boundaries
}

// TestTornTailEveryOffset truncates the segment at every byte offset and
// asserts recovery always lands on the exact op-prefix the remaining
// bytes encode — no panic, no phantom entries, and a store_truncated
// tracer event whenever bytes were cut.
func TestTornTailEveryOffset(t *testing.T) {
	ops := []op{
		{"/a", 1, 100}, {"/b", 2, 200}, {"/c", 3, 300},
		{"/a", 4, 110}, {"/b", 0, 0}, {"/d", 5, 50}, {"/c", 0, 0},
	}
	dir, segPath, boundaries := workloadSegment(t, ops)
	full, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	manifest, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	segName := filepath.Base(segPath)

	// prefixOps(cut) = number of ops whose records fit entirely below cut.
	prefixOps := func(cut int64) int {
		k := 0
		for k < len(ops) && boundaries[k+1] <= cut {
			k++
		}
		return k
	}

	for cut := int64(0); cut <= int64(len(full)); cut++ {
		tdir := t.TempDir()
		if err := os.WriteFile(filepath.Join(tdir, manifestName), manifest, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(tdir, segName), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		tr := obs.NewTracer(16)
		s, err := Open(tdir, Options{Fsync: FsyncNever, Tracer: tr})
		if err != nil {
			t.Fatalf("cut=%d: Open: %v", cut, err)
		}
		want := applyOps(ops, prefixOps(cut))
		if got := snapshotState(s); !statesEqual(got, want) {
			t.Fatalf("cut=%d: recovered %v, want prefix state %v", cut, got, want)
		}
		st := s.Stats()
		torn := cut != int64(len(full)) && cut != boundaries[prefixOps(cut)]
		if torn && st.Truncations == 0 {
			t.Fatalf("cut=%d: torn tail not counted as truncation", cut)
		}
		if st.Truncations > 0 && tr.Count(obs.EvStoreTruncated) == 0 {
			t.Fatalf("cut=%d: truncation without store_truncated event", cut)
		}
		// The store must stay writable after a truncated recovery.
		if err := s.Put(mkCopy("/post", 9, 10)); err != nil {
			t.Fatalf("cut=%d: post-recovery Put: %v", cut, err)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("cut=%d: Close: %v", cut, err)
		}
	}
}

// TestTornHeaderSegmentDropped reproduces the crash window where a
// segment file is created but its header never reaches disk (legal under
// FsyncOnRotate): the headerless segment must be dropped from the
// manifest at the first recovery, not kept as a zero-length file — a kept
// one re-reads as corruption on every later Open and silently discards
// all segments written after the first crash. The double reopen is the
// part TestTornTailEveryOffset cannot see.
func TestTornHeaderSegmentDropped(t *testing.T) {
	corruptions := map[string]func(t *testing.T, path string){
		// Crash before any header byte persisted.
		"zero-length": func(t *testing.T, path string) {
			if err := os.Truncate(path, 0); err != nil {
				t.Fatal(err)
			}
		},
		// Header bytes present but garbage.
		"garbage-header": func(t *testing.T, path string) {
			if err := os.WriteFile(path, []byte("XXXXXXXX"), 0o644); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			// MaxSegmentBytes 1: every Put rotates, so /a is sealed into
			// its own segment and the active segment holds only a header.
			s, err := Open(dir, Options{Fsync: FsyncNever, MaxSegmentBytes: 1})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Put(mkCopy("/a", 1, 10)); err != nil {
				t.Fatal(err)
			}
			s.mu.Lock()
			activePath := s.segPath(s.activeID)
			s.mu.Unlock()
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			corrupt(t, activePath)

			// First recovery: /a survives, the headerless segment is gone.
			r1, err := Open(dir, Options{Fsync: FsyncNever, MaxSegmentBytes: 1})
			if err != nil {
				t.Fatal(err)
			}
			if got := snapshotState(r1); !statesEqual(got, indexState{"/a": 1}) {
				t.Fatalf("first recovery %v, want {/a: 1}", got)
			}
			if st := r1.Stats(); st.DroppedSegments != 1 {
				t.Fatalf("headerless segment not dropped: %+v", st)
			}
			if _, err := os.Stat(activePath); !os.IsNotExist(err) {
				t.Fatalf("headerless segment file still on disk: %v", err)
			}
			// Data written after the first recovery must survive further
			// reopens — this is exactly what a kept zero-length segment
			// would destroy.
			if err := r1.Put(mkCopy("/b", 2, 20)); err != nil {
				t.Fatal(err)
			}
			if err := r1.Close(); err != nil {
				t.Fatal(err)
			}

			r2, err := Open(dir, Options{Fsync: FsyncNever, MaxSegmentBytes: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = r2.Close() }()
			want := indexState{"/a": 1, "/b": 2}
			if got := snapshotState(r2); !statesEqual(got, want) {
				t.Fatalf("second recovery %v, want %v — post-crash writes lost", got, want)
			}
			if st := r2.Stats(); st.Truncations != 0 || st.DroppedSegments != 0 {
				t.Fatalf("clean log still recovering as corrupt: %+v", st)
			}
		})
	}
}

// TestURLTooLongRejected checks that a URL the uint16 length field cannot
// hold is rejected at Put time instead of being written as a record that
// replays as corruption (truncating the log) at the next recovery.
func TestURLTooLongRejected(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	long := strings.Repeat("u", maxURLBytes+1)
	if err := s.Put(mkCopy(long, 1, 10)); !errors.Is(err, ErrURLTooLong) {
		t.Fatalf("Put(%d-byte url) = %v, want ErrURLTooLong", len(long), err)
	}
	// Deleting the rejected URL is the usual absent-URL no-op.
	if err := s.Delete(long); err != nil {
		t.Fatalf("Delete after rejected Put: %v", err)
	}
	// Exactly at the bound must round-trip through recovery.
	edge := strings.Repeat("e", maxURLBytes)
	runOps(t, s, []op{{edge, 2, 10}, {"/ok", 3, 10}})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = r.Close() }()
	if got := snapshotState(r); !statesEqual(got, indexState{edge: 2, "/ok": 3}) {
		t.Fatalf("recovered %d entries, want {edge: 2, /ok: 3}", len(got))
	}
	if st := r.Stats(); st.Truncations != 0 {
		t.Fatalf("bound-length URL read as corruption: %+v", st)
	}
	// Reset must not smuggle an oversized URL past the append-time check.
	if err := r.Reset([]Entry{
		{Doc: document.Document{URL: long, Size: 1, Version: 9}},
		{Doc: document.Document{URL: "/kept", Size: 1, Version: 4}},
	}); err != nil {
		t.Fatal(err)
	}
	if got := snapshotState(r); !statesEqual(got, indexState{"/kept": 4}) {
		t.Fatalf("post-reset state %v, want {/kept: 4}", got)
	}
}

// TestCorruptByteEveryOffset flips one byte at every offset of the
// segment and asserts recovery stops at (or before) the record containing
// the flip — CRC catches every corruption, nothing fabricated survives.
func TestCorruptByteEveryOffset(t *testing.T) {
	ops := []op{
		{"/a", 1, 100}, {"/b", 2, 200}, {"/a", 0, 0}, {"/c", 3, 300}, {"/d", 4, 40},
	}
	dir, segPath, boundaries := workloadSegment(t, ops)
	full, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	manifest, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	segName := filepath.Base(segPath)

	// opsBelow(off) = ops whose records end at or before the flipped byte.
	opsBelow := func(off int64) int {
		k := 0
		for k < len(ops) && boundaries[k+1] <= off {
			k++
		}
		return k
	}

	for off := 0; off < len(full); off++ {
		corrupt := append([]byte(nil), full...)
		corrupt[off] ^= 0xFF
		tdir := t.TempDir()
		if err := os.WriteFile(filepath.Join(tdir, manifestName), manifest, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(tdir, segName), corrupt, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(tdir, Options{Fsync: FsyncNever})
		if err != nil {
			t.Fatalf("off=%d: Open: %v", off, err)
		}
		got := snapshotState(s)
		// Recovery must be the state after some prefix of ops no longer
		// than the last record untouched by the flip.
		maxK := opsBelow(int64(off))
		okPrefix := false
		for k := 0; k <= maxK; k++ {
			if statesEqual(got, applyOps(ops, k)) {
				okPrefix = true
				break
			}
		}
		if !okPrefix {
			t.Fatalf("off=%d: recovered %v is not a prefix state (maxK=%d)", off, got, maxK)
		}
		if s.Stats().Truncations == 0 {
			t.Fatalf("off=%d: corruption recovered without truncation", off)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("off=%d: Close: %v", off, err)
		}
	}
}

// TestCrashSafetyProperty runs seeded random workloads, SIGKILL-drops the
// store at a random byte of its log, reopens, and asserts the recovered
// index is exactly the state after some prefix of the applied ops — never
// a phantom entry, never a resurrected tombstone. Compaction is disabled
// (rotation still happens) so the log is pure-append and the strict
// prefix property is the contract; the compaction interaction is covered
// by TestCrashSafetyCompactionNoPhantoms.
func TestCrashSafetyProperty(t *testing.T) {
	urls := []string{"/u0", "/u1", "/u2", "/u3", "/u4", "/u5", "/u6", "/u7"}
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		// Tiny segments so rotation and multi-segment recovery happen
		// mid-workload; CompactFraction above any possible garbage ratio
		// keeps the log pure-append.
		s, err := Open(dir, Options{Fsync: FsyncNever, MaxSegmentBytes: 256, CompactFraction: 100})
		if err != nil {
			t.Fatal(err)
		}
		nOps := 30 + rng.Intn(120)
		var ops []op
		states := []indexState{applyOps(nil, 0)}
		for i := 0; i < nOps; i++ {
			url := urls[rng.Intn(len(urls))]
			var o op
			if rng.Intn(4) == 0 {
				o = op{url: url}
				if err := s.Delete(url); err != nil {
					t.Fatal(err)
				}
			} else {
				o = op{url: url, version: uint64(i + 1), size: int64(rng.Intn(400) + 1)}
				if err := s.Put(mkCopy(o.url, o.version, o.size)); err != nil {
					t.Fatal(err)
				}
			}
			ops = append(ops, o)
			states = append(states, applyOps(ops, len(ops)))
		}
		// SIGKILL: no Close, no final sync. Copy the directory as the
		// kernel would expose it, with the newest segment cut at a random
		// byte (the in-flight write).
		crashDir := t.TempDir()
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var newest string
		s.mu.Lock()
		newest = filepath.Base(s.segPath(s.activeID))
		s.mu.Unlock()
		for _, e := range ents {
			raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if e.Name() == newest && len(raw) > 0 {
				raw = raw[:rng.Intn(len(raw)+1)]
			}
			if err := os.WriteFile(filepath.Join(crashDir, e.Name()), raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		_ = s.Close()

		r, err := Open(crashDir, Options{Fsync: FsyncNever})
		if err != nil {
			t.Fatalf("seed %d: reopen: %v", seed, err)
		}
		got := snapshotState(r)
		found := -1
		for k := len(states) - 1; k >= 0; k-- {
			if statesEqual(got, states[k]) {
				found = k
				break
			}
		}
		if found < 0 {
			t.Fatalf("seed %d: recovered %v matches no op prefix", seed, got)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCrashSafetyCompactionNoPhantoms is the compaction-enabled variant.
// Under FsyncNever a crash can cut the tail of a compacted (URL-ordered)
// segment, so strict op-prefix recovery is not the contract there — but
// phantom entries still are impossible: every recovered (url, version)
// pair must have existed in some prior state, and recovery must never
// fail or panic.
func TestCrashSafetyCompactionNoPhantoms(t *testing.T) {
	urls := []string{"/u0", "/u1", "/u2", "/u3", "/u4", "/u5"}
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		dir := t.TempDir()
		s, err := Open(dir, Options{Fsync: FsyncNever, MaxSegmentBytes: 256})
		if err != nil {
			t.Fatal(err)
		}
		everSeen := make(map[string]map[uint64]bool)
		nOps := 40 + rng.Intn(120)
		for i := 0; i < nOps; i++ {
			url := urls[rng.Intn(len(urls))]
			if rng.Intn(4) == 0 {
				if err := s.Delete(url); err != nil {
					t.Fatal(err)
				}
				continue
			}
			v := uint64(i + 1)
			if err := s.Put(mkCopy(url, v, int64(rng.Intn(300)+1))); err != nil {
				t.Fatal(err)
			}
			if everSeen[url] == nil {
				everSeen[url] = make(map[uint64]bool)
			}
			everSeen[url][v] = true
		}
		crashDir := t.TempDir()
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		s.mu.Lock()
		newest := filepath.Base(s.segPath(s.activeID))
		s.mu.Unlock()
		for _, e := range ents {
			raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if e.Name() == newest && len(raw) > 0 {
				raw = raw[:rng.Intn(len(raw)+1)]
			}
			if err := os.WriteFile(filepath.Join(crashDir, e.Name()), raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		_ = s.Close()
		r, err := Open(crashDir, Options{Fsync: FsyncNever})
		if err != nil {
			t.Fatalf("seed %d: reopen: %v", seed, err)
		}
		for url, v := range snapshotState(r) {
			if !everSeen[url][v] {
				t.Fatalf("seed %d: phantom entry %s@%d never written", seed, url, v)
			}
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCompactionBoundsLog drives overwrites until rotation-time
// compaction kicks in, then checks the log shrank and recovery agrees.
func TestCompactionBoundsLog(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Fsync: FsyncNever, MaxSegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		url := fmt.Sprintf("/hot%d", i%4)
		if err := s.Put(mkCopy(url, uint64(i+1), 64)); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Compactions == 0 {
		t.Fatalf("no compaction after 400 overwrites of 4 URLs: %+v", st)
	}
	if st.LiveEntries != 4 {
		t.Fatalf("LiveEntries = %d, want 4", st.LiveEntries)
	}
	if st.TotalBytes > 4096 {
		t.Fatalf("log grew unbounded: %d bytes live across %d segments", st.TotalBytes, st.Segments)
	}
	want := snapshotState(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = r.Close() }()
	if got := snapshotState(r); !statesEqual(got, want) {
		t.Fatalf("post-compaction recovery %v, want %v", got, want)
	}
}

// TestExplicitCompactAndTracer checks Compact() rewrites the log and
// emits store_compact.
func TestExplicitCompactAndTracer(t *testing.T) {
	tr := obs.NewTracer(16)
	s, err := Open(t.TempDir(), Options{Fsync: FsyncNever, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close() }()
	runOps(t, s, []op{{"/a", 1, 10}, {"/a", 2, 10}, {"/b", 3, 10}, {"/b", 0, 0}})
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Segments != 1 || st.DeadBytes != 0 || st.LiveEntries != 1 {
		t.Fatalf("post-compact stats %+v", st)
	}
	if tr.Count(obs.EvStoreCompact) != 1 {
		t.Fatalf("store_compact events = %d, want 1", tr.Count(obs.EvStoreCompact))
	}
}

// TestReset rewrites the log to an explicit entry set (the warm-boot
// compact-to-survivors step).
func TestReset(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	runOps(t, s, []op{{"/a", 1, 10}, {"/b", 2, 20}, {"/c", 3, 30}})
	keep := []Entry{
		{Doc: document.Document{URL: "/b", Size: 20, Version: 2}, FetchedAt: 5},
	}
	if err := s.Reset(keep); err != nil {
		t.Fatal(err)
	}
	// Appends continue after a reset.
	if err := s.Put(mkCopy("/d", 7, 70)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = r.Close() }()
	got := snapshotState(r)
	want := indexState{"/b": 2, "/d": 7}
	if !statesEqual(got, want) {
		t.Fatalf("post-reset recovery %v, want %v", got, want)
	}
}

// TestManifestMissing recovers from a directory scan when MANIFEST was
// never written or was lost.
func TestManifestMissing(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	runOps(t, s, []op{{"/a", 1, 10}, {"/b", 2, 20}})
	want := snapshotState(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, manifestName)); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = r.Close() }()
	if got := snapshotState(r); !statesEqual(got, want) {
		t.Fatalf("scan recovery %v, want %v", got, want)
	}
}

// TestCorruptManifest falls back to the directory scan on a torn
// manifest write.
func TestCorruptManifest(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	runOps(t, s, []op{{"/a", 1, 10}})
	want := snapshotState(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(`{"segments":[`), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = r.Close() }()
	if got := snapshotState(r); !statesEqual(got, want) {
		t.Fatalf("recovery after torn manifest %v, want %v", got, want)
	}
}

func TestParseFsync(t *testing.T) {
	cases := map[string]FsyncPolicy{
		"always": FsyncAlways, "never": FsyncNever, "rotate": FsyncOnRotate, "": FsyncOnRotate,
	}
	for in, want := range cases {
		if got, err := ParseFsync(in); err != nil || got != want {
			t.Fatalf("ParseFsync(%q) = %v, %v, want %v", in, got, err, want)
		}
		if got, err := ParseFsync(want.String()); err != nil || got != want {
			t.Fatalf("round trip failed for %v", want)
		}
	}
	for _, in := range []string{"bogus", "alwyas", "Always", " never"} {
		if _, err := ParseFsync(in); err == nil {
			t.Fatalf("ParseFsync(%q) accepted an unknown policy", in)
		}
	}
}

func TestFsyncAlwaysSurvivesWorkload(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Fsync: FsyncAlways, MaxSegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := s.Put(mkCopy(fmt.Sprintf("/f%d", i%8), uint64(i+1), 32)); err != nil {
			t.Fatal(err)
		}
	}
	want := snapshotState(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir, Options{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = r.Close() }()
	if got := snapshotState(r); !statesEqual(got, want) {
		t.Fatalf("fsync=always recovery %v, want %v", got, want)
	}
}
