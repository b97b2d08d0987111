//go:build unix

package durable

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

// TestFailedRotationRecovers: a rotation that cannot open the next segment
// (the store's directory is gone) leaves no active segment. Once the
// directory is back, the next put opens a fresh one, and every put
// acknowledged from then on survives a reopen.
func TestFailedRotationRecovers(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	opts := Options{Fsync: FsyncNever, MaxSegmentBytes: 200}
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	failed := false
	for i := 0; i < 20 && !failed; i++ {
		failed = s.Put(mkCopy(fmt.Sprintf("/lost/%d", i), 1, 10)) != nil
	}
	if !failed {
		t.Fatal("no put failed with the store's directory gone")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	var acked []string
	for i := 0; i < 20; i++ {
		url := fmt.Sprintf("/back/%d", i)
		if err := s.Put(mkCopy(url, 2, 10)); err != nil {
			t.Fatalf("put %d after the directory is back: %v", i, err)
		}
		acked = append(acked, url)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = r.Close() }()
	got := snapshotState(r)
	for _, url := range acked {
		if got[url] != 2 {
			t.Errorf("acknowledged put of %s lost across the reopen", url)
		}
	}
}

// shortWriteDir names the store directory the child process of
// TestShortWriteLosesNoAcknowledgedPut writes into.
const shortWriteDir = "DURABLE_SHORT_WRITE_DIR"

// TestShortWriteLosesNoAcknowledgedPut: a put whose frame reaches the file
// only in part is refused, and every put acknowledged before or after it
// survives a reopen. A child process lowers its file-size limit so that
// one append stops mid-frame (the kernel returns the short count and
// EFBIG), then raises it again; no other test's files meet the limit.
func TestShortWriteLosesNoAcknowledgedPut(t *testing.T) {
	if dir := os.Getenv(shortWriteDir); dir != "" {
		shortWriteChild(dir)
		return
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestShortWriteLosesNoAcknowledgedPut$")
	cmd.Env = append(os.Environ(), shortWriteDir+"="+dir)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("child: %v\n%s", err, out)
	}
	var acked []string
	for _, line := range strings.Split(string(out), "\n") {
		if url, ok := strings.CutPrefix(line, "acked "); ok {
			acked = append(acked, url)
		}
	}
	if len(acked) != 40 {
		t.Fatalf("child acknowledged %d puts, want 40:\n%s", len(acked), out)
	}
	s, err := Open(dir, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close() }()
	got := snapshotState(s)
	for _, url := range acked {
		if _, ok := got[url]; !ok {
			t.Errorf("acknowledged put of %s lost across the reopen", url)
		}
	}
	if _, ok := got["/torn"]; ok || len(got) != len(acked) {
		t.Errorf("recovered %d documents (torn put present: %v), want the %d acknowledged", len(got), ok, len(acked))
	}
}

// shortWriteChild is the child's side: 20 puts, one cut short by the
// file-size limit, 20 more; it prints each acknowledged URL.
func shortWriteChild(dir string) {
	fail := func(err error) {
		fmt.Println("child:", err)
		os.Exit(1)
	}
	s, err := Open(dir, Options{Fsync: FsyncNever})
	if err != nil {
		fail(err)
	}
	put := func(url string) {
		if err := s.Put(mkCopy(url, 1, 10)); err != nil {
			fail(err)
		}
		fmt.Println("acked", url)
	}
	for i := 0; i < 20; i++ {
		put(fmt.Sprintf("/before/%d", i))
	}
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &lim); err != nil {
		fail(err)
	}
	cut := lim
	cut.Cur = uint64(s.activeBytes) + frameBytes + 4 // mid-frame
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &cut); err != nil {
		fail(err)
	}
	err = s.Put(mkCopy("/torn", 1, 10))
	if rerr := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &lim); rerr != nil {
		fail(rerr)
	}
	if !errors.Is(err, syscall.EFBIG) {
		fail(fmt.Errorf("the put past the file-size limit returned %v, want EFBIG", err))
	}
	for i := 0; i < 20; i++ {
		put(fmt.Sprintf("/after/%d", i))
	}
	if err := s.Close(); err != nil {
		fail(err)
	}
}
