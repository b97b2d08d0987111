package durable

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"
)

// The store keeps no table of record lengths: a record's framed length is
// computed from its URL (frameLen) wherever the live/dead accounting needs
// it. These tests hold the computed figure to what is on disk.

func TestFrameLenMatchesEncoding(t *testing.T) {
	for _, n := range []int{0, 1, 26, 27, 40, 255, 256, 4096, maxURLBytes} {
		url := strings.Repeat("u", n)
		for _, op := range []byte{opPut, opTombstone} {
			frame := encodeFrame(op, url, indexed{version: 7, size: 1 << 40, fetchedAt: -3})
			if int64(len(frame)) != frameLen(url) {
				t.Fatalf("op %d, %d-byte URL: frame is %d bytes, frameLen says %d", op, n, len(frame), frameLen(url))
			}
			gotURL, x, gotOp, ok := decodePayload(frame[frameBytes:])
			if !ok || gotURL != url || gotOp != op || x != (indexed{version: 7, size: 1 << 40, fetchedAt: -3}) {
				t.Fatalf("op %d, %d-byte URL: decoded %v %d ok=%v", op, n, x, gotOp, ok)
			}
		}
	}
}

// recount reads the store's live segments as recovery would and returns the
// byte counts Stats should report. Every record's written length must equal
// the length computed from its URL.
func recount(t *testing.T, s *Store) (live, dead, total int64) {
	t.Helper()
	liveLen := map[string]int64{}
	for _, id := range s.segs {
		raw, err := os.ReadFile(s.segPath(id))
		if err != nil {
			t.Fatal(err)
		}
		total += int64(len(raw))
		if string(raw[:len(segMagic)]) != segMagic {
			t.Fatalf("segment %d: bad header", id)
		}
		for rest := raw[len(segMagic):]; len(rest) > 0; {
			written := frameBytes + int64(binary.LittleEndian.Uint32(rest[0:4]))
			url, _, op, ok := decodePayload(rest[frameBytes:written])
			if !ok {
				t.Fatalf("segment %d: undecodable record", id)
			}
			if written != frameLen(url) {
				t.Fatalf("segment %d: record for %q is %d bytes on disk, frameLen says %d", id, url, written, frameLen(url))
			}
			dead += liveLen[url] // the record this one supersedes, if any
			delete(liveLen, url)
			if op == opPut {
				liveLen[url] = written
			} else {
				dead += written
			}
			rest = rest[written:]
		}
	}
	for _, n := range liveLen {
		live += n
	}
	return live, dead, total
}

// TestByteAccountingMatchesSegmentFiles: through a random workload of puts,
// overwrites and tombstones over URLs of many lengths, with rotations,
// compactions, resets and reopenings on the way, LiveBytes, DeadBytes and
// TotalBytes equal a recount from the segment files after every operation.
func TestByteAccountingMatchesSegmentFiles(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		opts := Options{Fsync: FsyncNever, MaxSegmentBytes: 700}
		s, err := Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		urls := make([]string, 40)
		for i := range urls {
			urls[i] = fmt.Sprintf("/d%d/%s", i, strings.Repeat("x", rng.Intn(90)))
		}
		var rotated, compacted bool
		for step := 0; step < 1500; step++ {
			url := urls[rng.Intn(len(urls))]
			var err error
			r, before := rng.Intn(100), s.Stats().Compactions
			switch {
			case r < 60:
				err = s.Put(mkCopy(url, uint64(step+1), int64(rng.Intn(5000))))
			case r < 92:
				err = s.Delete(url)
			case r < 95:
				err = s.Compact()
			case r < 97:
				err = s.Reset(s.Entries()[:s.Len()/2])
			default:
				if err = s.Close(); err == nil {
					s, err = Open(dir, opts)
				}
			}
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			live, dead, total := recount(t, s)
			st := s.Stats()
			if st.LiveBytes != live || st.DeadBytes != dead || st.TotalBytes != total {
				t.Fatalf("seed %d step %d: Stats live %d dead %d total %d, segment files say %d %d %d",
					seed, step, st.LiveBytes, st.DeadBytes, st.TotalBytes, live, dead, total)
			}
			rotated = rotated || st.Segments > 2
			compacted = compacted || (r < 92 && st.Compactions > before)
		}
		if !rotated || !compacted {
			t.Fatalf("seed %d: rotated %v, compacted on rotation %v: the workload does not cover both", seed, rotated, compacted)
		}
		_ = s.Close()
	}
}

// BenchmarkDurablePut is the ladder's durable.put_ns: refreshes of 10k
// documents appended to the log, rotation and compaction included.
func BenchmarkDurablePut(b *testing.B) {
	s, err := Open(b.TempDir(), Options{Fsync: FsyncNever})
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = s.Close() }()
	urls := make([]string, 10000)
	for i := range urls {
		urls[i] = fmt.Sprintf("http://bench/doc/%05d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put(mkCopy(urls[(i*7919)%len(urls)], uint64(i+1), 1000)); err != nil {
			b.Fatal(err)
		}
	}
}
