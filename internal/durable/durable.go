// Package durable implements the disk-backed cache tier: a log-structured
// store of append-only segments holding the documents an edge cache has
// admitted, so a restarted node rejoins the cloud warm instead of paying a
// cold-miss storm through the admission layer.
//
// Layout on disk (one directory per node):
//
//	MANIFEST            JSON: the ordered list of live segment IDs
//	seg-00000001.log    header + CRC-framed records
//	seg-00000002.log    ...
//
// Each segment starts with an 8-byte magic header. Records are framed as
// [payload length][CRC32-C of payload][payload]; the payload encodes a put
// (document URL, version, size, fetch time) or a tombstone (URL only).
// Recovery replays segments in manifest order and stops at the first frame
// whose length or checksum does not verify: the torn tail is truncated in
// place and any later segments are dropped, so the recovered index is
// always a prefix-consistent subset of the pre-crash write sequence —
// never a panic, never garbage served as a document. A segment whose
// header itself does not verify (a crash before the header reached disk)
// is dropped entirely, so it cannot linger in the manifest as a permanent
// corruption point that would poison every later recovery.
//
// Compaction rewrites the live index into a fresh segment and atomically
// swaps the manifest, bounding log growth from overwrites and tombstones.
// The fsync policy is configurable: every append, on rotation/compaction
// only, or never (tests and deterministic simulation).
package durable

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"cachecloud/internal/document"
	"cachecloud/internal/obs"
)

// FsyncPolicy selects when the store flushes appends to stable storage.
type FsyncPolicy int

const (
	// FsyncOnRotate (the default) syncs segments when they are sealed and
	// on every manifest swap. A crash can lose the unsynced tail of the
	// active segment; recovery truncates it cleanly.
	FsyncOnRotate FsyncPolicy = iota
	// FsyncAlways syncs after every append: nothing acknowledged is lost.
	FsyncAlways
	// FsyncNever never syncs (tests and the deterministic harness).
	FsyncNever
)

// String implements fmt.Stringer.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncNever:
		return "never"
	default:
		return "rotate"
	}
}

// ParseFsync maps a flag/config string to a policy; unknown strings (and
// "") select the default FsyncOnRotate.
func ParseFsync(s string) FsyncPolicy {
	switch s {
	case "always":
		return FsyncAlways
	case "never":
		return FsyncNever
	default:
		return FsyncOnRotate
	}
}

// Options tunes Open.
type Options struct {
	// Fsync is the flush policy (default FsyncOnRotate).
	Fsync FsyncPolicy
	// MaxSegmentBytes rotates the active segment past this size
	// (default 4 MiB).
	MaxSegmentBytes int64
	// CompactFraction triggers a compaction on rotation when dead bytes
	// exceed this fraction of total bytes (default 0.5).
	CompactFraction float64
	// Tracer, when non-nil, receives EvStoreTruncated when recovery cuts
	// a torn tail and EvStoreCompact on every compaction.
	Tracer *obs.Tracer
}

func (o *Options) defaults() {
	if o.MaxSegmentBytes <= 0 {
		o.MaxSegmentBytes = 4 << 20
	}
	if o.CompactFraction <= 0 {
		o.CompactFraction = 0.5
	}
}

// Entry is one live document of the store.
type Entry struct {
	Doc       document.Document
	FetchedAt int64
}

// indexed is what the index keeps for a live document under its URL: the
// fields of the newest put record that the URL itself does not give.
type indexed struct {
	version   document.Version
	size      int64
	fetchedAt int64
}

func (x indexed) entry(url string) Entry {
	return Entry{Doc: document.Document{URL: url, Size: x.size, Version: x.version}, FetchedAt: x.fetchedAt}
}

// Stats is a point-in-time summary of the store.
type Stats struct {
	// Segments is the number of live log segments (including the active
	// one).
	Segments int
	// LiveEntries is the size of the in-memory index.
	LiveEntries int
	// LiveBytes approximates the bytes a full compaction would retain.
	LiveBytes int64
	// TotalBytes is the on-disk log size across live segments.
	TotalBytes int64
	// DeadBytes counts bytes made garbage by overwrites and tombstones.
	DeadBytes int64
	// Truncations counts recovery passes that cut a torn or corrupt tail.
	Truncations int64
	// TruncatedBytes is how many bytes those passes discarded.
	TruncatedBytes int64
	// DroppedSegments counts whole segments discarded after a mid-log
	// corruption (prefix recovery).
	DroppedSegments int64
	// Compactions counts log rewrites.
	Compactions int64
	// Recovered is the index size right after Open.
	Recovered int
}

const (
	segMagic     = "CCSEG\x01\x00\x00"
	manifestName = "MANIFEST"
	opPut        = byte(1)
	opTombstone  = byte(2)
	// maxRecordPayload guards recovery against absurd frame lengths.
	maxRecordPayload = 1 << 20
	// maxURLBytes is the longest URL the record encoding can hold: the
	// length field is a uint16, and bounding it also keeps every payload
	// (27 fixed bytes + URL) far below maxRecordPayload, so anything
	// appendable is always replayable.
	maxURLBytes = 1<<16 - 1
	// frameBytes and fixedPayload are a record's length and checksum words
	// and the payload's fields before the URL.
	frameBytes   = 8
	fixedPayload = 1 + 8 + 8 + 8 + 2
)

// frameLen is the framed length of url's record, put or tombstone alike. A
// record's length is a function of its URL, so the byte accounting needs no
// table of lengths beside the index.
func frameLen(url string) int64 { return frameBytes + fixedPayload + int64(len(url)) }

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed is returned by mutating calls after Close.
var ErrClosed = errors.New("durable: store closed")

// ErrURLTooLong is returned by Put for a URL the record encoding cannot
// hold. Without this rejection the uint16 length field would wrap and the
// record — CRC-valid but undecodable — would read as corruption at the
// next recovery, truncating the log there.
var ErrURLTooLong = errors.New("durable: url too long for record encoding")

// manifest is the JSON document naming the live segments in replay order.
type manifest struct {
	Segments []uint64 `json:"segments"`
	Next     uint64   `json:"next"`
}

// Store is the durable tier of one cache node. All methods are safe for
// concurrent use.
type Store struct {
	mu     sync.Mutex
	dir    string
	opts   Options
	closed bool

	index map[string]indexed
	segs  []uint64 // sealed + active segment IDs, replay order
	next  uint64   // next segment ID to allocate

	active      *os.File
	activeID    uint64
	activeBytes int64

	totalBytes int64
	deadBytes  int64
	// liveBytes tracks the encoded size of the current index: frameLen of
	// every indexed URL.
	liveBytes int64

	truncations     int64
	truncatedBytes  int64
	droppedSegments int64
	compactions     int64
	recovered       int
}

// Open creates or recovers a store in dir, creating the directory as
// needed. Recovery never fails on torn or corrupt log data — it truncates
// to the longest verifiable prefix; only real I/O errors are returned.
func Open(dir string, opts Options) (*Store, error) {
	opts.defaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: create dir: %w", err)
	}
	s := &Store{dir: dir, opts: opts, index: make(map[string]indexed)}
	if err := s.recover(); err != nil {
		return nil, err
	}
	s.recovered = len(s.index)
	if err := s.openActive(); err != nil {
		return nil, err
	}
	return s, nil
}

// recover loads the manifest (or scans the directory when absent), replays
// every segment into the index, truncates the first torn frame, and drops
// any segments past a corruption point.
func (s *Store) recover() error {
	m, err := s.readManifest()
	if err != nil {
		return err
	}
	s.segs = m.Segments
	s.next = m.Next
	for i := 0; i < len(s.segs); i++ {
		id := s.segs[i]
		clean, size, err := s.replaySegment(id)
		if err != nil {
			return err
		}
		s.totalBytes += size
		if !clean {
			// Prefix recovery: everything after the first bad frame is
			// unverifiable, including later segments.
			drop := i + 1
			if size == 0 {
				// The segment has no verifiable header (a crash between
				// segment create and header persist, or a garbage file).
				// Keeping it would leave a permanently zero-length entry
				// in the manifest that re-triggers prefix recovery on
				// every future Open — silently dropping segments written
				// after this one — so the segment itself is dropped.
				drop = i
			}
			for _, d := range s.segs[drop:] {
				_ = os.Remove(s.segPath(d))
				s.droppedSegments++
			}
			s.segs = s.segs[:drop]
			break
		}
	}
	// Orphan segments (left by a crash between manifest swap and delete)
	// are removed so they can never resurrect entries.
	s.removeOrphans()
	if err := s.writeManifest(); err != nil {
		return err
	}
	return nil
}

// readManifest loads MANIFEST, falling back to a directory scan when it is
// missing (first boot, or a crash before the first manifest write).
func (s *Store) readManifest() (manifest, error) {
	var m manifest
	raw, err := os.ReadFile(filepath.Join(s.dir, manifestName))
	switch {
	case err == nil:
		if jerr := json.Unmarshal(raw, &m); jerr == nil && validManifest(m) {
			return m, nil
		}
		// A torn manifest write: fall through to the scan.
	case !os.IsNotExist(err):
		return m, fmt.Errorf("durable: read manifest: %w", err)
	}
	ids, err := s.scanSegments()
	if err != nil {
		return m, err
	}
	m.Segments = ids
	for _, id := range ids {
		if id >= m.Next {
			m.Next = id + 1
		}
	}
	if m.Next == 0 {
		m.Next = 1
	}
	return m, nil
}

// validManifest rejects decoded manifests that could not have been written
// by this package (defensive: a corrupt-but-parsable file).
func validManifest(m manifest) bool {
	if m.Next == 0 {
		return false
	}
	seen := make(map[uint64]bool, len(m.Segments))
	for _, id := range m.Segments {
		if id == 0 || id >= m.Next || seen[id] {
			return false
		}
		seen[id] = true
	}
	return true
}

// scanSegments lists seg-*.log files in ID order.
func (s *Store) scanSegments() ([]uint64, error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("durable: scan dir: %w", err)
	}
	var ids []uint64
	for _, e := range ents {
		var id uint64
		if _, err := fmt.Sscanf(e.Name(), "seg-%08d.log", &id); err == nil && id > 0 {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, nil
}

// removeOrphans deletes segment files not named by the manifest.
func (s *Store) removeOrphans() {
	live := make(map[uint64]bool, len(s.segs))
	for _, id := range s.segs {
		live[id] = true
	}
	ids, err := s.scanSegments()
	if err != nil {
		return
	}
	for _, id := range ids {
		if !live[id] {
			_ = os.Remove(s.segPath(id))
		}
	}
}

func (s *Store) segPath(id uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("seg-%08d.log", id))
}

// replaySegment applies one segment's records to the index. clean=false
// means the segment ended in a torn or corrupt frame and was truncated in
// place at the last verifiable record; size is the verified byte length.
func (s *Store) replaySegment(id uint64) (clean bool, size int64, err error) {
	path := s.segPath(id)
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if os.IsNotExist(err) {
		// Manifest names a segment that never hit disk (crash between
		// manifest write and first append after compaction): treat as a
		// zero-length clean segment so later segments still replay.
		return true, 0, nil
	}
	if err != nil {
		return false, 0, fmt.Errorf("durable: open segment: %w", err)
	}
	defer func() { _ = f.Close() }()

	// Records are read through a buffer (two reads a record otherwise, each
	// a system call); truncation goes by the offsets counted in good, not by
	// the file's position.
	r := bufio.NewReader(f)
	header := make([]byte, len(segMagic))
	n, rerr := io.ReadFull(r, header)
	if rerr != nil || string(header) != segMagic {
		// No verifiable header: the whole file is garbage.
		s.truncateAt(f, path, 0, int64(n))
		return false, 0, nil
	}
	good := int64(len(segMagic))
	var frame [frameBytes]byte
	for {
		if _, rerr := io.ReadFull(r, frame[:]); rerr != nil {
			if rerr == io.EOF {
				return true, good, nil // exact end of segment
			}
			s.truncateAt(f, path, good, partialLen(f, good))
			return false, good, nil
		}
		plen := binary.LittleEndian.Uint32(frame[0:4])
		sum := binary.LittleEndian.Uint32(frame[4:8])
		if plen == 0 || plen > maxRecordPayload {
			s.truncateAt(f, path, good, partialLen(f, good))
			return false, good, nil
		}
		payload := make([]byte, plen)
		if _, rerr := io.ReadFull(r, payload); rerr != nil {
			s.truncateAt(f, path, good, partialLen(f, good))
			return false, good, nil
		}
		if crc32.Checksum(payload, crcTable) != sum {
			s.truncateAt(f, path, good, partialLen(f, good))
			return false, good, nil
		}
		url, x, op, ok := decodePayload(payload)
		if !ok {
			s.truncateAt(f, path, good, partialLen(f, good))
			return false, good, nil
		}
		s.applyRecord(op, url, x)
		good += frameLen(url)
	}
}

// partialLen reports how many bytes sit past offset good in f (the size of
// the region a truncation discards).
func partialLen(f *os.File, good int64) int64 {
	fi, err := f.Stat()
	if err != nil {
		return 0
	}
	if fi.Size() <= good {
		return 0
	}
	return fi.Size() - good
}

// truncateAt cuts the file back to the last verifiable offset and records
// the event.
func (s *Store) truncateAt(f *os.File, path string, good, lost int64) {
	_ = f.Truncate(good)
	s.truncations++
	s.truncatedBytes += lost
	if s.opts.Tracer != nil {
		s.opts.Tracer.Emit(obs.Event{Kind: obs.EvStoreTruncated, URL: path, Count: lost})
	}
}

// applyRecord folds one replayed or appended record into the index and the
// live/dead byte accounting.
func (s *Store) applyRecord(op byte, url string, x indexed) {
	recLen := frameLen(url)
	if _, live := s.index[url]; live {
		// The previous record for this URL, as long as this one, is now
		// garbage.
		s.deadBytes += recLen
		s.liveBytes -= recLen
	}
	switch op {
	case opPut:
		s.index[url] = x
		s.liveBytes += recLen
	case opTombstone:
		// The tombstone record itself is garbage the moment it is the
		// newest state for the URL.
		delete(s.index, url)
		s.deadBytes += recLen
	}
}

// encodeFrame renders one framed record.
func encodeFrame(op byte, url string, x indexed) []byte {
	b := make([]byte, frameBytes+fixedPayload, frameLen(url))
	p := b[frameBytes:]
	p[0] = op
	binary.LittleEndian.PutUint64(p[1:9], uint64(x.version))
	binary.LittleEndian.PutUint64(p[9:17], uint64(x.size))
	binary.LittleEndian.PutUint64(p[17:25], uint64(x.fetchedAt))
	binary.LittleEndian.PutUint16(p[25:27], uint16(len(url)))
	b = append(b, url...)
	binary.LittleEndian.PutUint32(b[0:4], uint32(len(b)-frameBytes))
	binary.LittleEndian.PutUint32(b[4:8], crc32.Checksum(b[frameBytes:], crcTable))
	return b
}

// decodePayload parses one record payload.
func decodePayload(p []byte) (url string, x indexed, op byte, ok bool) {
	if len(p) < fixedPayload {
		return "", indexed{}, 0, false
	}
	op = p[0]
	if op != opPut && op != opTombstone {
		return "", indexed{}, 0, false
	}
	x.version = document.Version(binary.LittleEndian.Uint64(p[1:9]))
	x.size = int64(binary.LittleEndian.Uint64(p[9:17]))
	x.fetchedAt = int64(binary.LittleEndian.Uint64(p[17:25]))
	if len(p) != fixedPayload+int(binary.LittleEndian.Uint16(p[25:27])) {
		return "", indexed{}, 0, false
	}
	return string(p[fixedPayload:]), x, op, true
}

// openActive starts a fresh active segment for new appends.
func (s *Store) openActive() error {
	id := s.next
	s.next++
	f, err := os.OpenFile(s.segPath(id), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("durable: create segment: %w", err)
	}
	if _, err := f.Write([]byte(segMagic)); err != nil {
		_ = f.Close()
		return fmt.Errorf("durable: write segment header: %w", err)
	}
	s.active = f
	s.activeID = id
	s.activeBytes = int64(len(segMagic))
	s.totalBytes += int64(len(segMagic))
	s.segs = append(s.segs, id)
	return s.writeManifest()
}

// writeManifest swaps MANIFEST atomically (tmp + rename + dir sync under
// the rotate/always policies).
func (s *Store) writeManifest() error {
	m := manifest{Segments: s.segs, Next: s.next}
	raw, err := json.Marshal(m)
	if err != nil {
		return err
	}
	tmp := filepath.Join(s.dir, manifestName+".tmp")
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return fmt.Errorf("durable: write manifest: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, manifestName)); err != nil {
		return fmt.Errorf("durable: swap manifest: %w", err)
	}
	if s.opts.Fsync != FsyncNever {
		if d, err := os.Open(s.dir); err == nil {
			_ = d.Sync()
			_ = d.Close()
		}
	}
	return nil
}

// append writes one framed record to the active segment, rotating and
// compacting as configured. Caller holds s.mu.
func (s *Store) append(op byte, url string, x indexed) error {
	if s.closed {
		return ErrClosed
	}
	if len(url) > maxURLBytes {
		return fmt.Errorf("%w: %d bytes (max %d)", ErrURLTooLong, len(url), maxURLBytes)
	}
	frame := encodeFrame(op, url, x)
	if _, err := s.active.Write(frame); err != nil {
		return fmt.Errorf("durable: append: %w", err)
	}
	if s.opts.Fsync == FsyncAlways {
		if err := s.active.Sync(); err != nil {
			return fmt.Errorf("durable: sync: %w", err)
		}
	}
	recLen := int64(len(frame))
	s.activeBytes += recLen
	s.totalBytes += recLen
	s.applyRecord(op, url, x)
	if s.activeBytes >= s.opts.MaxSegmentBytes {
		return s.rotate()
	}
	return nil
}

// rotate seals the active segment and either compacts (when the garbage
// ratio crossed the threshold) or opens a fresh active segment.
func (s *Store) rotate() error {
	if s.opts.Fsync != FsyncNever {
		if err := s.active.Sync(); err != nil {
			return fmt.Errorf("durable: seal sync: %w", err)
		}
	}
	if err := s.active.Close(); err != nil {
		return fmt.Errorf("durable: seal close: %w", err)
	}
	s.active = nil
	if s.totalBytes > 0 && float64(s.deadBytes) >= s.opts.CompactFraction*float64(s.totalBytes) {
		return s.compactLocked()
	}
	return s.openActive()
}

// Put records a document admission (or refresh).
func (s *Store) Put(cp document.Copy) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.append(opPut, cp.Doc.URL, indexed{cp.Doc.Version, cp.Doc.Size, cp.FetchedAt})
}

// Delete records an eviction or explicit removal, so the entry cannot
// resurrect on restart. Deleting an absent URL is a no-op (no tombstone
// garbage for entries the log never held).
func (s *Store) Delete(url string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if _, ok := s.index[url]; !ok {
		return nil
	}
	return s.append(opTombstone, url, indexed{})
}

// Entries returns the live index sorted by URL (the warm-boot load set).
func (s *Store) Entries() []Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Entry, 0, len(s.index))
	for url, x := range s.index {
		out = append(out, x.entry(url))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Doc.URL < out[j].Doc.URL })
	return out
}

// Get returns the live entry for a URL.
func (s *Store) Get(url string) (Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	x, ok := s.index[url]
	return x.entry(url), ok
}

// Len returns the live index size.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Compact rewrites the live index into a single fresh segment and drops
// the old log.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.active != nil {
		if s.opts.Fsync != FsyncNever {
			if err := s.active.Sync(); err != nil {
				return err
			}
		}
		if err := s.active.Close(); err != nil {
			return err
		}
		s.active = nil
	}
	return s.compactLocked()
}

// Reset replaces the log's contents with exactly the given entries (the
// warm-boot path: the in-memory cache may have admitted only a subset of
// the recovered index, and the log must agree so nothing resurrects).
func (s *Store) Reset(entries []Entry) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.active != nil {
		if err := s.active.Close(); err != nil {
			return err
		}
		s.active = nil
	}
	s.index = make(map[string]indexed, len(entries))
	s.liveBytes, s.deadBytes, s.totalBytes = 0, 0, 0
	for _, e := range entries {
		if len(e.Doc.URL) > maxURLBytes {
			// The record encoding cannot hold it; dropping it here beats
			// writing a segment recovery would read as corruption.
			continue
		}
		s.index[e.Doc.URL] = indexed{e.Doc.Version, e.Doc.Size, e.FetchedAt}
	}
	return s.compactLocked()
}

// compactLocked writes the index into one fresh segment, swaps the
// manifest to name only that segment, and removes the old files. Caller
// holds s.mu with the active segment closed.
func (s *Store) compactLocked() error {
	old := append([]uint64(nil), s.segs...)
	id := s.next
	s.next++
	f, err := os.OpenFile(s.segPath(id), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("durable: compact create: %w", err)
	}
	written := int64(len(segMagic))
	if _, err := f.Write([]byte(segMagic)); err != nil {
		_ = f.Close()
		return fmt.Errorf("durable: compact header: %w", err)
	}
	urls := make([]string, 0, len(s.index))
	for url := range s.index {
		urls = append(urls, url)
	}
	sort.Strings(urls)
	for _, url := range urls {
		frame := encodeFrame(opPut, url, s.index[url])
		if _, err := f.Write(frame); err != nil {
			_ = f.Close()
			return fmt.Errorf("durable: compact write: %w", err)
		}
		written += int64(len(frame))
	}
	if s.opts.Fsync != FsyncNever {
		if err := f.Sync(); err != nil {
			_ = f.Close()
			return fmt.Errorf("durable: compact sync: %w", err)
		}
	}
	// The compacted segment becomes the new active segment: further
	// appends continue into it.
	s.active = f
	s.activeID = id
	s.activeBytes = written
	s.segs = []uint64{id}
	s.liveBytes = written - int64(len(segMagic))
	s.deadBytes = 0
	s.totalBytes = written
	if err := s.writeManifest(); err != nil {
		return err
	}
	for _, oldID := range old {
		_ = os.Remove(s.segPath(oldID))
	}
	s.compactions++
	if s.opts.Tracer != nil {
		s.opts.Tracer.Emit(obs.Event{Kind: obs.EvStoreCompact, Count: int64(len(urls))})
	}
	return nil
}

// Sync flushes the active segment to stable storage regardless of policy.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.active == nil {
		return nil
	}
	return s.active.Sync()
}

// Close seals the store. Further mutations return ErrClosed.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.active == nil {
		return nil
	}
	if s.opts.Fsync != FsyncNever {
		if err := s.active.Sync(); err != nil {
			_ = s.active.Close()
			return err
		}
	}
	err := s.active.Close()
	s.active = nil
	return err
}

// Stats returns the current accounting snapshot.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Segments:        len(s.segs),
		LiveEntries:     len(s.index),
		LiveBytes:       s.liveBytes,
		TotalBytes:      s.totalBytes,
		DeadBytes:       s.deadBytes,
		Truncations:     s.truncations,
		TruncatedBytes:  s.truncatedBytes,
		DroppedSegments: s.droppedSegments,
		Compactions:     s.compactions,
		Recovered:       s.recovered,
	}
}
