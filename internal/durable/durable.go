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
// place and any later segments are dropped, so the recovered live set is
// always a prefix-consistent subset of the pre-crash write sequence —
// never a panic, never garbage served as a document. A segment whose
// header itself does not verify (a crash before the header reached disk)
// is dropped entirely, so it cannot linger in the manifest as a permanent
// corruption point that would poison every later recovery.
//
// The log is the store's only per-document record: the tier in front of it
// holds every live document in memory already. Each mutation a tier queues
// says whether the tier held the URL (Op.Held), which keeps the byte counts
// exact without an index; compaction, Entries and Get replay the segments
// through recovery's own reader into a table that lives as long as the call.
//
// Compaction rewrites the live set into a fresh segment and atomically
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
	"slices"
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

// ParseFsync maps a flag/config string to a policy; "" selects the
// default FsyncOnRotate, and any string but "rotate", "always" and "never"
// is an error.
func ParseFsync(s string) (FsyncPolicy, error) {
	switch s {
	case "", "rotate":
		return FsyncOnRotate, nil
	case "always":
		return FsyncAlways, nil
	case "never":
		return FsyncNever, nil
	default:
		return FsyncOnRotate, fmt.Errorf("durable: unknown fsync policy %q (want rotate, always or never)", s)
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

// Entry is one live document of the store: the copy its newest put wrote.
type Entry = document.Copy

// indexed is what a put record holds for its URL: the fields the URL
// itself does not give.
type indexed struct {
	version   document.Version
	size      int64
	fetchedAt int64
}

func fieldsOf(cp document.Copy) indexed { return indexed{cp.Doc.Version, cp.Doc.Size, cp.FetchedAt} }

func (x indexed) entry(url string) Entry {
	return Entry{Doc: document.Document{URL: url, Size: x.size, Version: x.version}, FetchedAt: x.fetchedAt}
}

// Stats is a point-in-time summary of the store.
type Stats struct {
	// Segments is the number of live log segments (including the active
	// one).
	Segments int
	// LiveEntries is how many documents the log holds live.
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
	// Recovered is the live set's size right after Open.
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
// table of lengths.
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

// add counts one record of n bytes into LiveEntries, LiveBytes and DeadBytes;
// held says whether its URL had a live record, which this one makes garbage.
func (st *Stats) add(op byte, n int64, held bool) {
	if held {
		st.LiveEntries, st.LiveBytes, st.DeadBytes = st.LiveEntries-1, st.LiveBytes-n, st.DeadBytes+n
	}
	if op == opPut {
		st.LiveEntries, st.LiveBytes = st.LiveEntries+1, st.LiveBytes+n
	} else {
		st.DeadBytes += n // a tombstone is garbage the moment it is the newest record
	}
}

// table is what one replay of the log rebuilds: the newest put of every URL
// not tombstoned since, its counts, and where the replay stopped.
type table struct {
	live    map[string]indexed
	counts  Stats // LiveEntries, LiveBytes, DeadBytes
	total   int64 // verified bytes read
	bad     int   // s.segs position of the first segment not ending cleanly (len(s.segs): none)
	good    int64 // that segment's verified length
	r       *bufio.Reader
	payload []byte
}

func (t *table) apply(op byte, url string, x indexed) {
	_, held := t.live[url]
	t.counts.add(op, frameLen(url), held)
	if op == opPut {
		t.live[url] = x
	} else {
		delete(t.live, url)
	}
}

// Store is the durable tier of one cache node. All methods are safe for
// concurrent use.
type Store struct {
	mu     sync.Mutex
	dir    string
	opts   Options
	closed bool

	segs []uint64 // sealed + active segment IDs, replay order
	next uint64   // next segment ID to allocate

	active      *os.File // nil after a failed rotation: the next append opens one
	activeID    uint64
	activeBytes int64
	frame       []byte // the record being appended

	// st holds what Stats reports, bar Segments. stale: its live and dead
	// counts wait for a replay (Put leaves them so). drifted: a write failed
	// since the last Reset, so a tier's held flags no longer match the log.
	st             Stats
	stale, drifted bool
}

// Open creates or recovers a store in dir, creating the directory as
// needed. Recovery never fails on torn or corrupt log data — it truncates
// to the longest verifiable prefix; only real I/O errors are returned.
func Open(dir string, opts Options) (*Store, error) {
	opts.defaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: create dir: %w", err)
	}
	s := &Store{dir: dir, opts: opts}
	if err := s.recover(); err != nil {
		return nil, err
	}
	if err := s.openActive(); err != nil {
		return nil, err
	}
	return s, nil
}

// recover loads the manifest (or scans the directory when absent), replays
// every segment once to count the live set, truncates the first torn frame,
// and drops any segments past a corruption point.
func (s *Store) recover() error {
	m, err := s.readManifest()
	if err != nil {
		return err
	}
	s.segs, s.next = m.Segments, m.Next
	t, err := s.replay()
	if err != nil {
		return err
	}
	if t.bad < len(s.segs) {
		// Prefix recovery: everything after the first bad frame is
		// unverifiable, including later segments.
		s.truncateAt(s.segs[t.bad], t.good)
		drop := t.bad + 1
		if t.good == 0 {
			// The segment has no verifiable header (a crash between
			// segment create and header persist, or a garbage file).
			// Keeping it would leave a permanently zero-length entry
			// in the manifest that re-triggers prefix recovery on
			// every future Open — silently dropping segments written
			// after this one — so the segment itself is dropped.
			drop = t.bad
		}
		for _, d := range s.segs[drop:] {
			_ = os.Remove(s.segPath(d))
			s.st.DroppedSegments++
		}
		s.segs = s.segs[:drop]
	}
	s.st.TotalBytes, s.st.Recovered = t.total, t.counts.LiveEntries
	// Orphan segments (left by a crash between manifest swap and delete)
	// are removed so they can never resurrect entries.
	s.removeOrphans()
	return s.writeManifest()
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
	m.Segments, m.Next = ids, 1
	if len(ids) > 0 {
		m.Next = ids[len(ids)-1] + 1
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
	slices.Sort(ids)
	return ids, nil
}

// removeOrphans deletes segment files not named by the manifest.
func (s *Store) removeOrphans() {
	ids, err := s.scanSegments()
	if err != nil {
		return
	}
	for _, id := range ids {
		if !slices.Contains(s.segs, id) {
			_ = os.Remove(s.segPath(id))
		}
	}
}

func (s *Store) segPath(id uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("seg-%08d.log", id))
}

// replay rebuilds the live set from the segment files — the one reader
// recovery, compaction, Entries, Get and recounts share — up to the first
// segment not ending cleanly, and makes its counts the store's (on an I/O
// error it returns what it read and leaves them).
func (s *Store) replay() (*table, error) {
	t := &table{live: make(map[string]indexed, max(s.st.LiveEntries, 0)), bad: len(s.segs), r: bufio.NewReader(nil)}
	for i, id := range s.segs {
		good, clean, err := t.scan(s.segPath(id))
		if err != nil {
			return t, err
		}
		t.total += good
		if !clean {
			t.bad, t.good = i, good
			break
		}
	}
	s.st.LiveEntries, s.st.LiveBytes, s.st.DeadBytes, s.stale = t.counts.LiveEntries, t.counts.LiveBytes, t.counts.DeadBytes, false
	return t, nil
}

// scan applies one segment's records up to the first frame that does not
// verify. good is the verified length; clean is false when bytes follow it
// or the header does not verify (good 0). A segment the manifest names but
// that never reached disk (a crash between manifest write and first append
// after compaction) reads as empty and clean, so later segments replay.
func (t *table) scan(path string) (good int64, clean bool, err error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return 0, true, nil
	}
	if err != nil {
		return 0, false, fmt.Errorf("durable: open segment: %w", err)
	}
	defer func() { _ = f.Close() }()
	t.r.Reset(f)
	var frame [frameBytes]byte
	if _, err := io.ReadFull(t.r, frame[:]); err != nil || string(frame[:]) != segMagic {
		return 0, false, nil
	}
	good = int64(len(segMagic))
	for {
		if _, err := io.ReadFull(t.r, frame[:]); err != nil {
			return good, err == io.EOF, nil // EOF: the exact end of the segment
		}
		plen := binary.LittleEndian.Uint32(frame[0:4])
		if plen == 0 || plen > maxRecordPayload {
			return good, false, nil
		}
		t.payload = slices.Grow(t.payload[:0], int(plen))[:plen]
		if _, err := io.ReadFull(t.r, t.payload); err != nil || crc32.Checksum(t.payload, crcTable) != binary.LittleEndian.Uint32(frame[4:8]) {
			return good, false, nil
		}
		url, x, op, ok := decodePayload(t.payload)
		if !ok {
			return good, false, nil
		}
		t.apply(op, url, x)
		good += frameLen(url)
	}
}

// truncateAt cuts segment id back to its verified length and records the
// event.
func (s *Store) truncateAt(id uint64, good int64) {
	path := s.segPath(id)
	var lost int64
	if fi, err := os.Stat(path); err == nil {
		lost = fi.Size() - good
	}
	_ = os.Truncate(path, good)
	s.st.Truncations++
	s.st.TruncatedBytes += lost
	s.opts.Tracer.Emit(obs.Event{Kind: obs.EvStoreTruncated, URL: path, Count: lost})
}

// appendFrame renders one framed record onto b.
func appendFrame(b []byte, op byte, url string, x indexed) []byte {
	start := len(b)
	b = append(b, make([]byte, frameBytes)...)
	b = append(b, op)
	b = binary.LittleEndian.AppendUint64(b, uint64(x.version))
	b = binary.LittleEndian.AppendUint64(b, uint64(x.size))
	b = binary.LittleEndian.AppendUint64(b, uint64(x.fetchedAt))
	b = binary.LittleEndian.AppendUint16(b, uint16(len(url)))
	b = append(b, url...)
	p := b[start+frameBytes:]
	binary.LittleEndian.PutUint32(b[start:], uint32(len(p)))
	binary.LittleEndian.PutUint32(b[start+4:], crc32.Checksum(p, crcTable))
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
	s.active, s.activeID, s.activeBytes = f, id, int64(len(segMagic))
	s.st.TotalBytes += int64(len(segMagic))
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
// compacting as configured; held says whether the URL had a live record.
// Caller holds s.mu.
func (s *Store) append(op byte, url string, x indexed, held bool) error {
	if s.closed {
		return ErrClosed
	}
	if len(url) > maxURLBytes {
		return fmt.Errorf("%w: %d bytes (max %d)", ErrURLTooLong, len(url), maxURLBytes)
	}
	if s.active == nil {
		// A rotation failed to open one: retry rather than refuse every write.
		if err := s.openActive(); err != nil {
			s.stale, s.drifted = true, true
			return err
		}
	}
	s.frame = appendFrame(s.frame[:0], op, url, x)
	if _, err := s.active.Write(s.frame); err != nil {
		// Cut a short write back (best effort) so no record follows a torn one.
		_ = s.active.Truncate(s.activeBytes)
		_, _ = s.active.Seek(s.activeBytes, io.SeekStart)
		s.stale, s.drifted = true, true
		return fmt.Errorf("durable: append: %w", err)
	}
	n := int64(len(s.frame))
	s.activeBytes, s.st.TotalBytes = s.activeBytes+n, s.st.TotalBytes+n
	s.st.add(op, n, held)
	s.stale = s.stale || s.drifted
	if s.opts.Fsync == FsyncAlways {
		if err := s.active.Sync(); err != nil {
			return fmt.Errorf("durable: sync: %w", err)
		}
	}
	if s.activeBytes >= s.opts.MaxSegmentBytes {
		return s.rotate()
	}
	return nil
}

// rotate seals the active segment and either compacts (when the garbage
// ratio crossed the threshold) or opens a fresh active segment.
func (s *Store) rotate() error {
	if err := s.seal(); err != nil {
		return err
	}
	live := s.fresh()
	if s.st.TotalBytes == 0 || float64(s.st.DeadBytes) < s.opts.CompactFraction*float64(s.st.TotalBytes) {
		return s.openActive()
	}
	return s.compact(live)
}

// seal syncs (unless the policy is never) and closes the active segment;
// on a closed store it returns ErrClosed.
func (s *Store) seal() error {
	if s.closed {
		return ErrClosed
	}
	f := s.active
	if f == nil {
		return nil
	}
	s.active = nil
	if s.opts.Fsync != FsyncNever {
		if err := f.Sync(); err != nil {
			_ = f.Close()
			return fmt.Errorf("durable: seal sync: %w", err)
		}
	}
	return f.Close()
}

// fresh recounts stale counts and returns the live set it replayed, if any.
func (s *Store) fresh() (live map[string]indexed) {
	if s.stale {
		if t, err := s.replay(); err == nil {
			live = t.live
		}
	}
	return live
}

// Put records an admission or refresh for a caller without a tier to say
// whether the log holds the URL: the next Stats, Len or rotation recounts.
func (s *Store) Put(cp document.Copy) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stale = true
	return s.append(opPut, cp.Doc.URL, fieldsOf(cp), false)
}

// Delete records an eviction or explicit removal, so the entry cannot
// resurrect on restart. Deleting a URL the log does not hold — which the
// store replays the log to find out — writes nothing.
func (s *Store) Delete(url string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	t, err := s.replay()
	if err != nil {
		return err
	}
	if _, ok := t.live[url]; !ok {
		return nil
	}
	return s.append(opTombstone, url, indexed{}, true)
}

// Apply writes one mutation a tier queued; its Held flag keeps the counts
// exact. A tombstone of a URL the tier did not hold is a no-op.
func (s *Store) Apply(op Op) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch url := op.Copy.Doc.URL; {
	case !op.Delete:
		return s.append(opPut, url, fieldsOf(op.Copy), op.Held)
	case op.Held:
		return s.append(opTombstone, url, indexed{}, true)
	}
	return nil
}

// Entries returns the readable live set sorted by URL (the warm-boot load set).
func (s *Store) Entries() []Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, _ := s.replay()
	out := make([]Entry, 0, len(t.live))
	for url, x := range t.live {
		out = append(out, x.entry(url))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Doc.URL < out[j].Doc.URL })
	return out
}

// Get returns the live entry for a URL, read from the log as Entries does.
func (s *Store) Get(url string) (Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, _ := s.replay()
	x, ok := t.live[url]
	return x.entry(url), ok
}

// Len returns the size of the live set.
func (s *Store) Len() int { return s.Stats().LiveEntries }

// Compact rewrites the live set into a single fresh segment and drops the
// old log.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.seal(); err != nil {
		return err
	}
	return s.compact(nil)
}

// Reset replaces the log's contents with exactly the given entries (the
// warm-boot path: the in-memory cache may have admitted only a subset of
// the recovered set, and the log must agree so nothing resurrects).
func (s *Store) Reset(entries []Entry) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.seal(); err != nil {
		return err
	}
	live := make(map[string]indexed, len(entries))
	for _, e := range entries {
		if len(e.Doc.URL) > maxURLBytes {
			// The record encoding cannot hold it; dropping it here beats
			// writing a segment recovery would read as corruption.
			continue
		}
		live[e.Doc.URL] = fieldsOf(e)
	}
	err := s.compact(live)
	s.drifted = s.drifted && err != nil // on success the log holds exactly what the tier will
	return err
}

// compact writes live (nil: a replay of the log) into one fresh segment,
// sorted by URL, swaps the manifest to name only that segment, and removes
// the old files. live never comes from the tier: the tier already holds
// mutations still queued for the log, which a rewrite from it would put
// ahead of writes queued before them. Caller holds s.mu, active closed.
func (s *Store) compact(live map[string]indexed) error {
	if live == nil {
		t, err := s.replay()
		if err != nil {
			return err
		}
		live = t.live
	}
	old := s.segs
	id := s.next
	s.next++
	f, err := os.OpenFile(s.segPath(id), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("durable: compact create: %w", err)
	}
	urls := make([]string, 0, len(live))
	for url := range live {
		urls = append(urls, url)
	}
	sort.Strings(urls)
	w := bufio.NewWriter(f)
	_, _ = w.WriteString(segMagic) // a write error sticks until Flush reports it
	written := int64(len(segMagic))
	for _, url := range urls {
		_, _ = w.Write(appendFrame(w.AvailableBuffer(), opPut, url, live[url]))
		written += frameLen(url)
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return fmt.Errorf("durable: compact write: %w", err)
	}
	if s.opts.Fsync != FsyncNever {
		if err := f.Sync(); err != nil {
			_ = f.Close()
			return fmt.Errorf("durable: compact sync: %w", err)
		}
	}
	// The compacted segment becomes the new active segment: further
	// appends continue into it.
	s.active, s.activeID, s.activeBytes, s.segs = f, id, written, []uint64{id}
	s.st.LiveEntries, s.st.LiveBytes, s.st.DeadBytes, s.st.TotalBytes = len(urls), written-int64(len(segMagic)), 0, written
	s.stale = false
	if err := s.writeManifest(); err != nil {
		return err
	}
	for _, oldID := range old {
		_ = os.Remove(s.segPath(oldID))
	}
	s.st.Compactions++
	s.opts.Tracer.Emit(obs.Event{Kind: obs.EvStoreCompact, Count: int64(len(urls))})
	return nil
}

// Close seals the store. Further mutations return ErrClosed.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	err := s.seal()
	s.closed = true
	return err
}

// Stats returns the current accounting snapshot.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fresh()
	st := s.st
	st.Segments = len(s.segs)
	return st
}
