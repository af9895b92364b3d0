package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	"locshort/internal/obs"
	"locshort/internal/service"
)

// On-disk layout. A store directory holds numbered append-only segment
// files:
//
//	<dir>/000001.seg
//	<dir>/000002.seg
//	...
//
// Each segment starts with an 8-byte magic ("LSSTOR01") and then a sequence
// of framed records:
//
//	offset  size  field
//	0       1     kind: 'G' graph, 'P' partition, 'S' shortcut,
//	              'J' async job record, 'T' graph tombstone
//	1       8     key (big-endian content fingerprint)
//	9       4     payload length (big-endian)
//	13      4     CRC-32C over kind ‖ key ‖ length ‖ payload
//	17      n     payload (see encode.go)
//
// Records are appended to the highest-numbered segment and fsynced (unless
// Options.NoSync); a segment past Options.SegmentBytes is retired and a new
// one started. The newest record for a (kind, key) pair wins on replay, and
// a tombstone hides the graph record and every shortcut record whose
// payload references that graph fingerprint. Compaction (GC) rewrites the
// live records into a fresh segment via write-tmp-then-rename and deletes
// the old files afterwards, so a crash at any point leaves either the old
// set, both (replayed old-to-new to the same index), or the new set.
//
// Crash tolerance on open: a record that extends past the end of the last
// segment — the signature of a crash mid-append — is truncated away, and a
// record whose checksum does not match its frame is skipped (the frame
// length still locates the next record). Both are counted in OpenStats.
const (
	segMagic     = "LSSTOR01"
	frameHdrSize = 17
	gcTmpName    = "gc.seg.tmp"

	kindGraph     = 'G'
	kindPartition = 'P'
	kindShortcut  = 'S'
	kindJob       = 'J'
	kindTombstone = 'T'
)

// maxRecordBytes bounds a single record frame; anything larger is treated
// as corruption rather than allocated.
const maxRecordBytes = 1 << 31

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Options tunes a Store. The zero value selects production defaults.
type Options struct {
	// SegmentBytes retires the active segment once it grows past this
	// size (default 64 MiB).
	SegmentBytes int64
	// NoSync skips the fsync after each append. Throughput for
	// durability: a crash can lose recently acknowledged records, but
	// never corrupts what an earlier sync made durable. Tests and bulk
	// imports use it; daemons should not.
	NoSync bool
	// NoMmap disables memory-mapping sealed segments, forcing every read
	// through the portable pread path (fresh buffer plus a per-read
	// checksum). The default maps sealed segments read-only where the
	// platform supports it and serves payloads as subslices of the
	// mapping — zero-copy — relying on the checksum verification that
	// already happened when each record entered the index: replay for
	// records found at Open, the write path (we computed the CRC) for
	// records this process appended. The active tail segment is never
	// mapped; it stays on the write path untouched.
	NoMmap bool
	// Obs, when non-nil, registers the store's metric families:
	// append/fsync latency histograms, per-kind append and segment
	// rotation counters, and func-backed gauges over OpenStats (segments,
	// bytes, live records by kind) read at scrape time.
	Obs *obs.Registry
	// FS substitutes the filesystem every file operation goes through
	// (default: the real one). The storetest conformance suite injects
	// faults — short writes, failed fsyncs, failed renames, crash
	// schedules — through this seam. A non-os FS disables mmap (sealed
	// segments stay on the pread path, so reads remain observable).
	FS FS
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
	if o.FS == nil {
		o.FS = osFS{}
	}
	return o
}

// OpenStats reports what Open found and repaired.
type OpenStats struct {
	// Segments is the number of segment files.
	Segments int
	// Graphs, Partitions, Shortcuts, Jobs count live records by kind.
	Graphs, Partitions, Shortcuts, Jobs int
	// Bytes is the total size of all segment files.
	Bytes int64
	// MappedSegments counts segments currently served zero-copy from a
	// read-only memory mapping (sealed segments only; zero with
	// Options.NoMmap or on platforms without mmap).
	MappedSegments int
	// CorruptSkipped counts records dropped for checksum mismatch.
	CorruptSkipped int
	// TruncatedBytes counts bytes cut off a torn segment tail.
	TruncatedBytes int64
	// TombstonesApplied counts graph tombstones replayed.
	TombstonesApplied int
}

type segment struct {
	seq  int
	f    File
	size int64
	// data is the read-only memory mapping of a sealed segment; nil keeps
	// the segment on the pread path (active tail, Options.NoMmap, mmap
	// failure, or an unsupported platform).
	data []byte
}

// Store is the content-addressed, append-only segment store: the shared
// record layer (kvCore) over a segmentLog, which frames every record into
// numbered segment files. It implements Backend and Compactor. All methods
// are safe for concurrent use; a directory must be owned by one Store at a
// time (run locshortctl against a stopped daemon or a copied directory).
type Store struct {
	kvCore
	log *segmentLog
}

// segmentLog is the Store's payloadStore: put appends a framed record to
// the active segment, get serves a payload from the locator kvCore keeps
// in its index (seg, off, framed size), and deleting a graph appends a
// tombstone. Replay at Open and GC write their results straight into
// kvCore's index; the log itself keeps no key-to-record map.
type segmentLog struct {
	dir  string
	opts Options
	fsys FS

	// mu is kvCore's index lock, shared: it guards the segment table and
	// sizes too, so a locator and the segment it points into are always
	// read together. kvCore calls get and footprint with it read-held; GC
	// holds it across the swap of locators and segments; rotation, put's
	// size update and close take it briefly, never across a disk write or
	// fsync.
	mu     *sync.RWMutex
	segs   map[int]*segment
	active *segment
	// retired holds mappings of segments GC deleted. Zero-copy payload
	// slices handed out before the GC may still alias them, so they are
	// munmapped only at Close — address space is cheap, dangling reads
	// are not.
	retired [][]byte

	// metrics is nil unless Options.Obs was set.
	metrics *storeMetrics
}

// Open opens (creating if necessary) the store rooted at dir, replaying
// every segment into the in-memory index and repairing a torn tail.
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if err := opts.FS.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	l := &segmentLog{dir: dir, opts: opts, fsys: opts.FS, segs: make(map[int]*segment)}
	s := &Store{kvCore: newKVCore(KindSegment, dir, l), log: l}
	l.mu = &s.mu
	// A gc.seg.tmp left by a GC that crashed before its rename is dead
	// weight — replay ignores the name, so without this sweep it would
	// leak disk forever.
	l.fsys.Remove(filepath.Join(dir, gcTmpName))
	seqs, err := listSegments(l.fsys, dir)
	if err != nil {
		return nil, err
	}
	for _, seq := range seqs {
		if err := s.replaySegment(seq); err != nil {
			_ = l.close() // best-effort: the replay error must propagate
			return nil, err
		}
	}
	if len(seqs) > 0 {
		last := l.segs[seqs[len(seqs)-1]]
		if last.size < opts.SegmentBytes {
			l.active = last
		}
	}
	if l.active == nil {
		next := 1
		if len(seqs) > 0 {
			next = seqs[len(seqs)-1] + 1
		}
		if err := l.startSegment(next); err != nil {
			_ = l.close() // best-effort: the segment error must propagate
			return nil, err
		}
	}
	// Map the sealed segments (everything but the active tail) now that
	// replay has repaired torn tails — the mapping length is the repaired
	// size. Open is single-threaded, so no lock is needed yet.
	for _, seg := range l.segs {
		if seg != l.active {
			l.mapSealedLocked(seg)
		}
	}
	if opts.Obs != nil {
		l.metrics = newStoreMetrics(opts.Obs, s)
	}
	return s, nil
}

// listSegments returns the segment sequence numbers in dir, ascending.
func listSegments(fsys FS, dir string) ([]int, error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []int
	for _, e := range entries {
		var seq int
		if _, err := fmt.Sscanf(e.Name(), "%06d.seg", &seq); err == nil &&
			e.Name() == segName(seq) && seq > 0 {
			seqs = append(seqs, seq)
		}
	}
	sort.Ints(seqs)
	return seqs, nil
}

func segName(seq int) string { return fmt.Sprintf("%06d.seg", seq) }

func (l *segmentLog) segPath(seq int) string { return filepath.Join(l.dir, segName(seq)) }

// startSegment creates a fresh active segment with the file header.
// Caller holds kvCore.writeMu (or is Open's single-threaded setup); the
// brief segment-table mutation takes mu itself.
func (l *segmentLog) startSegment(seq int) error {
	f, err := l.fsys.OpenFile(l.segPath(seq), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	// On any failure past creation the file must be removed: it was
	// created with O_EXCL, so leaving a husk behind would wedge every
	// rotation retry with EEXIST even after the underlying fault clears
	// (a real bug the errfs fault suite shook out).
	fail := func(err error) error {
		_ = f.Close() // best-effort: the original error must propagate
		l.fsys.Remove(l.segPath(seq))
		return err
	}
	if _, err := f.Write([]byte(segMagic)); err != nil {
		return fail(err)
	}
	if !l.opts.NoSync {
		if err := f.Sync(); err != nil {
			return fail(err)
		}
		l.fsys.SyncDir(l.dir)
	}
	seg := &segment{seq: seq, f: f, size: int64(len(segMagic))}
	l.mu.Lock()
	if prev := l.active; prev != nil {
		// The outgoing active segment is sealed from here on: no append
		// will ever touch it again, so its size is final and it can join
		// the zero-copy read path. Rotation is rare (once per
		// SegmentBytes), so the mmap syscall under mu is fine.
		l.mapSealedLocked(prev)
	}
	l.segs[seq] = seg
	l.active = seg
	l.mu.Unlock()
	return nil
}

// mapSealedLocked attaches a read-only memory mapping to a sealed segment.
// Failure — including an unsupported platform, or a segment file that is
// not a plain *os.File because an FS shim is injected — is not an error:
// the segment just stays on the pread fallback. Caller holds mu (or is
// Open's single-threaded setup) and must never map the active segment,
// because the mapping length is fixed at the segment's current size.
func (l *segmentLog) mapSealedLocked(seg *segment) {
	if l.opts.NoMmap || seg.data != nil || seg.size <= 0 {
		return
	}
	osf, ok := seg.f.(*os.File)
	if !ok {
		return
	}
	if data, err := mmapFile(osf, seg.size); err == nil {
		seg.data = data
	}
}

// frameCRC is the checksum a frame header carries: CRC-32C over kind ‖ key
// ‖ length ‖ payload.
func frameCRC(hdr, payload []byte) uint32 {
	return crc32.Update(crc32.Checksum(hdr[:13], crcTable), crcTable, payload)
}

// replaySegment reads one segment into the index, truncating a torn tail
// and skipping checksum-corrupt records. Open is single-threaded, so the
// index is written without taking kvCore.mu.
func (s *Store) replaySegment(seq int) error {
	l := s.log
	f, err := l.fsys.OpenFile(l.segPath(seq), os.O_RDWR, 0)
	if err != nil {
		return err
	}
	seg := &segment{seq: seq, f: f}
	l.segs[seq] = seg
	info, err := f.Stat()
	if err != nil {
		return err
	}
	size := info.Size()
	if size == 0 {
		// Crash between segment creation and header write: finish the job.
		if _, err := f.Write([]byte(segMagic)); err != nil {
			return err
		}
		seg.size = int64(len(segMagic))
		return nil
	}
	hdr := make([]byte, len(segMagic))
	if _, err := io.ReadFull(f, hdr); err != nil || string(hdr) != segMagic {
		return fmt.Errorf("store: %s: not a segment file (bad magic)", segName(seq))
	}
	off := int64(len(segMagic))
	frame := make([]byte, frameHdrSize)
	truncate := func() error {
		s.open.TruncatedBytes += size - off
		if err := f.Truncate(off); err != nil {
			return err
		}
		seg.size = off
		return nil
	}
	for off < size {
		if size-off < frameHdrSize {
			return truncate()
		}
		if _, err := f.ReadAt(frame, off); err != nil {
			return err
		}
		plen := int64(binary.BigEndian.Uint32(frame[9:]))
		total := frameHdrSize + plen
		if total > maxRecordBytes || off+total > size {
			// A frame that runs past the end of the file is a torn append;
			// an absurd length means the header itself is torn. Either
			// way nothing after this point is trustworthy.
			return truncate()
		}
		payload := make([]byte, plen)
		if _, err := f.ReadAt(payload, off+frameHdrSize); err != nil {
			return err
		}
		kind := frame[0]
		key := service.Fingerprint(binary.BigEndian.Uint64(frame[1:]))
		meta := kvMeta{seg: seq, off: off, size: total}
		switch {
		case frameCRC(frame, payload) != binary.BigEndian.Uint32(frame[13:]):
			s.open.CorruptSkipped++
		case kind == kindTombstone:
			s.dropGraphLocked(key)
			s.open.TombstonesApplied++
		case kind == kindGraph || kind == kindPartition || kind == kindShortcut || kind == kindJob:
			if err := meta.parseDeps(kind, payload); err != nil {
				s.open.CorruptSkipped++
			} else {
				s.indexPutLocked(kind, key, meta)
			}
		default:
			s.open.CorruptSkipped++
		}
		off += total
	}
	seg.size = size
	return nil
}

// put frames and durably writes one record to the active segment,
// rotating first if the segment is full, and returns the record's
// locator. Caller holds kvCore.writeMu, which serializes all writers; mu
// is taken only to publish the new segment size, never across the disk
// write or fsync, so concurrent readers are not stalled by persistence.
func (l *segmentLog) put(kind byte, key service.Fingerprint, payload []byte) (kvMeta, error) {
	var appendStart time.Time
	if l.metrics != nil {
		appendStart = time.Now()
	}
	// active and seg.size are only mutated under writeMu, which we hold.
	seg := l.active
	if seg.size >= l.opts.SegmentBytes {
		if err := l.startSegment(seg.seq + 1); err != nil {
			return kvMeta{}, err
		}
		if l.metrics != nil {
			l.metrics.rotations.Inc()
		}
		seg = l.active
	}
	frame := make([]byte, frameHdrSize, frameHdrSize+len(payload))
	frame[0] = kind
	binary.BigEndian.PutUint64(frame[1:], uint64(key))
	binary.BigEndian.PutUint32(frame[9:], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[13:], frameCRC(frame, payload))
	frame = append(frame, payload...)
	meta := kvMeta{seg: seg.seq, off: seg.size, size: int64(len(frame))}
	if _, err := seg.f.WriteAt(frame, seg.size); err != nil {
		return kvMeta{}, err
	}
	if !l.opts.NoSync {
		var syncStart time.Time
		if l.metrics != nil {
			syncStart = time.Now()
		}
		if err := seg.f.Sync(); err != nil {
			return kvMeta{}, err
		}
		if l.metrics != nil {
			l.metrics.fsyncSeconds.Observe(time.Since(syncStart))
		}
	}
	l.mu.Lock()
	seg.size += int64(len(frame))
	l.mu.Unlock()
	if l.metrics != nil {
		l.metrics.appendSeconds.Observe(time.Since(appendStart))
		if c, ok := l.metrics.appends[kind]; ok {
			c.Inc()
		}
	}
	return meta, nil
}

// get returns the payload of the frame at meta's locator. On a mapped
// (sealed) segment the slice aliases the read-only mapping — zero-copy, no
// per-read checksum unless verify asks for one: the frame was CRC-checked
// when the record entered the index (replay at Open, or put for records
// this process appended), and the mapping stays valid until Close even
// across a GC (see retired). The pread fallback reads into a fresh buffer
// and checks the CRC on every read. Caller holds mu read-locked.
//
//locshort:hotpath
func (l *segmentLog) get(_ byte, _ service.Fingerprint, meta kvMeta, verify bool) ([]byte, error) {
	seg, ok := l.segs[meta.seg]
	if !ok {
		return nil, fs.ErrNotExist // unreachable under mu; a miss regardless
	}
	end := meta.off + meta.size
	var frame []byte
	if seg.data != nil && end <= int64(len(seg.data)) {
		// Three-index form so an append by a careless caller reallocates
		// instead of scribbling on the read-only mapping.
		frame = seg.data[meta.off:end:end]
		if !verify {
			return frame[frameHdrSize:], nil
		}
	} else {
		frame = make([]byte, meta.size)
		if _, err := seg.f.ReadAt(frame, meta.off); err != nil {
			return nil, err
		}
	}
	if frameCRC(frame, frame[frameHdrSize:]) != binary.BigEndian.Uint32(frame[13:]) {
		//locshort:alloc-ok corruption path: a failed checksum never serves
		return nil, fmt.Errorf("store: record %s/%c: checksum mismatch",
			service.Fingerprint(binary.BigEndian.Uint64(frame[1:])), frame[0])
	}
	return frame[frameHdrSize:], nil
}

// del appends the tombstone that deletes a graph. The tombstone also hides
// every shortcut built on the graph at replay, so deleting those writes
// nothing.
func (l *segmentLog) del(kind byte, key service.Fingerprint) error {
	if kind != kindGraph {
		return nil
	}
	_, err := l.put(kindTombstone, key, nil)
	return err
}

// footprint reports the segment files: their count, total size (live,
// superseded and tombstoned records alike) and how many are mapped. Caller
// holds mu read-locked.
func (l *segmentLog) footprint(st *OpenStats) {
	st.Segments, st.Bytes, st.MappedSegments = len(l.segs), 0, 0
	for _, seg := range l.segs {
		st.Bytes += seg.size
		if seg.data != nil {
			st.MappedSegments++
		}
	}
}

// close releases every segment file handle and unmaps every segment
// mapping, including mappings GC retired. Appended records are already on
// disk (and fsynced unless NoSync); closing never loses data. Zero-copy
// payload slices handed out by reads become invalid — callers must drain
// readers first, which every daemon shutdown path already does.
func (l *segmentLog) close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	var first error
	for _, seg := range l.segs {
		if seg.data != nil {
			munmapFile(seg.data)
			seg.data = nil
		}
		if err := seg.f.Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, data := range l.retired {
		munmapFile(data)
	}
	l.retired = nil
	l.segs = make(map[int]*segment)
	l.active = nil
	return first
}

// GCStats reports what a compaction did.
type GCStats struct {
	// LiveRecords and LiveBytes are what the compacted segment holds.
	LiveRecords int
	LiveBytes   int64
	// DroppedRecords counts live index entries not carried over
	// (partitions no live shortcut references). Dead on-disk records —
	// superseded duplicates, tombstoned graphs and shortcuts, the
	// tombstones themselves — were never in the live index; the space
	// they held shows up in ReclaimedBytes.
	DroppedRecords int
	// ReclaimedBytes is the size difference between the old segment set
	// and the compacted one.
	ReclaimedBytes int64
	// Segments is the segment-file count after compaction.
	Segments int
}

// GC compacts the store: every live record — minus partitions no live
// shortcut references — is copied into a fresh segment written to a
// temporary file and atomically renamed into place, then the old segments
// are deleted. A crash before the rename leaves the old set; a crash after
// it leaves old and new coexisting, which replays to the identical index
// (newest record wins, and tombstones in old segments apply before the
// compacted segment is replayed).
func (s *Store) GC() (GCStats, error) {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	var st GCStats
	if s.closed {
		return st, s.errClosed()
	}
	l := s.log

	// Partitions still referenced by a live shortcut.
	wanted := make(map[service.Fingerprint]bool)
	for ik, meta := range s.index {
		if ik.kind == kindShortcut {
			wanted[meta.partFP] = true
		}
	}
	// sortedLocked's kind-then-key order is the deterministic layout:
	// identical content compacts to identical bytes.
	keeps := s.sortedLocked()
	total := len(keeps)
	keeps = slices.DeleteFunc(keeps, func(r indexEntry) bool {
		return r.ik.kind == kindPartition && !wanted[r.ik.key]
	})

	nextSeq := 1
	for seq := range l.segs {
		if seq >= nextSeq {
			nextSeq = seq + 1
		}
	}
	tmpPath := filepath.Join(l.dir, gcTmpName)
	tmp, err := l.fsys.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return st, err
	}
	defer l.fsys.Remove(tmpPath)
	if _, err := tmp.Write([]byte(segMagic)); err != nil {
		_ = tmp.Close() // best-effort: the write error must propagate
		return st, err
	}
	off := int64(len(segMagic))
	for i := range keeps {
		m := &keeps[i].meta
		seg, ok := l.segs[m.seg]
		if !ok {
			_ = tmp.Close() // best-effort: the lookup error must propagate
			return st, fmt.Errorf("store: segment %d vanished during gc", m.seg)
		}
		frame := make([]byte, m.size)
		if _, err := seg.f.ReadAt(frame, m.off); err != nil {
			_ = tmp.Close() // best-effort: the read error must propagate
			return st, err
		}
		if _, err := tmp.Write(frame); err != nil {
			_ = tmp.Close() // best-effort: the write error must propagate
			return st, err
		}
		m.seg, m.off = nextSeq, off
		off += m.size
	}
	if err := tmp.Sync(); err != nil {
		_ = tmp.Close() // best-effort: the fsync error must propagate
		return st, err
	}
	oldBytes := int64(0)
	for _, seg := range l.segs {
		oldBytes += seg.size
	}
	if err := l.fsys.Rename(tmpPath, l.segPath(nextSeq)); err != nil {
		_ = tmp.Close() // best-effort: the rename error must propagate
		return st, err
	}
	l.fsys.SyncDir(l.dir)
	// Point of no return: the compacted segment is durable. Retire the
	// old files and swap the index over. Mappings of the deleted segments
	// move to the graveyard instead of being unmapped: concurrent readers
	// may still hold zero-copy slices into them, and an unlinked file's
	// mapping stays valid until munmap at Close.
	for seq, seg := range l.segs {
		if seg.data != nil {
			l.retired = append(l.retired, seg.data)
			seg.data = nil
		}
		_ = seg.f.Close() // best-effort: the compacted segment is already durable
		l.fsys.Remove(l.segPath(seq))
		delete(l.segs, seq)
	}
	l.fsys.SyncDir(l.dir)
	newSeg := &segment{seq: nextSeq, f: tmp, size: off}
	l.segs[nextSeq] = newSeg
	l.active = newSeg
	// Every shortcut survives compaction, so byGraph stays as it is.
	s.index = make(map[indexKey]kvMeta, len(keeps))
	for _, r := range keeps {
		s.index[r.ik] = r.meta
	}
	st.LiveRecords = len(keeps)
	st.LiveBytes = off
	st.DroppedRecords = total - len(keeps)
	st.ReclaimedBytes = oldBytes - off
	st.Segments = len(l.segs)
	s.open.CorruptSkipped, s.open.TruncatedBytes, s.open.TombstonesApplied = 0, 0, 0
	return st, nil
}
