package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// WAL is a segmented, append-only write-ahead log. The DC-tree appends one
// logical record per acknowledged mutation before it is reflected in any
// durable tree state; replaying the log past the last checkpoint therefore
// reconstructs every acknowledged update after a crash.
//
// On-disk layout: a log is a set of segment files named
//
//	<prefix>.<index>.wal
//
// where <index> is a monotonically increasing 8-digit decimal. Each segment
// starts with a fixed 32-byte header (magic "DCWAL002", segment index, LSN
// of its first record, fencing epoch) followed by framed records:
//
//	uint32  payload length
//	uint32  CRC32 (IEEE) of the payload
//	bytes   payload
//
// A segment file has one lifecycle: it is created under its numeric name,
// appended to, sealed by rotation and removed by truncation. Appends grow the
// file ZeroBlock bytes at a time: zeros are written ahead of the frames and
// overwritten once by them, so a commit's fsync lands on bytes the file
// already holds. A segment is cut back to its last frame before it stops
// being the active one (rotation, full truncation, Close). It is never
// renamed and never rewritten below its frames, and indices are never
// reused, so a path names the same segment for as long as the file exists.
//
// Records carry log sequence numbers (LSNs), assigned 1,2,3,… and monotone
// across segment rotation AND across Truncate, so a checkpoint can durably
// record "everything ≤ L is superseded" and recovery can skip exactly those
// records even if the truncation itself was lost to a crash.
//
// Crash behavior: a torn append leaves an invalid frame, or zeros, at the
// tail of the last segment; OpenWAL truncates the file back to the last
// valid frame, so the log always reopens to a clean prefix of the append
// order. A non-final segment may end in zeros only (a crash before its cut
// was durable), which OpenWAL cuts the same way; any other invalid frame in
// a non-final position is corruption.
//
// Concurrency: Append serializes on an internal mutex; Sync snapshots the
// active file and runs the fsync outside the mutex, so appenders are never
// blocked behind a disk flush — the property group commit relies on.
//
// Appends are buffered in memory: Append performs no syscall, and Sync
// writes the accumulated frames with a single write before the fsync. A
// buffered record is exactly as volatile as an unsynced page-cache write,
// so the durability contract is unchanged — nothing is acknowledged until
// Sync covers it — while the per-append cost drops to a memcpy, which is
// what lets one commit leader drain many appenders per disk flush.
type WAL struct {
	mu      sync.Mutex
	prefix  string
	opts    WALOptions
	f       *os.File // active segment
	active  walSegment
	size    int64  // logical bytes in the active segment (flushed + buffered)
	flushed int64  // frame bytes actually written to the active file
	alloc   int64  // the active file's size: its frames, then zeros written ahead
	buf     []byte // frames appended but not yet written to the file
	nextLSN uint64
	records int64 // records currently stored across all segments
	sealed  []walSegment
	closed  bool
	appends atomic.Int64
	syncs   atomic.Int64
	stored  atomic.Int64 // frame bytes appended (overhead + payload)
	// syncedLSN tracks the LSN half of the durable frontier (updated by
	// Sync and by rotation, whose fsync seals a whole segment); the byte
	// half lives per segment in walSegment.synced — Sync snapshots the
	// active segment's INDEX and only advances the frontier of that same
	// segment, so a rotation or truncation racing the fsync can never leave
	// the frontier describing bytes of a segment that is no longer active.
	syncedLSN uint64

	// retainLSN is the replication retention floor (SetRetainLSN):
	// TruncateBefore never discards records with LSN above it, so a
	// follower that acknowledged shipping up to the floor can always
	// resume. MaxUint64 (the initial value) disables the floor.
	retainLSN uint64

	// epoch is the fencing epoch stamped into the header of every segment
	// this log creates. It only ever rises (SetEpoch/BumpEpoch); on open it
	// is recovered as the maximum epoch across the surviving segment
	// headers, so a promotion's bump survives any crash once the first
	// post-bump segment header is durable.
	epoch uint64

	// changed is the channel SegmentsChanged handed out: closed and cleared
	// by the next advance it describes, nil while nobody asked.
	changed chan struct{}
}

// walSegment identifies one segment file.
type walSegment struct {
	index    uint64
	path     string
	firstLSN uint64
	f        *os.File // sealed segments keep their handle until Truncate/Close
	// synced is the segment's durable byte frontier: everything below it
	// survived an fsync. Sealed segments are durable in full (rotation
	// fsyncs before sealing), so theirs equals the file size; the active
	// segment's advances with each completed Sync that it was the active
	// segment of — tracked per segment precisely so a rotation racing a
	// Sync cannot misattribute one segment's frontier to another.
	synced int64
	// epoch mirrors the segment's on-disk header: the fencing epoch it was
	// created under.
	epoch uint64
}

// WALOptions tunes a write-ahead log.
type WALOptions struct {
	// SegmentBytes rotates the active segment once it reaches this size.
	// ≤ 0 selects the 4 MiB default.
	SegmentBytes int64
	// SyncDelay models a slower log device by sleeping this long inside
	// every Sync, on top of the real fsync. Benchmarks use it to study the
	// disk-bound regime (commit latencies in the milliseconds) that fast
	// container filesystems hide. 0 in production.
	SyncDelay time.Duration
	// RetainSegments keeps at least this many of the newest sealed
	// segments through TruncateBefore even when a checkpoint supersedes
	// them — a static retention cushion for log-shipping followers that
	// tail the segment directory without an acknowledgment channel (the
	// dynamic floor is SetRetainLSN). 0 retains nothing extra.
	RetainSegments int
}

// WALStats is a snapshot of the log's activity counters.
type WALStats struct {
	Appends     int64 // records appended
	Syncs       int64 // fsync calls issued
	BytesStored int64 // frame bytes appended: overhead + payload
	Records     int64 // records currently stored (since last truncate)
	Segments    int   // segment files currently on disk
	// Recycled is always 0: the recycle pool it counted is retired. The
	// field stays only because benchmark/workloads.go reads it; it goes with
	// the next [benchmark] PR (ROADMAP item 2(f)).
	Recycled int64
}

// Errors returned by the WAL.
var (
	ErrWALClosed  = errors.New("storage: wal is closed")
	ErrWALCorrupt = errors.New("storage: wal corrupt")
	ErrWALRecord  = errors.New("storage: wal record too large")
)

// errWALNoHeader marks a segment file with no valid header. For the final
// segment this means a crash during segment creation (the file holds no
// records and is safely discarded); anywhere else it is corruption.
var errWALNoHeader = fmt.Errorf("%w: no valid segment header", ErrWALCorrupt)

const (
	walMagic         = "DCWAL002"
	walSegHeaderSize = 8 + 8 + 8 + 8 // magic, segment index, first LSN, fencing epoch
	walFrameOverhead = 8             // uint32 length + uint32 crc
	walMaxRecord     = 64 << 20
	walDefaultSeg    = 4 << 20
	// walFrameCompressed is the top bit of a frame's length word, which an
	// older build set on frames whose payload it had compressed (lengths are
	// ≤ 64 MiB, so this build never sets it). Such a frame is refused with
	// ErrUnsupportedFormat by every frame reader — see frameAt.
	walFrameCompressed = uint32(1) << 31
)

// ZeroBlock is the unit a log file grows by. A write whose frames run past
// the zeros already in the file writes zeros after them up to the next
// multiple of ZeroBlock; later frames overwrite those zeros in place. So only
// the first fsync after each extension journals the file's new size and
// block allocation, and the others flush data alone. The block stays small:
// the zeros of an active segment count as disk bytes until it is sealed.
const ZeroBlock = 4 << 10

var zeroBlock [ZeroBlock]byte

// WriteFrames writes frames at offset off of a log file whose size is alloc,
// every byte of it from off on being zero. When the frames run past alloc,
// zeros follow them up to the next ZeroBlock boundary. It returns the file's
// new size. The log and a follower's mirror of it both write this way.
func WriteFrames(f *os.File, frames []byte, off, alloc int64) (int64, error) {
	if _, err := f.WriteAt(frames, off); err != nil {
		return alloc, err
	}
	end := off + int64(len(frames))
	if end <= alloc {
		return alloc, nil
	}
	pad := -end & (ZeroBlock - 1)
	if pad > 0 {
		if _, err := f.WriteAt(zeroBlock[:pad], end); err != nil {
			return end, err
		}
	}
	return end + pad, nil
}

// walSegmentPath names segment files: <prefix>.<index 8-digit>.wal.
func walSegmentPath(prefix string, index uint64) string {
	return fmt.Sprintf("%s.%08d.wal", prefix, index)
}

// OpenWAL opens (or creates) the write-ahead log with the given file
// prefix. Existing segments are scanned front to back: every frame is
// CRC-checked, LSN continuity across segments is verified, and a torn tail
// in the final segment — or a zero tail in any segment — is truncated away,
// so the reopened log is exactly the valid prefix of what was appended
// before the crash. A frame in the retired compressed format fails the open
// with ErrUnsupportedFormat and leaves every file as it was.
func OpenWAL(prefix string, opts WALOptions) (*WAL, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = walDefaultSeg
	}
	if opts.SegmentBytes < walSegHeaderSize+walFrameOverhead {
		return nil, fmt.Errorf("%w: segment size %d too small", ErrBadExtent, opts.SegmentBytes)
	}
	w := &WAL{prefix: prefix, opts: opts, nextLSN: 1, retainLSN: ^uint64(0)}
	removeLeftoverPool(prefix)

	segs, err := findSegments(prefix)
	if err != nil {
		return nil, err
	}
	if len(segs) == 0 {
		if err := w.createSegment(1, 1); err != nil {
			return nil, err
		}
		return w, nil
	}

	// Scan every segment in order. All but the last must be valid frames,
	// then at most zeros; the last may have a torn tail, or — after a crash
	// during segment creation — no valid header at all, in which case it
	// holds no records and is replaced. Tails are truncated.
	for i := range segs {
		last := i == len(segs)-1
		info, err := scanSegment(segs[i].path, last)
		if err != nil {
			if last && errors.Is(err, errWALNoHeader) {
				if err := os.Remove(segs[i].path); err != nil {
					return nil, err
				}
				break
			}
			return nil, err
		}
		if info.index != segs[i].index {
			return nil, fmt.Errorf("%w: segment %s header index %d", ErrWALCorrupt, segs[i].path, info.index)
		}
		if i > 0 && info.firstLSN != w.nextLSN {
			return nil, fmt.Errorf("%w: segment %s starts at lsn %d, want %d",
				ErrWALCorrupt, segs[i].path, info.firstLSN, w.nextLSN)
		}
		if info.epoch < w.epoch {
			// Epochs only ever rise; a later segment from an earlier epoch
			// means two logs were interleaved into one directory.
			return nil, fmt.Errorf("%w: segment %s epoch %d below predecessor epoch %d",
				ErrWALCorrupt, segs[i].path, info.epoch, w.epoch)
		}
		w.epoch = info.epoch
		if i == 0 {
			w.nextLSN = info.firstLSN
		}
		w.nextLSN += uint64(info.records)
		w.records += info.records
		if info.validSize < info.fileSize {
			// Cut back to the last valid frame and make the truncation
			// durable before accepting new appends.
			if err := cutSegment(segs[i].path, info.validSize); err != nil {
				return nil, err
			}
		}
		seg := walSegment{index: info.index, path: segs[i].path, firstLSN: info.firstLSN,
			epoch: info.epoch, synced: info.validSize}
		if last {
			f, err := os.OpenFile(segs[i].path, os.O_RDWR, 0o644)
			if err != nil {
				return nil, err
			}
			w.f = f
			w.active = seg
			w.size = info.validSize
			w.flushed = info.validSize
			w.alloc = info.validSize
		} else {
			w.sealed = append(w.sealed, seg)
		}
	}
	if w.f == nil {
		// The final segment was discarded (torn creation): continue in a
		// fresh one right after it.
		if err := w.createSegment(segs[len(segs)-1].index+1, w.nextLSN); err != nil {
			return nil, err
		}
	}
	w.syncedLSN = w.nextLSN - 1
	return w, nil
}

// walSegFile is one discovered segment file.
type walSegFile struct {
	index uint64
	path  string
}

// findSegments lists the segment files of a prefix in index order.
func findSegments(prefix string) ([]walSegFile, error) {
	matches, err := filepath.Glob(prefix + ".*.wal")
	if err != nil {
		return nil, err
	}
	var cands []walSegFile
	for _, m := range matches {
		base := strings.TrimSuffix(strings.TrimPrefix(m, prefix+"."), ".wal")
		idx, err := strconv.ParseUint(base, 10, 64)
		if err != nil {
			continue // unrelated file
		}
		cands = append(cands, walSegFile{index: idx, path: m})
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].index < cands[j].index })
	return cands, nil
}

// removeLeftoverPool best-effort removes the <prefix>.recycle*.wal files
// an older build kept retired segments in for reuse. They hold no log
// records (findSegments never listed them), so nothing is lost with them.
func removeLeftoverPool(prefix string) {
	matches, _ := filepath.Glob(prefix + ".recycle*.wal")
	for _, m := range matches {
		os.Remove(m)
	}
}

// removeSegment deletes a superseded segment file. A missing file counts
// as success, so a truncation retried after a partial failure is
// idempotent.
func removeSegment(path string) error {
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

// cutSegment durably truncates a segment file to size: the end of its last
// valid frame.
func cutSegment(path string, size int64) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	err = f.Truncate(size)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// segmentInfo is the result of validating one segment file.
type segmentInfo struct {
	index     uint64
	firstLSN  uint64
	epoch     uint64 // fencing epoch
	records   int64
	validSize int64 // offset just past the last valid frame
	fileSize  int64
}

// parseSegHeader fills the header fields of info from the first bytes of a
// segment file. Anything but a whole current header is errWALNoHeader,
// except the retired epoch-less format, which is named for what it is: a
// "DCWAL001" log must fail closed, never be mistaken for a torn creation
// and discarded.
func parseSegHeader(data []byte, info *segmentInfo) error {
	switch {
	case len(data) >= 8 && string(data[:8]) == "DCWAL001":
		return fmt.Errorf("%w: wal segment magic DCWAL001 (pre-fencing log)", ErrUnsupportedFormat)
	case len(data) < walSegHeaderSize || string(data[:8]) != walMagic:
		return errWALNoHeader
	}
	info.index = binary.LittleEndian.Uint64(data[8:])
	info.firstLSN = binary.LittleEndian.Uint64(data[16:])
	info.epoch = binary.LittleEndian.Uint64(data[24:])
	return nil
}

// scanSegment validates a segment's header and frames. When tolerateTail
// is true an invalid frame ends the scan cleanly (torn tail of the final
// segment); otherwise only zeros may follow the last valid frame, and
// anything else is corruption. A retired-format frame is
// ErrUnsupportedFormat either way.
func scanSegment(path string, tolerateTail bool) (segmentInfo, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return segmentInfo{}, err
	}
	info := segmentInfo{fileSize: int64(len(data))}
	if err := parseSegHeader(data, &info); err != nil {
		return segmentInfo{}, fmt.Errorf("segment %s: %w", path, err)
	}
	off := int64(walSegHeaderSize)
	for {
		n, err := frameAt(data, off)
		if err != nil {
			return segmentInfo{}, fmt.Errorf("segment %s: %w", path, err)
		}
		if n == 0 {
			if off < int64(len(data)) && !tolerateTail && !ZeroPadding(data[off:], true) {
				return segmentInfo{}, fmt.Errorf("%w: segment %s bad frame at %d", ErrWALCorrupt, path, off)
			}
			break
		}
		off += n
		info.records++
	}
	info.validSize = off
	return info, nil
}

// frameAt validates the frame starting at off and returns its total size,
// or 0 when no whole CRC-valid frame starts there (end of data, a torn
// write or damage — the caller knows which positions tolerate that).
//
// A length word with walFrameCompressed set is checked with the bit masked
// off: if the CRC then verifies, the frame is a whole one written by an
// older build with compression on, and the error is ErrUnsupportedFormat.
// Without this arm such a frame would read as "longer than walMaxRecord",
// i.e. as a torn tail, and OpenWAL would truncate a valid log.
func frameAt(data []byte, off int64) (int64, error) {
	if int64(len(data))-off < walFrameOverhead {
		return 0, nil
	}
	word := binary.LittleEndian.Uint32(data[off:])
	length := int64(word &^ walFrameCompressed)
	if length == 0 || length > walMaxRecord {
		return 0, nil
	}
	if int64(len(data))-off < walFrameOverhead+length {
		return 0, nil
	}
	sum := binary.LittleEndian.Uint32(data[off+4:])
	payload := data[off+walFrameOverhead : off+walFrameOverhead+length]
	if crc32.ChecksumIEEE(payload) != sum {
		return 0, nil
	}
	if word&walFrameCompressed != 0 {
		return 0, fmt.Errorf("%w: compressed wal frame at %d", ErrUnsupportedFormat, off)
	}
	return walFrameOverhead + length, nil
}

// createSegment installs a fresh active segment — the one way a segment
// file comes to exist (called with the caller holding w.mu or during
// construction).
func (w *WAL) createSegment(index, firstLSN uint64) error {
	path := walSegmentPath(w.prefix, index)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if err := writeSegHeader(f, index, firstLSN, w.epoch); err != nil {
		f.Close()
		return err
	}
	// The header (and the file's existence) must survive a crash before
	// the first Sync, or recovery would see a headerless tail segment.
	// This fsync is also what makes an epoch bump durable: BumpEpoch
	// returns only after the first new-epoch segment header is on disk.
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	syncDir(filepath.Dir(path))
	w.f = f
	w.active = walSegment{index: index, path: path, firstLSN: firstLSN,
		epoch: w.epoch, synced: walSegHeaderSize}
	w.size = walSegHeaderSize
	w.flushed = walSegHeaderSize
	w.alloc = walSegHeaderSize
	w.buf = w.buf[:0]
	w.signalLocked()
	return nil
}

// SegmentsChanged returns a channel that is closed the next time Segments
// would offer a follower something new: a Sync raises the durable
// frontier, a rotation (BumpEpoch included) seals a segment and creates
// one, or a full truncation resets the log. Retiring sealed segments
// (TruncateBefore short of the whole log) offers nothing and leaves it
// open. A log-shipping follower takes the channel before it reads the
// listing, so no advance between the two is lost, and then waits on it
// instead of polling. Each close hands later callers a fresh channel.
func (w *WAL) SegmentsChanged() <-chan struct{} {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.changed == nil {
		w.changed = make(chan struct{})
	}
	return w.changed
}

// signalLocked wakes every SegmentsChanged waiter. Caller holds w.mu.
func (w *WAL) signalLocked() {
	if w.changed != nil {
		close(w.changed)
		w.changed = nil
	}
}

// writeSegHeader writes and leaves durable-pending a segment header.
func writeSegHeader(f *os.File, index, firstLSN, epoch uint64) error {
	_, err := f.WriteAt(EncodeSegmentHeader(SegmentHeader{Index: index, FirstLSN: firstLSN, Epoch: epoch}), 0)
	return err
}

// syncDir best-effort fsyncs a directory so file creation/removal is
// durable (not all filesystems support it; errors are ignored).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// Append frames one record into the log's buffer and returns its LSN. No
// syscall is made; the record reaches the file (in one batched write) and
// the disk only when a subsequent Sync returns (group commit batches many
// appends into one Sync).
func (w *WAL) Append(payload []byte) (uint64, error) {
	if len(payload) == 0 || len(payload) > walMaxRecord {
		return 0, fmt.Errorf("%w: %d bytes", ErrWALRecord, len(payload))
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, ErrWALClosed
	}
	if w.size >= w.opts.SegmentBytes {
		if err := w.rotateLocked(); err != nil {
			return 0, err
		}
	}
	var hdr [walFrameOverhead]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
	w.buf = append(append(w.buf, hdr[:]...), payload...)
	w.size += walFrameOverhead + int64(len(payload))
	lsn := w.nextLSN
	w.nextLSN++
	w.records++
	w.appends.Add(1)
	w.stored.Add(walFrameOverhead + int64(len(payload)))
	return lsn, nil
}

// flushLocked writes the buffered frames to the active file in one
// syscall, plus one writing the next zeros ahead when the frames run past
// those already in the file. Caller holds w.mu.
func (w *WAL) flushLocked() error {
	if len(w.buf) == 0 {
		return nil
	}
	alloc, err := WriteFrames(w.f, w.buf, w.flushed, w.alloc)
	w.alloc = alloc
	if err != nil {
		return err
	}
	w.flushed += int64(len(w.buf))
	w.buf = w.buf[:0]
	return nil
}

// trimLocked cuts the active file back to its last written frame, dropping
// the zeros written ahead: a segment that stops being the active one holds
// only frames. Caller holds w.mu.
func (w *WAL) trimLocked() error {
	if w.alloc <= w.flushed {
		return nil
	}
	if err := w.f.Truncate(w.flushed); err != nil {
		return err
	}
	w.alloc = w.flushed
	return nil
}

// rotateLocked seals the active segment (trimmed and fsynced, so a sealed
// segment is its frames, all durable) and opens the next one.
func (w *WAL) rotateLocked() error {
	if err := w.flushLocked(); err != nil {
		return err
	}
	if err := w.trimLocked(); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.syncs.Add(1)
	sealed := w.active
	sealed.f = w.f
	sealed.synced = w.flushed // the fsync above covered the whole file
	if w.nextLSN-1 > w.syncedLSN {
		w.syncedLSN = w.nextLSN - 1
	}
	if err := w.createSegment(w.active.index+1, w.nextLSN); err != nil {
		// Keep appending to the old segment; rotation retries next time.
		w.f = sealed.f
		return err
	}
	w.sealed = append(w.sealed, sealed)
	return nil
}

// Sync makes every record appended so far durable and returns the highest
// LSN covered: the buffered frames are written with a single syscall, then
// fsynced. The fsync runs outside the WAL mutex: concurrent Appends
// proceed (their records are simply not covered by this Sync).
func (w *WAL) Sync() (uint64, error) {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return 0, ErrWALClosed
	}
	if err := w.flushLocked(); err != nil {
		w.mu.Unlock()
		return 0, err
	}
	// Snapshot the segment's INDEX alongside the handle: after the fsync,
	// the frontier update must be attributed to this same segment, never to
	// whatever is active by then. A rotation racing the fsync seals the
	// snapshot segment with its own full-size frontier; a truncation
	// supersedes it entirely — in both cases the post-fsync re-check below
	// sees the index mismatch and leaves the (already reset) frontier of
	// the new active segment alone instead of advancing it with stale
	// bytes, and the LSN frontier still advances to cover this Sync.
	f := w.f
	idx := w.active.index
	target := w.nextLSN - 1
	size := w.size
	w.mu.Unlock()

	if err := f.Sync(); err != nil {
		w.mu.Lock()
		stillActive := idx == w.active.index
		synced := w.syncedLSN
		w.mu.Unlock()
		if stillActive {
			return 0, err
		}
		// The segment was sealed or truncated away while the fsync was in
		// flight: rotation fsynced it whole, or a concurrent checkpoint
		// superseded its records — either way the durable frontier already
		// covers everything that matters.
		return synced, nil
	}
	w.syncs.Add(1)
	if w.opts.SyncDelay > 0 {
		time.Sleep(w.opts.SyncDelay)
	}

	w.mu.Lock()
	if target > w.syncedLSN {
		w.syncedLSN = target
		w.signalLocked()
	}
	if idx == w.active.index && size > w.active.synced {
		w.active.synced = size
		w.signalLocked()
	}
	w.mu.Unlock()
	return target, nil
}

// Replay calls fn for every record in the log in append order. It re-reads
// the segment files, so it reflects exactly what recovery after a crash
// would see. fn errors abort the replay.
func (w *WAL) Replay(fn func(lsn uint64, payload []byte) error) error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return ErrWALClosed
	}
	// Replay reads the segment files, so buffered frames must reach them
	// first (they are part of the log's contents, just not yet durable).
	if err := w.flushLocked(); err != nil {
		w.mu.Unlock()
		return err
	}
	segs := make([]walSegment, 0, len(w.sealed)+1)
	segs = append(segs, w.sealed...)
	segs = append(segs, w.active)
	activeSize := w.size
	w.mu.Unlock()

	for i, seg := range segs {
		data, err := os.ReadFile(seg.path)
		if err != nil {
			return err
		}
		if i == len(segs)-1 && int64(len(data)) > activeSize {
			// Appends racing with the replay: ignore frames past the
			// snapshot taken above.
			data = data[:activeSize]
		}
		var hdr segmentInfo
		if err := parseSegHeader(data, &hdr); err != nil {
			return fmt.Errorf("segment %s: %w", seg.path, err)
		}
		lsn := hdr.firstLSN
		off := int64(walSegHeaderSize)
		for {
			n, err := frameAt(data, off)
			if err != nil {
				return fmt.Errorf("segment %s: %w", seg.path, err)
			}
			if n == 0 {
				if off < int64(len(data)) && i < len(segs)-1 {
					return fmt.Errorf("%w: segment %s bad frame at %d", ErrWALCorrupt, seg.path, off)
				}
				break
			}
			if err := fn(lsn, data[off+walFrameOverhead:off+n]); err != nil {
				return err
			}
			lsn++
			off += n
		}
	}
	return nil
}

// Truncate discards every record in the log — the checkpoint step after
// the tree has durably persisted a state that supersedes them. The LSN
// counter is preserved: a fresh segment whose header carries the next LSN
// is created and synced FIRST, then the old segments are removed, so a
// crash at any point leaves a log that replays to a suffix of the original
// (and the checkpoint LSN recorded by the tree filters that suffix).
func (w *WAL) Truncate() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrWALClosed
	}
	return w.truncateAllLocked()
}

// TruncateBefore discards records with LSN ≤ lsn — the log-compaction step
// of a fuzzy checkpoint, whose durable metadata supersedes exactly the
// records up to its captured LSN while appends made during the background
// write phase must survive. When lsn covers the whole log this is a full
// Truncate; otherwise only sealed segments wholly at or below lsn are
// removed. Records ≤ lsn sharing a segment with later ones are left in
// place: recovery filters replay by the checkpoint LSN, so they are
// skipped, never re-applied — the same reason a crash before any part of
// the truncation is safe.
func (w *WAL) TruncateBefore(lsn uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrWALClosed
	}
	// Replication retention: the dynamic floor (SetRetainLSN) caps how far
	// the truncation may reach, and RetainSegments keeps a static cushion
	// of the newest sealed segments. Both exist so that a follower tailing
	// the segment directory never finds the log truncated past the records
	// it has yet to ship.
	if lsn > w.retainLSN {
		lsn = w.retainLSN
	}
	if lsn >= w.nextLSN-1 && w.opts.RetainSegments <= 0 {
		if w.records == 0 && len(w.sealed) == 0 {
			return nil // nothing to discard; keep the active segment
		}
		return w.truncateAllLocked()
	}
	maxCut := len(w.sealed) - w.opts.RetainSegments
	if maxCut < 0 {
		maxCut = 0
	}
	cut := 0
	for cut < maxCut {
		// The last LSN of sealed[i] is the first LSN of the next segment
		// minus one.
		nextFirst := w.active.firstLSN
		if cut+1 < len(w.sealed) {
			nextFirst = w.sealed[cut+1].firstLSN
		}
		if nextFirst-1 > lsn {
			break
		}
		cut++
	}
	if cut == 0 {
		return nil
	}
	retired := 0
	var firstErr error
	for i := 0; i < cut; i++ {
		seg := w.sealed[i]
		nextFirst := w.active.firstLSN
		if i+1 < len(w.sealed) {
			nextFirst = w.sealed[i+1].firstLSN
		}
		if seg.f != nil {
			seg.f.Close()
			w.sealed[i].f = nil // never double-close on retry
		}
		// removeSegment treats an already-missing file as success, so a
		// retry after a partial failure re-walks the same prefix without
		// double-counting; the record count only moves with a successful
		// removal, keeping it consistent with the files on disk.
		if err := removeSegment(seg.path); err != nil {
			// Keep the not-yet-retired suffix (including this segment)
			// tracked so a retry or Close still sees it.
			w.sealed = append([]walSegment(nil), w.sealed[i:]...)
			firstErr = err
			break
		}
		w.records -= int64(nextFirst - seg.firstLSN)
		retired++
	}
	if firstErr == nil {
		w.sealed = append([]walSegment(nil), w.sealed[cut:]...)
	}
	// One directory sync covers every retirement of this pass — including
	// the ones that preceded a mid-loop failure, whose removal must not
	// remain volatile just because a later one failed.
	if retired > 0 {
		syncDir(filepath.Dir(w.active.path))
	}
	return firstErr
}

// truncateAllLocked is the full truncation: a fresh segment carrying the
// next LSN is created and synced FIRST, then every old segment is removed.
// The old active segment is trimmed first; if a crash keeps it and loses the
// trim, OpenWAL cuts the zeros it is left ending in.
func (w *WAL) truncateAllLocked() error {
	if err := w.trimLocked(); err != nil {
		return err
	}
	old := append(append([]walSegment(nil), w.sealed...), walSegment{
		index: w.active.index, path: w.active.path, f: w.f,
	})
	if err := w.createSegment(w.active.index+1, w.nextLSN); err != nil {
		return err
	}
	w.sealed = nil
	w.records = 0
	w.syncedLSN = w.nextLSN - 1
	var firstErr error
	for _, seg := range old {
		if seg.f != nil {
			seg.f.Close()
		}
		if err := removeSegment(seg.path); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	// The new segment has already replaced the old ones in w's accounting;
	// sync the directory once regardless of individual removal failures so
	// every completed removal is durable.
	syncDir(filepath.Dir(w.active.path))
	return firstErr
}

// Close syncs and closes the log files, the active segment trimmed to its
// last frame.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrWALClosed
	}
	w.closed = true
	err := w.flushLocked()
	if terr := w.trimLocked(); err == nil {
		err = terr
	}
	if serr := w.f.Sync(); err == nil {
		err = serr
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	for _, seg := range w.sealed {
		if seg.f != nil {
			seg.f.Close()
		}
	}
	return err
}

// LastLSN returns the LSN of the most recently appended record (0 if none
// was ever appended).
func (w *WAL) LastLSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.nextLSN - 1
}

// SyncedLSN returns the highest LSN known durable.
func (w *WAL) SyncedLSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.syncedLSN
}

// Epoch returns the log's current fencing epoch: the epoch stamped into
// segments created from now on, recovered on open as the maximum across the
// surviving segment headers.
func (w *WAL) Epoch() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.epoch
}

// SetEpoch raises the fencing epoch (lowering is a no-op: epochs are
// monotone). Future segments carry the new epoch; if the log is still
// completely empty — a fresh tree reconciling its initial epoch before the
// first append — the active segment's header is restamped in place so even
// the very first segment carries it.
func (w *WAL) SetEpoch(epoch uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed || epoch <= w.epoch {
		return
	}
	w.epoch = epoch
	if w.records == 0 && len(w.sealed) == 0 && len(w.buf) == 0 && w.flushed == walSegHeaderSize {
		if err := writeSegHeader(w.f, w.active.index, w.active.firstLSN, epoch); err == nil {
			// Best-effort durability: the epoch also lives in the tree meta,
			// which is what a crash before this fsync falls back to.
			_ = w.f.Sync()
			w.active.epoch = epoch
		}
	}
}

// BumpEpoch increments the fencing epoch and forces a rotation, so every
// record appended after it returns lives in a segment stamped with the new
// epoch — and the bump itself is durable (createSegment fsyncs the new
// header) before any post-bump record can be acknowledged. Promotion calls
// this exactly once per takeover.
func (w *WAL) BumpEpoch() (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, ErrWALClosed
	}
	w.epoch++
	if err := w.rotateLocked(); err != nil {
		w.epoch--
		return 0, err
	}
	return w.epoch, nil
}

// Records returns the number of records currently stored in the log.
func (w *WAL) Records() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.records
}

// ActiveSegment reports the active segment's path and the byte offset of
// its durable frontier (everything below it survived the last Sync). Crash
// tests chop copies of the file strictly beyond this offset to model torn
// in-flight appends without losing acknowledged records.
func (w *WAL) ActiveSegment() (path string, syncedBytes int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.active.path, w.active.synced
}

// Stats returns a snapshot of the log's activity counters.
func (w *WAL) Stats() WALStats {
	w.mu.Lock()
	segments := len(w.sealed) + 1
	records := w.records
	w.mu.Unlock()
	return WALStats{
		Appends:     w.appends.Load(),
		Syncs:       w.syncs.Load(),
		BytesStored: w.stored.Load(),
		Records:     records,
		Segments:    segments,
	}
}
