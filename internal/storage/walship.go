package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
)

// Log shipping support: the segmented WAL doubles as a replication stream.
// A follower process tails the primary's segment files — sealed segments in
// full, the active segment up to its durable frontier — and replays the
// records into its own replica of the store. This file holds the pieces of
// that protocol that belong to the storage layer: safe enumeration of the
// segment set, reading segment bytes while the writer rotates and
// truncates, and the retention floor that keeps segments on disk until
// followers have shipped them.
//
// The log's own writer never changes a frame it has written: a segment file
// grows by zeros that frames then overwrite once, loses the zeros past its
// last frame when it is sealed, and is then removed, and its index is never
// used again. So a reader of another process's live log must expect zeros
// after the active segment's frames (ZeroPadding) and a segment that is no
// longer there (ErrSegmentGone). Every read still validates the
// fixed header against the expected (index, firstLSN, epoch) before and
// after reading the byte range — a cheap identity check that turns a file
// cut short or replaced by something outside the log (an operator's copy,
// a restore under the same name) into ErrSegmentGone instead of frames
// attributed to the wrong segment.

// WALSegmentInfo describes one segment of a write-ahead log as visible to
// a log-shipping reader.
type WALSegmentInfo struct {
	// Index is the segment's position in the log (monotone, never reused).
	Index uint64
	// Path is the segment file's location.
	Path string
	// FirstLSN is the LSN of the segment's first record.
	FirstLSN uint64
	// Epoch is the fencing epoch the segment was created under. A follower
	// rejects segments that would extend its mirror with frames from an
	// epoch below its own.
	Epoch uint64
	// Size is the number of readable bytes, including the header.
	// For a live WAL (WAL.Segments) this is the durable frontier — sealed
	// segments are durable in full, the active one up to its last fsync.
	// For a directory scan (ListSegments) it is the file size, which on the
	// final segment may end in a torn frame or in up to ZeroBlock bytes of
	// zeros, both of which readers must tolerate.
	Size int64
	// Sealed reports whether the segment will never be appended to again.
	Sealed bool
}

// LastLSN returns the LSN of the segment's final record given the first
// LSN of its successor (segments store only their own first LSN).
func (s WALSegmentInfo) LastLSN(nextFirstLSN uint64) uint64 { return nextFirstLSN - 1 }

// ErrSegmentGone reports a segment file that no longer holds the expected
// segment: it was truncated away between the reader learning about it and
// reading it. Followers resynchronize from a fresh Segments listing when
// they see it.
var ErrSegmentGone = errors.New("storage: wal segment gone")

// SegmentHeader is the parsed fixed header of a WAL segment file
// (SegmentHeaderSize bytes on disk; the first frame follows it).
type SegmentHeader struct {
	Index    uint64
	FirstLSN uint64
	// Epoch is the fencing epoch the segment was created under.
	Epoch uint64
}

// HeaderFor returns the parsed-header view of a listed segment — the
// `want` a reader passes to ReadSegmentRange so the double-check pins the
// exact segment identity (index, firstLSN, epoch) it read from the listing.
func (s WALSegmentInfo) HeaderFor() SegmentHeader {
	return SegmentHeader{Index: s.Index, FirstLSN: s.FirstLSN, Epoch: s.Epoch}
}

// Segments enumerates the log's current segments with their durable byte
// frontiers: every byte below a segment's Size survived an fsync, so a
// follower that ships only those bytes never replicates a record the
// primary could still lose. The listing is a consistent snapshot under the
// log's mutex; segments may be retired concurrently afterwards, which
// readers detect via ErrSegmentGone.
func (w *WAL) Segments() []WALSegmentInfo {
	w.mu.Lock()
	defer w.mu.Unlock()
	segs := make([]WALSegmentInfo, 0, len(w.sealed)+1)
	for _, s := range w.sealed {
		segs = append(segs, WALSegmentInfo{
			Index: s.index, Path: s.path, FirstLSN: s.firstLSN,
			Epoch: s.epoch, Size: s.synced, Sealed: true,
		})
	}
	segs = append(segs, WALSegmentInfo{
		Index: w.active.index, Path: w.active.path, FirstLSN: w.active.firstLSN,
		Epoch: w.active.epoch, Size: w.active.synced, Sealed: false,
	})
	return segs
}

// SetRetainLSN sets the log's replication retention floor: TruncateBefore
// keeps every record with LSN strictly greater than lsn on disk regardless
// of how far checkpoints have advanced, so a follower that has acknowledged
// shipping up to lsn can always resume. MaxUint64 (the initial value)
// disables the floor; 0 retains everything. Truncate (the full reset) is
// not affected.
func (w *WAL) SetRetainLSN(lsn uint64) {
	w.mu.Lock()
	w.retainLSN = lsn
	w.mu.Unlock()
}

// RetainLSN returns the current replication retention floor.
func (w *WAL) RetainLSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.retainLSN
}

// ListSegments lists the numeric segment files of a WAL prefix in index
// order by scanning the directory — the cross-process view a follower has
// of a primary's log when no shipping server mediates. Sizes are file
// sizes: the final (active) segment may end in bytes not yet durable on
// the primary, in a torn frame, or in the zeros written ahead of its frames;
// followers validate frames as they ship. Sealed segments end at their last
// frame.
// Segment files that vanish between listing and header read (a concurrent
// truncation) are skipped.
func ListSegments(prefix string) ([]WALSegmentInfo, error) {
	files, err := findSegments(prefix)
	if err != nil {
		return nil, err
	}
	segs := make([]WALSegmentInfo, 0, len(files))
	for _, f := range files {
		hdr, size, err := readHeaderAndSize(f.path)
		if err != nil {
			if errors.Is(err, ErrSegmentGone) {
				continue
			}
			return nil, err
		}
		if hdr.Index != f.index {
			// A file whose header names another segment is not part of
			// this log (indices are never reused, so the writer cannot
			// have produced it).
			continue
		}
		segs = append(segs, WALSegmentInfo{
			Index: hdr.Index, Path: f.path, FirstLSN: hdr.FirstLSN,
			Epoch: hdr.Epoch, Size: size,
		})
	}
	for i := range segs {
		segs[i].Sealed = i < len(segs)-1
	}
	return segs, nil
}

// readHeaderAndSize reads and validates a segment file's header and
// returns it with the current file size. A missing file or invalid header
// is ErrSegmentGone; a retired-format header is ErrUnsupportedFormat.
func readHeaderAndSize(path string) (SegmentHeader, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return SegmentHeader{}, 0, ErrSegmentGone
		}
		return SegmentHeader{}, 0, err
	}
	defer f.Close()
	hdr, err := readHeader(f)
	if err != nil {
		return SegmentHeader{}, 0, err
	}
	st, err := f.Stat()
	if err != nil {
		return SegmentHeader{}, 0, err
	}
	return hdr, st.Size(), nil
}

// readHeader reads and validates the fixed segment header from an open
// file. An absent or foreign header is ErrSegmentGone (the file is being
// created, or is not this log's), not corruption.
func readHeader(f *os.File) (SegmentHeader, error) {
	var buf [walSegHeaderSize]byte
	n, err := f.ReadAt(buf[:], 0)
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return SegmentHeader{}, err
	}
	var info segmentInfo
	if err := parseSegHeader(buf[:n], &info); err != nil {
		if errors.Is(err, ErrUnsupportedFormat) {
			return SegmentHeader{}, err
		}
		return SegmentHeader{}, ErrSegmentGone
	}
	return SegmentHeader{Index: info.index, FirstLSN: info.firstLSN, Epoch: info.epoch}, nil
}

// ReadSegmentHeader reads and validates the header of one segment file.
func ReadSegmentHeader(path string) (SegmentHeader, error) {
	hdr, _, err := readHeaderAndSize(path)
	return hdr, err
}

// ReadSegmentRange reads up to max raw bytes of the segment at path
// starting at byte offset off, on behalf of a log-shipping reader. The
// header is validated against want both before and after the range read.
// The log's writer never changes a segment's header or frames, so this is
// not a guard against the writer; it is the identity check that makes a
// file truncated or replaced from outside fail with ErrSegmentGone rather
// than return frames of a different segment. A short (or empty) result
// near the end of the file is normal for the active segment and not an
// error.
func ReadSegmentRange(path string, want SegmentHeader, off int64, max int) ([]byte, error) {
	if off < walSegHeaderSize || max <= 0 {
		return nil, fmt.Errorf("storage: bad segment range off=%d max=%d", off, max)
	}
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, ErrSegmentGone
		}
		return nil, err
	}
	defer f.Close()
	check := func() error {
		hdr, err := readHeader(f)
		if err != nil {
			return err
		}
		if hdr != want {
			return ErrSegmentGone
		}
		return nil
	}
	if err := check(); err != nil {
		return nil, err
	}
	buf := make([]byte, max)
	n, err := f.ReadAt(buf, off)
	if err != nil && err != io.EOF {
		return nil, err
	}
	if err := check(); err != nil {
		return nil, err
	}
	return buf[:n], nil
}

// EncodeSegmentHeader renders a segment header: the bytes the log writes
// at the start of every segment, and a follower at the start of a mirrored
// one so its mirror stays byte-identical to the source and reopens as a
// valid WAL.
func EncodeSegmentHeader(hdr SegmentHeader) []byte {
	buf := make([]byte, walSegHeaderSize)
	copy(buf, walMagic)
	binary.LittleEndian.PutUint64(buf[8:], hdr.Index)
	binary.LittleEndian.PutUint64(buf[16:], hdr.FirstLSN)
	binary.LittleEndian.PutUint64(buf[24:], hdr.Epoch)
	return buf
}

// SegmentHeaderSize is the length of the segment file header, which is
// also the offset of a segment's first frame.
const SegmentHeaderSize = walSegHeaderSize

// SegmentPath returns the file path of the segment with the given index
// under a WAL prefix — the naming a mirrored log must reproduce for
// OpenWAL to adopt it.
func SegmentPath(prefix string, index uint64) string { return walSegmentPath(prefix, index) }

// DecodeFrames parses the leading whole, CRC-valid frames of data (raw
// segment bytes with no header) and returns their payloads (slices of
// data) along with the byte length of the valid prefix. Bytes past validLen
// are the log's zero padding (ZeroPadding) or an incomplete or torn frame,
// which a follower keeps pending until the rest arrives. A whole frame in
// the retired compressed format is ErrUnsupportedFormat.
func DecodeFrames(data []byte) (payloads [][]byte, validLen int64, err error) {
	var off int64
	for {
		n, err := frameAt(data, off)
		if n == 0 {
			return payloads, off, err
		}
		payloads = append(payloads, data[off+walFrameOverhead:off+n])
		off += n
	}
}

// ZeroPadding reports whether rest — the bytes a reader holds after a
// segment's last whole frame — is the zeros the log writes ahead of its
// frames, so the segment's frames end where rest starts. It must be all
// zeros and either hold a whole length word (no frame's is zero) or, when
// atEnd, run to the end of the segment file. An empty rest is not padding.
func ZeroPadding(rest []byte, atEnd bool) bool {
	if len(rest) == 0 || (!atEnd && len(rest) < 4) {
		return false
	}
	for _, b := range rest {
		if b != 0 {
			return false
		}
	}
	return true
}

// ValidFramePrefix returns the frame count and byte length of the leading
// whole, CRC-valid frames of data (raw segment bytes with no header),
// without materializing payloads — the validation a follower runs before
// trusting mirrored bytes. A whole frame in the retired compressed format
// is ErrUnsupportedFormat, never a torn tail to cut off.
func ValidFramePrefix(data []byte) (frames int, validLen int64, err error) {
	var off int64
	for {
		n, err := frameAt(data, off)
		if n == 0 {
			return frames, off, err
		}
		frames++
		off += n
	}
}
