package repl

import (
	"fmt"
	"os"
	"sync/atomic"

	"github.com/dcindex/dctree/internal/storage"
)

// mirror is the follower's local copy of the primary's log: segment files
// with the same names, headers and frame bytes as the source, restricted
// to whole CRC-valid frames. Because the copy is byte-identical up to the
// shipped frontier, storage.OpenWAL adopts it directly at promotion, and a
// restarted follower replays it through the tree exactly like crash
// recovery replays a primary's log.
//
// Invariants:
//   - every segment but the last consists solely of whole valid frames;
//   - the last segment likewise (torn source bytes are never written);
//   - FirstLSN of each segment equals the LSN after the previous
//     segment's final record (continuity), so frame ordinals determine
//     every record's LSN without any per-frame LSN field.
type mirror struct {
	prefix string
	segs   []mirrorSeg
	f      *os.File // open handle on the final (writable) segment, nil when empty
	next   uint64   // LSN the next appended frame will carry; 0 when empty
	dirty  bool     // appended bytes not yet fsynced
	// synced is the highest LSN known durable in the mirror (fsynced);
	// atomic because Follower.Metrics reads it from other goroutines.
	synced atomic.Uint64
}

type mirrorSeg struct {
	index    uint64
	firstLSN uint64
	size     int64 // bytes on disk including the segment header
	epoch    uint64
}

// openMirror scans prefix for mirrored segments, validates the mirror
// invariants, truncates a torn tail on the final segment (a follower crash
// mid-append), and returns the mirror positioned to append.
func openMirror(prefix string) (*mirror, error) {
	m := &mirror{prefix: prefix}
	segs, err := storage.ListSegments(prefix)
	if err != nil {
		return nil, err
	}
	for i, s := range segs {
		data, err := os.ReadFile(s.Path)
		if err != nil {
			return nil, err
		}
		if len(data) < storage.SegmentHeaderSize {
			return nil, fmt.Errorf("%w: %s shorter than its header", ErrMirrorCorrupt, s.Path)
		}
		body := data[storage.SegmentHeaderSize:]
		frames, validLen, err := storage.ValidFramePrefix(body)
		if err != nil {
			return nil, fmt.Errorf("mirror segment %s: %w", s.Path, err)
		}
		last := i == len(segs)-1
		if int64(len(body)) > validLen {
			if !last {
				return nil, fmt.Errorf("%w: sealed segment %s has a torn tail", ErrMirrorCorrupt, s.Path)
			}
			if err := os.Truncate(s.Path, storage.SegmentHeaderSize+validLen); err != nil {
				return nil, err
			}
		}
		if i == 0 {
			m.next = s.FirstLSN
		} else if s.FirstLSN != m.next {
			return nil, fmt.Errorf("%w: segment %s first LSN %d, want %d", ErrMirrorCorrupt, s.Path, s.FirstLSN, m.next)
		}
		m.next += uint64(frames)
		m.segs = append(m.segs, mirrorSeg{
			index: s.Index, firstLSN: s.FirstLSN, size: storage.SegmentHeaderSize + validLen,
			epoch: s.Epoch,
		})
	}
	if n := len(m.segs); n > 0 {
		f, err := os.OpenFile(storage.SegmentPath(prefix, m.segs[n-1].index), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		m.f = f
	}
	if m.next > 0 {
		m.synced.Store(m.next - 1)
	}
	return m, nil
}

// empty reports whether the mirror holds no segments yet.
func (m *mirror) empty() bool { return len(m.segs) == 0 }

// nextLSN returns the LSN the next appended frame will carry (0 when the
// mirror is empty and unpositioned).
func (m *mirror) nextLSN() uint64 { return m.next }

// last returns the final (writable) segment.
func (m *mirror) last() mirrorSeg { return m.segs[len(m.segs)-1] }

// epoch returns the highest fencing epoch the mirror has durably copied —
// segment epochs are monotone within one log, so it is the final
// segment's. 0 on an empty mirror (nothing observed yet).
func (m *mirror) epoch() uint64 {
	if m.empty() {
		return 0
	}
	return m.last().epoch
}

// sizeOf returns the mirrored byte count of the segment with the given
// index, or false if the mirror does not hold it.
func (m *mirror) sizeOf(index uint64) (int64, bool) {
	for i := len(m.segs) - 1; i >= 0; i-- {
		if m.segs[i].index == index {
			return m.segs[i].size, true
		}
	}
	return 0, false
}

// beginSegment seals the current segment (fsync + close) and starts a new
// mirrored segment file with the given identity, reproducing the source's
// exact header bytes (fencing epoch included) so the mirror stays
// byte-identical to the source log. On a non-empty mirror the new
// segment's firstLSN must continue the sequence exactly.
func (m *mirror) beginSegment(hdr storage.SegmentHeader) error {
	if !m.empty() {
		if hdr.FirstLSN != m.next {
			return fmt.Errorf("%w: segment %d starts at lsn %d, mirror expects %d", ErrMirrorCorrupt, hdr.Index, hdr.FirstLSN, m.next)
		}
		if hdr.Index <= m.last().index {
			return fmt.Errorf("%w: segment index %d not above %d", ErrMirrorCorrupt, hdr.Index, m.last().index)
		}
		if err := m.sync(); err != nil {
			return err
		}
		if err := m.f.Close(); err != nil {
			return err
		}
		m.f = nil
	} else {
		m.next = hdr.FirstLSN
		if hdr.FirstLSN > 0 {
			m.synced.Store(hdr.FirstLSN - 1)
		}
	}
	path := storage.SegmentPath(m.prefix, hdr.Index)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	raw := storage.EncodeSegmentHeader(hdr)
	if _, err := f.Write(raw); err != nil {
		f.Close()
		return err
	}
	m.f = f
	m.dirty = true
	m.segs = append(m.segs, mirrorSeg{
		index: hdr.Index, firstLSN: hdr.FirstLSN, size: int64(len(raw)),
		epoch: hdr.Epoch,
	})
	return nil
}

// append writes a run of whole valid frames to the current segment and
// advances the LSN cursor by their count.
func (m *mirror) append(frames []byte, count int) error {
	if m.f == nil {
		return fmt.Errorf("%w: append with no open segment", ErrMirrorCorrupt)
	}
	if _, err := m.f.Write(frames); err != nil {
		return err
	}
	m.segs[len(m.segs)-1].size += int64(len(frames))
	m.next += uint64(count)
	m.dirty = true
	return nil
}

// sync fsyncs the current segment if it has unsynced appends and advances
// the durable mirror frontier.
func (m *mirror) sync() error {
	if !m.dirty || m.f == nil {
		return nil
	}
	if err := m.f.Sync(); err != nil {
		return err
	}
	m.dirty = false
	if m.next > 0 {
		m.synced.Store(m.next - 1)
	}
	return nil
}

// syncedLSN returns the highest LSN known durable in the mirror — the
// frontier a follower may acknowledge to the source. Safe to call from
// any goroutine.
func (m *mirror) syncedLSN() uint64 { return m.synced.Load() }

// prune removes leading sealed segments whose every record has LSN <=
// below — safe once a replica checkpoint at that LSN has been installed,
// because restart replay begins strictly past it. The final segment is
// always kept.
func (m *mirror) prune(below uint64) (int, error) {
	removed := 0
	for len(m.segs) > 1 && m.segs[1].firstLSN <= below+1 {
		if err := os.Remove(storage.SegmentPath(m.prefix, m.segs[0].index)); err != nil && !os.IsNotExist(err) {
			return removed, err
		}
		m.segs = m.segs[1:]
		removed++
	}
	return removed, nil
}

// replay streams every mirrored record through fn in LSN order — the
// restart path that re-applies the mirror past a replica checkpoint. Each
// record carries the fencing epoch of the segment that holds it; a mirror
// legitimately mixes epochs around a promotion point, and the applier's
// LSN idempotence check runs before its epoch check so replay can never
// false-fence.
func (m *mirror) replay(fn func(epoch, lsn uint64, payload []byte) error) error {
	lsn := uint64(0)
	for i, s := range m.segs {
		data, err := os.ReadFile(storage.SegmentPath(m.prefix, s.index))
		if err != nil {
			return err
		}
		if int64(len(data)) < s.size {
			return fmt.Errorf("%w: segment %d shrank", ErrMirrorCorrupt, s.index)
		}
		payloads, validLen, err := storage.DecodeFrames(data[storage.SegmentHeaderSize:s.size])
		if err != nil {
			return err
		}
		if validLen != s.size-storage.SegmentHeaderSize {
			return fmt.Errorf("%w: segment %d invalid frames", ErrMirrorCorrupt, s.index)
		}
		if i == 0 {
			lsn = s.firstLSN
		}
		for _, p := range payloads {
			if err := fn(s.epoch, lsn, p); err != nil {
				return err
			}
			lsn++
		}
	}
	return nil
}

// close fsyncs and releases the writable segment handle. The mirror files
// stay on disk — promotion reopens them as the new primary's WAL.
func (m *mirror) close() error {
	if m.f == nil {
		return nil
	}
	err := m.sync()
	if cerr := m.f.Close(); err == nil {
		err = cerr
	}
	m.f = nil
	return err
}
