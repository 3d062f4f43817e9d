package repl

import (
	"errors"
	"fmt"

	"github.com/dcindex/dctree/internal/storage"
)

// shipper runs the transport-agnostic tailing loop: poll the source's
// segment listing, copy newly visible whole frames into the mirror, and
// hand each record to the apply callback with its LSN. One shipper pass
// (runOnce) makes progress up to the source's current frontier; the
// follower drives passes on its poll interval, and the stress tests drive
// them in a tight loop against a log being rotated and truncated
// underneath.
type shipper struct {
	src   Source
	m     *mirror
	chunk int
	// floor is the first LSN the tree still needs (applied+1), consulted
	// only while the mirror is empty to pick the starting segment.
	floor uint64
	// epoch is the follower's fencing epoch: the highest epoch observed in
	// segments actually mirrored (seeded from the mirror and the replica
	// checkpoint at startup). A source whose newest segment falls below
	// it, or a stale-epoch segment offering new frames, is a deposed
	// primary and stops the pass with ErrFenced. Only the shipping
	// goroutine touches it.
	epoch uint64
	// apply receives each shipped record after its frames are in the
	// mirror, with the epoch of the segment it came from. May be nil
	// (mirror-only shipping).
	apply func(epoch, lsn uint64, payload []byte) error
}

// shipProgress summarizes one runOnce pass.
type shipProgress struct {
	frames   int   // records shipped and applied
	bytes    int64 // frame bytes appended to the mirror
	segments int   // new mirror segments begun
	resyncs  int   // ErrSegmentGone encounters (listing refresh needed)
	lagBytes int64 // source bytes beyond the mirror after the pass
	tip      uint64
}

// runOnce ships everything the source currently exposes. A segment
// vanishing mid-read (truncation on the primary) ends the pass early and
// counts a resync — the next pass starts from a fresh listing. ErrGap is
// permanent: the source no longer holds the records the mirror needs next.
func (sh *shipper) runOnce() (shipProgress, error) {
	var prog shipProgress
	segs, err := sh.src.Segments()
	if err != nil {
		return prog, err
	}
	if t, ok := sh.src.(Tipper); ok {
		prog.tip = t.TipLSN()
	}
	if len(segs) == 0 {
		return prog, nil
	}
	// Fencing: the source's current epoch is its newest segment's. A
	// source behind the follower's own epoch is a deposed primary — stop
	// before mirroring a byte. (Old-epoch segments BELOW the newest are
	// legitimate pre-promotion history and individually checked later.)
	if srcEpoch := segs[len(segs)-1].Epoch; srcEpoch < sh.epoch {
		return prog, fmt.Errorf("%w: source epoch %d below follower epoch %d", ErrFenced, srcEpoch, sh.epoch)
	}

	// Position: the index of the first source segment to ship from.
	start := 0
	if sh.m.empty() {
		// Pick the segment containing the first LSN the tree needs. A
		// floor of 0 (fresh bootstrap) needs LSN 1, held by the very
		// first segment the primary ever wrote.
		floor := sh.floor
		if floor == 0 {
			floor = 1
		}
		start = -1
		for i, s := range segs {
			if s.FirstLSN <= floor {
				start = i
			}
		}
		if start < 0 {
			return prog, fmt.Errorf("%w: need lsn %d, source starts at %d", ErrGap, floor, segs[0].FirstLSN)
		}
	} else {
		last := sh.m.last()
		start = -1
		for i, s := range segs {
			if s.Index == last.index {
				if s.FirstLSN != last.firstLSN {
					return prog, fmt.Errorf("%w: source segment %d first lsn %d, mirror has %d", ErrMirrorCorrupt, s.Index, s.FirstLSN, last.firstLSN)
				}
				start = i
				break
			}
			if s.Index > last.index {
				// The source truncated the mirror's active segment; it may
				// only do so once the follower acknowledged it in full, so
				// the next segment must continue exactly at the cursor.
				if s.FirstLSN > sh.m.nextLSN() {
					return prog, fmt.Errorf("%w: need lsn %d, source resumes at %d", ErrGap, sh.m.nextLSN(), s.FirstLSN)
				}
				start = i
				break
			}
		}
		if start < 0 {
			// Every listed segment is older than the mirror's active one —
			// a stale or foreign listing; nothing to ship.
			return prog, nil
		}
	}

	for _, seg := range segs[start:] {
		mirrored, have := sh.m.sizeOf(seg.Index)
		// Fencing: new frames from an epoch below the follower's are the
		// old timeline still being written by a deposed primary. Already
		// fully mirrored old-epoch segments are fine — that is history.
		if seg.Epoch < sh.epoch && (!have || seg.Size > mirrored) {
			return prog, fmt.Errorf("%w: segment %d epoch %d below follower epoch %d", ErrFenced, seg.Index, seg.Epoch, sh.epoch)
		}
		if !have {
			if err := sh.m.beginSegment(seg.HeaderFor()); err != nil {
				return prog, err
			}
			prog.segments++
			mirrored = storage.SegmentHeaderSize
		}
		if seg.Epoch > sh.epoch {
			sh.epoch = seg.Epoch // the new timeline is now in the mirror
		}
		off, err := sh.shipSegment(seg, mirrored, &prog)
		if err != nil {
			if errors.Is(err, storage.ErrSegmentGone) {
				// Truncated away under us; refresh next pass.
				prog.resyncs++
				return prog, nil
			}
			return prog, err
		}
		if seg.Sealed && off < seg.Size {
			// A sealed segment's frontier is all whole frames; stopping
			// short means the bytes on disk are damaged.
			return prog, fmt.Errorf("%w: sealed segment %d torn at %d/%d", storage.ErrWALCorrupt, seg.Index, off, seg.Size)
		}
		if off < seg.Size {
			break // torn tail on the active segment; wait for the rest
		}
	}

	// Residual lag: source bytes beyond what this pass mirrored.
	for _, seg := range segs[start:] {
		if mirrored, have := sh.m.sizeOf(seg.Index); have {
			if d := seg.Size - mirrored; d > 0 {
				prog.lagBytes += d
			}
		} else {
			prog.lagBytes += seg.Size - storage.SegmentHeaderSize
		}
	}
	return prog, nil
}

// shipSegment copies seg's bytes from offset off up to its listed
// frontier, appending whole frames to the mirror and applying each record.
// Returns the offset reached.
func (sh *shipper) shipSegment(seg storage.WALSegmentInfo, off int64, prog *shipProgress) (int64, error) {
	max := sh.chunk
	for off < seg.Size {
		if rem := seg.Size - off; int64(max) > rem {
			max = int(rem)
		}
		data, err := sh.src.ReadAt(seg, off, max)
		if err != nil {
			return off, err
		}
		payloads, validLen, err := storage.DecodeFrames(data)
		if err != nil {
			return off, err
		}
		if validLen == 0 {
			if len(data) == max && int64(max) < seg.Size-off {
				// Not a torn tail — a frame larger than the read window
				// starts here. Widen and retry.
				max *= 2
				continue
			}
			return off, nil // incomplete frame at the frontier
		}
		lsn := sh.m.nextLSN()
		if err := sh.m.append(data[:validLen], len(payloads)); err != nil {
			return off, err
		}
		if sh.apply != nil {
			for _, p := range payloads {
				if err := sh.apply(seg.Epoch, lsn, p); err != nil {
					return off, err
				}
				lsn++
			}
		}
		prog.frames += len(payloads)
		prog.bytes += validLen
		off += validLen
		max = sh.chunk
		// A chunk that ended inside a frame is re-read whole next
		// iteration from the new frame-aligned offset; an empty follow-up
		// read ends the loop via the validLen == 0 branch.
	}
	return off, nil
}
