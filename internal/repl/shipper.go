package repl

import (
	"errors"
	"fmt"

	"github.com/dcindex/dctree/internal/storage"
)

// shipper runs the transport-agnostic tailing loop: poll the source's
// segment listing, append newly visible whole frames to the mirror — the
// follower's own WAL, extended with storage.WAL.AppendFrames — and hand
// each record to the apply callback with its LSN. One shipper pass
// (runOnce) makes progress up to the source's current frontier; the
// follower drives passes on its poll interval and on the source's
// notifications, and the stress tests drive them in a tight loop against a
// log being rotated and truncated underneath.
type shipper struct {
	src   Source
	m     *storage.WAL
	chunk int
	// floor is the first LSN the tree needed at startup (applied+1). It
	// lies past the mirror's records only when the mirror holds none of
	// the replica's history: a fresh mirror, or one beside a store copied
	// from a primary checkpoint.
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

	// Position: the source segment holding the first LSN the follower
	// needs. Segments only gain records at their end, so it is the last one
	// starting at or before that LSN.
	next := max(sh.floor, sh.m.LastLSN()+1)
	start := -1
	for i, s := range segs {
		if s.FirstLSN <= next {
			start = i
		}
	}
	if start < 0 {
		return prog, fmt.Errorf("%w: need lsn %d, source starts at %d", ErrGap, next, segs[0].FirstLSN)
	}

	tail, mirrored := sh.m.Tail()
	for i := start; i < len(segs); i++ {
		seg := &segs[i]
		hdr := seg.HeaderFor()
		if hdr != tail {
			mirrored = storage.SegmentHeaderSize
		}
		// Fencing: new frames from an epoch below the follower's are the
		// old timeline still being written by a deposed primary. Already
		// fully mirrored old-epoch segments are fine — that is history.
		if seg.Epoch < sh.epoch && (hdr != tail || seg.Size > mirrored) {
			return prog, fmt.Errorf("%w: segment %d epoch %d below follower epoch %d", ErrFenced, seg.Index, seg.Epoch, sh.epoch)
		}
		if hdr != tail {
			if _, err := sh.m.AppendFrames(hdr, nil, 0); err != nil {
				return prog, mirrorCorrupt(err)
			}
			prog.segments++
			tail = hdr
		}
		if seg.Epoch > sh.epoch {
			sh.epoch = seg.Epoch // the new timeline is now in the mirror
		}
		off, padded, err := sh.shipSegment(*seg, mirrored, &prog)
		if err != nil {
			if errors.Is(err, storage.ErrSegmentGone) {
				// Truncated away under us; refresh next pass.
				prog.resyncs++
				return prog, nil
			}
			return prog, err
		}
		if padded {
			// The listed size counted the zeros written ahead of the
			// frames; the segment's frames end here, and so does its lag.
			seg.Size = off
		}
		if off < seg.Size {
			if seg.Sealed {
				// A sealed segment's frontier is all whole frames; stopping
				// short means the bytes on disk are damaged.
				return prog, fmt.Errorf("%w: sealed segment %d torn at %d/%d", storage.ErrWALCorrupt, seg.Index, off, seg.Size)
			}
			// Torn tail on the active segment, the last listed: wait for
			// the rest, which is the pass's residual lag.
			prog.lagBytes = seg.Size - off
			break
		}
	}
	return prog, nil
}

// shipSegment copies seg's bytes from offset off up to its listed
// frontier, appending whole frames to the mirror and applying each record.
// Returns the offset reached, and whether the frames end there in the zeros
// the log writes ahead of them (a directory listing's size counts those).
func (sh *shipper) shipSegment(seg storage.WALSegmentInfo, off int64, prog *shipProgress) (int64, bool, error) {
	max := sh.chunk
	for off < seg.Size {
		if rem := seg.Size - off; int64(max) > rem {
			max = int(rem)
		}
		data, err := sh.src.ReadAt(seg, off, max)
		if err != nil {
			return off, false, err
		}
		payloads, validLen, err := storage.DecodeFrames(data)
		if err != nil {
			return off, false, err
		}
		if validLen > 0 {
			lsn, err := sh.m.AppendFrames(seg.HeaderFor(), data[:validLen], len(payloads))
			if err != nil {
				return off, false, mirrorCorrupt(err)
			}
			if sh.apply != nil {
				for _, p := range payloads {
					if err := sh.apply(seg.Epoch, lsn, p); err != nil {
						return off, false, err
					}
					lsn++
				}
			}
			prog.frames += len(payloads)
			prog.bytes += validLen
		}
		atEnd := len(data) < max || off+int64(len(data)) == seg.Size
		off += validLen
		if storage.ZeroPadding(data[validLen:], atEnd) {
			return off, true, nil
		}
		if validLen == 0 {
			if len(data) == max && int64(max) < seg.Size-off {
				// Not a torn tail — a frame larger than the read window
				// starts here. Widen and retry.
				max *= 2
				continue
			}
			return off, false, nil // incomplete frame at the frontier
		}
		max = sh.chunk
		// A chunk that ended inside a frame is re-read whole next
		// iteration from the new frame-aligned offset; an empty follow-up
		// read ends the loop via the validLen == 0 branch.
	}
	return off, false, nil
}
