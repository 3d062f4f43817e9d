package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

func TestWALSegmentsFrontier(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "idx")
	w := openTestWAL(t, prefix, WALOptions{SegmentBytes: 512})
	defer w.Close()

	if _, err := w.Append([]byte("one")); err != nil {
		t.Fatal(err)
	}
	segs := w.Segments()
	if len(segs) != 1 || segs[0].Sealed {
		t.Fatalf("fresh log segments = %+v", segs)
	}
	// Unsynced appends must be invisible to shippers: the frontier stays
	// at the header until a Sync covers the record.
	if segs[0].Size != SegmentHeaderSize {
		t.Fatalf("unsynced frontier = %d, want %d", segs[0].Size, SegmentHeaderSize)
	}
	if _, err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if segs = w.Segments(); segs[0].Size <= SegmentHeaderSize {
		t.Fatalf("synced frontier = %d", segs[0].Size)
	}

	last := fillSegments(t, w, 2)
	segs = w.Segments()
	if len(segs) < 3 {
		t.Fatalf("want >=2 sealed segments, got %+v", segs)
	}
	var lsn uint64 = 1
	for i, s := range segs {
		if s.FirstLSN != lsn {
			t.Fatalf("segment %d first lsn %d, want %d", i, s.FirstLSN, lsn)
		}
		sealed := i < len(segs)-1
		if s.Sealed != sealed {
			t.Fatalf("segment %d sealed=%v", i, s.Sealed)
		}
		if sealed {
			st, err := os.Stat(s.Path)
			if err != nil {
				t.Fatal(err)
			}
			if s.Size != st.Size() {
				t.Fatalf("sealed segment %d frontier %d != file size %d", i, s.Size, st.Size())
			}
			next := segs[i+1].FirstLSN
			lsn = s.LastLSN(next) + 1
		}
	}
	if last == 0 {
		t.Fatal("no records appended")
	}

	// The directory scan sees the same set (sizes may exceed the durable
	// frontier on the active segment; never on sealed ones).
	listed, err := ListSegments(prefix)
	if err != nil {
		t.Fatal(err)
	}
	if len(listed) != len(segs) {
		t.Fatalf("ListSegments = %d entries, Segments = %d", len(listed), len(segs))
	}
	for i := range segs {
		if listed[i].Index != segs[i].Index || listed[i].FirstLSN != segs[i].FirstLSN {
			t.Fatalf("listing mismatch at %d: %+v vs %+v", i, listed[i], segs[i])
		}
	}
}

func TestWALRetainSegments(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "idx")
	w := openTestWAL(t, prefix, WALOptions{SegmentBytes: 512, RetainSegments: 2})
	defer w.Close()
	last := fillSegments(t, w, 4)

	if err := w.TruncateBefore(last); err != nil {
		t.Fatalf("TruncateBefore: %v", err)
	}
	segs := w.Segments()
	sealed := len(segs) - 1
	if sealed < 2 {
		t.Fatalf("retention violated: %d sealed segments left, want >=2", sealed)
	}
	// Everything the cushion keeps must still replay.
	_, order := collect(t, w)
	if len(order) == 0 || order[0] != segs[0].FirstLSN {
		t.Fatalf("replay starts at %v, want %d", order, segs[0].FirstLSN)
	}
}

func TestWALRetainLSNFloor(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "idx")
	w := openTestWAL(t, prefix, WALOptions{SegmentBytes: 512})
	defer w.Close()
	last := fillSegments(t, w, 3)

	segs := w.Segments()
	floor := segs[1].FirstLSN // keep records beyond the first segment
	w.SetRetainLSN(floor)
	if err := w.TruncateBefore(last); err != nil {
		t.Fatalf("TruncateBefore: %v", err)
	}
	_, order := collect(t, w)
	if len(order) == 0 || order[0] > floor+1 {
		t.Fatalf("floor violated: replay starts at %v, floor %d", order[:min(3, len(order))], floor)
	}
	for _, s := range w.Segments()[:len(w.Segments())-1] {
		if _, err := os.Stat(s.Path); err != nil {
			t.Fatalf("retained segment missing: %v", err)
		}
	}

	// Lifting the floor lets the next truncation advance fully.
	w.SetRetainLSN(^uint64(0))
	if err := w.TruncateBefore(last); err != nil {
		t.Fatalf("TruncateBefore after lift: %v", err)
	}
	if n := w.Records(); n != 0 {
		t.Fatalf("records after full truncate = %d", n)
	}
}

func TestReadSegmentRangeHeaderGuard(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "idx")
	w := openTestWAL(t, prefix, WALOptions{SegmentBytes: 1 << 20})
	defer w.Close()
	for i := 0; i < 5; i++ {
		if _, err := w.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	seg := w.Segments()[0]
	want := seg.HeaderFor()

	data, err := ReadSegmentRange(seg.Path, want, SegmentHeaderSize, int(seg.Size))
	if err != nil {
		t.Fatalf("ReadSegmentRange: %v", err)
	}
	payloads, valid, err := DecodeFrames(data)
	if err != nil || len(payloads) != 5 || valid != seg.Size-SegmentHeaderSize || string(payloads[3]) != "rec-3" {
		t.Fatalf("DecodeFrames = %d payloads, valid=%d size=%d, %v", len(payloads), valid, seg.Size, err)
	}

	// A header that no longer matches — the file was replaced by something
	// that is not this segment — must fail the read instead of returning
	// frames.
	if _, err := ReadSegmentRange(seg.Path, SegmentHeader{Index: seg.Index + 7, FirstLSN: 1}, SegmentHeaderSize, 64); !errors.Is(err, ErrSegmentGone) {
		t.Fatalf("mismatched header: err = %v, want ErrSegmentGone", err)
	}
	if _, err := ReadSegmentRange(seg.Path+".nope", want, SegmentHeaderSize, 64); !errors.Is(err, ErrSegmentGone) {
		t.Fatalf("missing file: err = %v, want ErrSegmentGone", err)
	}
}

func TestDecodeFramesTornTail(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "idx")
	w := openTestWAL(t, prefix, WALOptions{SegmentBytes: 1 << 20})
	defer w.Close()
	for i := 0; i < 3; i++ {
		if _, err := w.Append([]byte(fmt.Sprintf("torn-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	seg := w.Segments()[0]
	raw, err := os.ReadFile(seg.Path)
	if err != nil {
		t.Fatal(err)
	}
	// The file runs on past the frontier in the zeros written ahead of the
	// frames; they decode to nothing.
	if int64(len(raw)) <= seg.Size || !ZeroPadding(raw[seg.Size:], true) {
		t.Fatalf("file %d bytes, frontier %d: want zeros past the frames", len(raw), seg.Size)
	}
	payloads, valid, err := DecodeFrames(raw[SegmentHeaderSize:])
	if err != nil || len(payloads) != 3 || valid != seg.Size-SegmentHeaderSize {
		t.Fatalf("padded decode: %d payloads, valid %d, %v", len(payloads), valid, err)
	}
	data := raw[SegmentHeaderSize:seg.Size]

	// Chop mid-frame: the valid prefix shrinks by exactly one frame and
	// the torn bytes stay pending, never decoded — with or without the
	// zeros after them.
	for _, torn := range [][]byte{data[:len(data)-3], append(data[:len(data)-3:len(data)-3], make([]byte, 64)...)} {
		payloads, valid, err := DecodeFrames(torn)
		if err != nil || len(payloads) != 2 {
			t.Fatalf("torn decode: %d payloads, %v", len(payloads), err)
		}
		if valid >= int64(len(data)) {
			t.Fatalf("valid=%d beyond torn prefix", valid)
		}
	}
}

// TestWALAppendFrames: shipped frames enter a log through AppendFrames. A
// fresh log's frameless segment takes the first shipped header, here one
// starting mid-stream; frames extend the segment their header names; the
// next segment seals the active one at its last frame; a header that does
// not continue the log is ErrWALCorrupt. The log reopens and replays every
// record with its segment's epoch.
func TestWALAppendFrames(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "idx")
	w := openTestWAL(t, prefix, WALOptions{})
	frames := func(lsns ...uint64) []byte {
		var b []byte
		for _, lsn := range lsns {
			p := []byte(fmt.Sprintf("rec-%d", lsn))
			b = binary.LittleEndian.AppendUint32(b, uint32(len(p)))
			b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(p))
			b = append(b, p...)
		}
		return b
	}
	seg7 := SegmentHeader{Index: 7, FirstLSN: 40, Epoch: 2}
	if lsn, err := w.AppendFrames(seg7, frames(40), 1); err != nil || lsn != 40 {
		t.Fatalf("first shipped frame: lsn %d, %v", lsn, err)
	}
	if lsn, err := w.AppendFrames(seg7, frames(41), 1); err != nil || lsn != 41 {
		t.Fatalf("second shipped frame: lsn %d, %v", lsn, err)
	}
	if _, err := os.Stat(walSegmentPath(prefix, 1)); !os.IsNotExist(err) {
		t.Fatalf("the fresh log's own segment is still there: %v", err)
	}
	for _, bad := range []SegmentHeader{
		{Index: 8, FirstLSN: 43, Epoch: 2}, // skips lsn 42
		{Index: 7, FirstLSN: 42, Epoch: 2}, // reuses the active index
		{Index: 8, FirstLSN: 42, Epoch: 1}, // an older epoch
	} {
		if _, err := w.AppendFrames(bad, frames(42), 1); !errors.Is(err, ErrWALCorrupt) {
			t.Fatalf("AppendFrames(%+v) err = %v, want ErrWALCorrupt", bad, err)
		}
	}
	seg8 := SegmentHeader{Index: 8, FirstLSN: 42, Epoch: 3}
	if _, err := w.AppendFrames(seg8, frames(42), 1); err != nil {
		t.Fatal(err)
	}
	if got, want := fileSize(t, walSegmentPath(prefix, 7)), int64(SegmentHeaderSize+len(frames(40, 41))); got != want {
		t.Fatalf("sealed segment is %d bytes, frames end at %d", got, want)
	}
	if hdr, _ := w.Tail(); hdr != seg8 || w.Epoch() != 3 {
		t.Fatalf("tail %+v, epoch %d: want %+v, 3", hdr, w.Epoch(), seg8)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w = openTestWAL(t, prefix, WALOptions{})
	defer w.Close()
	var got []string
	if err := w.Replay(func(epoch, lsn uint64, payload []byte) error {
		got = append(got, fmt.Sprintf("%d/%d/%s", epoch, lsn, payload))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if want := "[2/40/rec-40 2/41/rec-41 3/42/rec-42]"; fmt.Sprint(got) != want {
		t.Fatalf("replayed %v, want %s", got, want)
	}
}
