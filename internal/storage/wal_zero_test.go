package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// fileSize returns the size of the file at path.
func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

// requireFramesOnly checks that every segment file of prefix ends at its
// last frame: the body is whole valid frames and nothing else.
func requireFramesOnly(t *testing.T, prefix string) {
	t.Helper()
	segs, err := findSegments(prefix)
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v (%v)", segs, err)
	}
	for _, s := range segs {
		data, err := os.ReadFile(s.path)
		if err != nil {
			t.Fatal(err)
		}
		if _, valid, err := DecodeFrames(data[walSegHeaderSize:]); err != nil || walSegHeaderSize+valid != int64(len(data)) {
			t.Fatalf("segment %d: %d bytes, frames end at %d (%v)", s.index, len(data), walSegHeaderSize+valid, err)
		}
	}
}

// copyLogFiles copies every segment file of src, as it is on disk right
// now, to dst: the image a crash at this instant could leave, zeros
// written ahead of the frames included.
func copyLogFiles(t *testing.T, src, dst string) {
	t.Helper()
	segs, err := findSegments(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range segs {
		data, err := os.ReadFile(s.path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(walSegmentPath(dst, s.index), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWALSyncDoesNotGrowFile pins the mechanism by counts: a commit's
// write lands on zeros the file already holds, so across 200 single-record
// commits the file's size changes once per ZeroBlock of log, not once per
// commit — and each change is to a whole number of blocks.
func TestWALSyncDoesNotGrowFile(t *testing.T) {
	w := openTestWAL(t, filepath.Join(t.TempDir(), "idx"), WALOptions{})
	defer w.Close()
	path, _ := w.ActiveSegment()
	size, changes := fileSize(t, path), 0
	for i := 0; i < 200; i++ {
		if _, err := w.Append([]byte(fmt.Sprintf("commit-%03d-of-a-40-byte-record-payload", i))); err != nil {
			t.Fatal(err)
		}
		if _, err := w.Sync(); err != nil {
			t.Fatal(err)
		}
		if now := fileSize(t, path); now != size {
			if now%ZeroBlock != 0 {
				t.Fatalf("commit %d: file grew to %d, not a multiple of %d", i, now, ZeroBlock)
			}
			size, changes = now, changes+1
		}
	}
	_, end := w.ActiveSegment()
	if limit := int((end + ZeroBlock - 1) / ZeroBlock); changes == 0 || changes > limit {
		t.Fatalf("file size changed %d times over %d bytes of log, want 1..%d", changes, end, limit)
	}
	if size < end || size-end >= ZeroBlock {
		t.Fatalf("file %d bytes, frames end at %d: want under one block of zeros ahead", size, end)
	}
}

// TestWALSealedSegmentsEndAtLastFrame: a segment is trimmed to its last
// frame before it stops being the active one — by rotation, BumpEpoch or
// Close — so sealed and cleanly closed segments hold only frames, and
// their listed sizes are exact.
func TestWALSealedSegmentsEndAtLastFrame(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "idx")
	w := openTestWAL(t, prefix, WALOptions{SegmentBytes: 1 << 10})
	for len(w.sealed) < 3 {
		if _, err := w.Append([]byte(fmt.Sprintf("record-%04d", w.nextLSN))); err != nil {
			t.Fatal(err)
		}
		if _, err := w.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.BumpEpoch(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append([]byte("after-the-bump")); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	listed, err := ListSegments(prefix)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range w.Segments() {
		if !s.Sealed {
			if listed[i].Size <= s.Size {
				t.Fatalf("active segment lists %d bytes, frontier %d: want zeros ahead", listed[i].Size, s.Size)
			}
			continue
		}
		if got := fileSize(t, s.Path); got != s.Size || listed[i].Size != s.Size {
			t.Fatalf("sealed segment %d: file %d, listed %d, frontier %d", s.Index, got, listed[i].Size, s.Size)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	requireFramesOnly(t, prefix)
}

// TestWALZeroTailReopens copies a live log's files mid-stream — the active
// segment ending in the zeros written ahead of its frames — and reopens the
// copy: it holds the synced prefix, cut back to its last frame, and appends
// continue at the next LSN. A torn frame over the zeros is cut the same way;
// zeros on a non-final segment (a crash that kept a segment and lost its
// trim) reopen cleanly, but anything else there is still corruption.
func TestWALZeroTailReopens(t *testing.T) {
	// live returns a log with n synced records in one segment.
	live := func(t *testing.T, prefix string, n int) *WAL {
		w := openTestWAL(t, prefix, WALOptions{})
		for i := 0; i < n; i++ {
			if _, err := w.Append([]byte(fmt.Sprintf("synced-%02d", i))); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := w.Sync(); err != nil {
			t.Fatal(err)
		}
		return w
	}
	// reopen opens the image and checks it holds want records, contiguous
	// from 1, ends at its last frame, and takes the next append.
	reopen := func(t *testing.T, prefix string, want int) {
		t.Helper()
		w := openTestWAL(t, prefix, WALOptions{})
		_, order := collect(t, w)
		if len(order) != want || (want > 0 && order[want-1] != uint64(want)) {
			t.Fatalf("reopened image replays %v, want lsns 1..%d", order, want)
		}
		if lsn, err := w.Append([]byte("continues")); err != nil || lsn != uint64(want)+1 {
			t.Fatalf("append on image: lsn %d, %v", lsn, err)
		}
		if _, err := w.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		requireFramesOnly(t, prefix)
	}

	t.Run("zero tail", func(t *testing.T) {
		dir := t.TempDir()
		w := live(t, filepath.Join(dir, "idx"), 7)
		defer w.Close()
		copyLogFiles(t, filepath.Join(dir, "idx"), filepath.Join(dir, "img"))
		reopen(t, filepath.Join(dir, "img"), 7)
	})
	t.Run("torn frame then zeros", func(t *testing.T) {
		dir := t.TempDir()
		w := live(t, filepath.Join(dir, "idx"), 7)
		defer w.Close()
		_, frontier := w.ActiveSegment()
		img := filepath.Join(dir, "img")
		copyLogFiles(t, filepath.Join(dir, "idx"), img)
		f, err := os.OpenFile(walSegmentPath(img, 1), os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		// The in-flight commit's frame, half on disk over the zeros.
		if _, err := f.WriteAt([]byte{0x13, 0x00, 0x00, 0x00, 0xde, 0xad, 0xbe}, frontier); err != nil {
			t.Fatal(err)
		}
		f.Close()
		reopen(t, img, 7)
	})
	// nonFinal builds an image whose first segment is a copy of the active
	// segment taken before the log moved on (so it ends in zeros, or in
	// tail when given), followed by the segment the log moved on to.
	nonFinal := func(t *testing.T, tail []byte) string {
		dir := t.TempDir()
		prefix := filepath.Join(dir, "idx")
		w := live(t, prefix, 5)
		defer w.Close()
		path, frontier := w.ActiveSegment()
		first, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		copy(first[frontier:], tail)
		if err := w.Truncate(); err != nil {
			t.Fatal(err)
		}
		img := filepath.Join(dir, "img")
		copyLogFiles(t, prefix, img)
		if err := os.WriteFile(walSegmentPath(img, 1), first, 0o644); err != nil {
			t.Fatal(err)
		}
		return img
	}
	t.Run("zeros on a non-final segment", func(t *testing.T) {
		reopen(t, nonFinal(t, nil), 5)
	})
	t.Run("garbage on a non-final segment is corrupt", func(t *testing.T) {
		img := nonFinal(t, []byte{0x13, 0x00, 0x00, 0x00, 0xde, 0xad})
		before, err := os.ReadFile(walSegmentPath(img, 1))
		if err != nil {
			t.Fatal(err)
		}
		if w, err := OpenWAL(img, WALOptions{}); !errors.Is(err, ErrWALCorrupt) {
			if err == nil {
				w.Close()
			}
			t.Fatalf("OpenWAL: %v, want ErrWALCorrupt", err)
		}
		if after, _ := os.ReadFile(walSegmentPath(img, 1)); !bytes.Equal(after, before) {
			t.Fatal("a refused open changed the segment")
		}
	})
}

// FuzzScanSegment: the two frame readers — OpenWAL's scan and the
// shipper's DecodeFrames — agree on where a segment body's valid frames
// end, and zeros after them never move that end: a zero length word is no
// frame. Only zeros after the valid frames pass the scan of a non-final
// segment.
func FuzzScanSegment(f *testing.F) {
	frame := func(payload string) []byte {
		b := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
		b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE([]byte(payload)))
		return append(b, payload...)
	}
	two := append(frame("first record"), frame("second")...)
	f.Add([]byte{}, uint16(0))
	f.Add(two, uint16(0))
	f.Add(two, uint16(4000))
	f.Add(append(two, 0x13, 0, 0, 0, 0xde, 0xad), uint16(100))
	f.Add(two[:len(two)-3], uint16(3))
	f.Add(append(two, compressedFrame([]byte("retired"))...), uint16(8))
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, body []byte, pad uint16) {
		path := filepath.Join(dir, "seg.wal")
		scan := func(img []byte, tolerateTail bool) (segmentInfo, error) {
			if err := os.WriteFile(path, img, 0o644); err != nil {
				t.Fatal(err)
			}
			return scanSegment(path, tolerateTail)
		}
		header := encodeSegmentHeader(SegmentHeader{Index: 1, FirstLSN: 1, Epoch: 1})
		padded := append(append([]byte(nil), body...), make([]byte, pad)...)

		info, scanErr := scan(append(header, padded...), true)
		payloads, valid, decodeErr := DecodeFrames(padded)
		if (scanErr == nil) != (decodeErr == nil) {
			t.Fatalf("errors disagree: scan %v, decode %v", scanErr, decodeErr)
		}
		if scanErr != nil {
			if !errors.Is(scanErr, ErrUnsupportedFormat) {
				t.Fatalf("scan of a valid header: %v", scanErr)
			}
			return
		}
		if info.validSize-walSegHeaderSize != valid || info.records != int64(len(payloads)) {
			t.Fatalf("scan %d bytes / %d records, decode %d / %d",
				info.validSize-walSegHeaderSize, info.records, valid, len(payloads))
		}

		// Zeros after the valid frames: same end, and a clean non-final
		// segment once cut there.
		_, bodyValid, _ := DecodeFrames(body)
		if valid < bodyValid {
			t.Fatalf("padding shortened the valid prefix: %d < %d", valid, bodyValid)
		}
		zeroTail := append(append([]byte(nil), padded[:valid]...), make([]byte, pad)...)
		if _, v, err := DecodeFrames(zeroTail); err != nil || v != valid {
			t.Fatalf("zeros after %d valid bytes moved the end to %d (%v)", valid, v, err)
		}
		if info, err := scan(append(header, zeroTail...), false); err != nil || info.validSize-walSegHeaderSize != valid {
			t.Fatalf("non-final scan of frames then zeros: %d, %v", info.validSize-walSegHeaderSize, err)
		}
		if pad > 0 && !ZeroPadding(zeroTail[valid:], true) {
			t.Fatal("zeros after the frames are not padding")
		}
	})
}
