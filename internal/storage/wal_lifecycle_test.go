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

// fillSegments appends enough records to leave the log with at least n
// sealed segments, then syncs.
func fillSegments(t *testing.T, w *WAL, n int) uint64 {
	t.Helper()
	var last uint64
	for len(w.sealed) < n {
		lsn, err := w.Append([]byte(fmt.Sprintf("payload-%d", w.nextLSN)))
		if err != nil {
			t.Fatalf("Append: %v", err)
		}
		last = lsn
	}
	if _, err := w.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	return last
}

func recycleFiles(t *testing.T, prefix string) []string {
	t.Helper()
	matches, err := filepath.Glob(prefix + ".recycle*.wal")
	if err != nil {
		t.Fatal(err)
	}
	return matches
}

// TestWALRecycleDisabled pins the one segment lifecycle: a retired segment
// is removed, never renamed aside for reuse, so no pool file ever appears.
func TestWALRecycleDisabled(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "idx")
	w := openTestWAL(t, prefix, WALOptions{SegmentBytes: 128})
	defer w.Close()
	fillSegments(t, w, 3)
	retired := []string{w.sealed[0].path, w.sealed[1].path}
	if err := w.TruncateBefore(w.sealed[2].firstLSN - 1); err != nil {
		t.Fatalf("TruncateBefore: %v", err)
	}
	fillSegments(t, w, 2) // rotate past the truncation
	retired = append(retired, w.sealed[0].path, w.active.path)
	if err := w.Truncate(); err != nil {
		t.Fatalf("Truncate: %v", err)
	}
	for _, p := range retired {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("retired segment %s still on disk (err %v)", p, err)
		}
	}
	if pool := recycleFiles(t, prefix); len(pool) != 0 {
		t.Fatalf("pool files exist: %v", pool)
	}
	if segs, _ := findSegments(prefix); len(segs) != 1 {
		t.Fatalf("segments after full truncate: %v", segs)
	}
	if got := w.Stats().Recycled; got != 0 {
		t.Fatalf("Recycled = %d, want 0", got)
	}
}

// TestWALLeftoverPoolFilesRemoved: an older build kept retired segments as
// <prefix>.recycle<seq>.wal for reuse. They hold no log records; OpenWAL
// removes them and the log beside them is untouched.
func TestWALLeftoverPoolFilesRemoved(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "idx")
	w := openTestWAL(t, prefix, WALOptions{SegmentBytes: 128})
	fillSegments(t, w, 2)
	want := w.Records()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// What the older build left: a truncated-to-header pool file, and one
	// whose rewrite a crash interrupted (a live-looking header for the next
	// index, stale frames behind it).
	seg, err := os.ReadFile(walSegmentPath(prefix, 1))
	if err != nil {
		t.Fatal(err)
	}
	half := append(EncodeSegmentHeader(SegmentHeader{Index: 99, FirstLSN: 999}), seg[walSegHeaderSize:]...)
	for name, body := range map[string][]byte{
		prefix + ".recycle000001.wal": seg[:walSegHeaderSize],
		prefix + ".recycle000007.wal": half,
	} {
		if err := os.WriteFile(name, body, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	w = openTestWAL(t, prefix, WALOptions{SegmentBytes: 128})
	defer w.Close()
	if pool := recycleFiles(t, prefix); len(pool) != 0 {
		t.Fatalf("leftover pool files survive OpenWAL: %v", pool)
	}
	if got := w.Records(); got != want {
		t.Fatalf("records = %d, want %d", got, want)
	}
	_, order := collect(t, w)
	if int64(len(order)) != want || order[0] != 1 {
		t.Fatalf("replayed %d records from lsn %d, want %d from 1", len(order), order[0], want)
	}
	for i := 1; i < len(order); i++ {
		if order[i] != order[i-1]+1 {
			t.Fatalf("non-contiguous LSNs: %v", order)
		}
	}
	if lsn, err := w.Append([]byte("after")); err != nil || lsn != uint64(want)+1 {
		t.Fatalf("append after reopen: lsn %d, %v", lsn, err)
	}
}

func TestWALTruncateBeforePartialFailureIdempotent(t *testing.T) {
	// Inject a removal failure by swapping a sealed segment file for a
	// non-empty directory (os.Remove fails with ENOTEMPTY). The truncation
	// must keep its accounting consistent with disk, and a retry after the
	// obstacle clears must finish the job — including tolerating segments
	// that already disappeared.
	prefix := filepath.Join(t.TempDir(), "idx")
	w := openTestWAL(t, prefix, WALOptions{SegmentBytes: 128})
	defer w.Close()
	last := fillSegments(t, w, 3)
	_ = last
	if len(w.sealed) < 3 {
		t.Fatalf("want ≥3 sealed segments, have %d", len(w.sealed))
	}
	cutLSN := w.sealed[2].firstLSN - 1 // retire sealed[0] and sealed[1]
	victim := w.sealed[1]

	// Replace sealed[1] with a non-empty directory.
	if w.sealed[1].f != nil {
		w.sealed[1].f.Close()
		w.sealed[1].f = nil
	}
	if err := os.Remove(victim.path); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(victim.path, "block"), 0o755); err != nil {
		t.Fatal(err)
	}

	recordsBefore := w.Records()
	err := w.TruncateBefore(cutLSN)
	if err == nil {
		t.Fatal("TruncateBefore succeeded despite blocked removal")
	}
	// sealed[0] was retired and accounted; the victim and everything after
	// it must still be tracked.
	removed := int64(victim.firstLSN - 1) // LSNs of sealed[0] (log starts at 1)
	if got := w.Records(); got != recordsBefore-removed {
		t.Fatalf("records after partial failure = %d, want %d", got, recordsBefore-removed)
	}
	if len(w.sealed) == 0 || w.sealed[0].path != victim.path {
		t.Fatalf("failed segment no longer tracked: %v", w.sealed)
	}

	// Clear the obstacle; the retry must complete, treating the
	// already-removed sealed[0] position as done (it re-walks only the
	// retained suffix) and the now-missing files as success.
	if err := os.RemoveAll(victim.path); err != nil {
		t.Fatal(err)
	}
	if err := w.TruncateBefore(cutLSN); err != nil {
		t.Fatalf("retry TruncateBefore: %v", err)
	}
	// All records below cutLSN in retired segments are gone; replay must
	// start at sealed[2]'s first LSN.
	_, order := collect(t, w)
	if len(order) == 0 || order[0] != cutLSN+1 {
		t.Fatalf("replay after retry starts at %v, want %d", order, cutLSN+1)
	}
	// A second retry is a no-op.
	if err := w.TruncateBefore(cutLSN); err != nil {
		t.Fatalf("idempotent retry: %v", err)
	}
}

// compressedFrame hand-builds a frame the way an older build wrote it with
// WALOptions.Compress on: bit 31 of the length word set, CRC over the
// stored bytes. What the stored bytes decompress to is irrelevant here —
// this build refuses the frame without looking inside.
func compressedFrame(stored []byte) []byte {
	frame := make([]byte, walFrameOverhead, walFrameOverhead+len(stored))
	binary.LittleEndian.PutUint32(frame, uint32(len(stored))|1<<31)
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(stored))
	return append(frame, stored...)
}

// TestWALCompressedFrameRefused is the guard against silently truncating a
// valid log: a whole, CRC-valid frame in the retired compressed format is
// ErrUnsupportedFormat from every frame reader, wherever it sits, and the
// file keeps every byte. (Read as a plain length, the flagged word exceeds
// the record limit, which is what a torn tail looks like — OpenWAL would
// cut the frame off.)
func TestWALCompressedFrameRefused(t *testing.T) {
	frame := compressedFrame([]byte("stored bytes of a compressed record"))

	// refusedUnchanged runs open against the image at path and checks the
	// error and that the file is byte-identical afterwards.
	refusedUnchanged := func(t *testing.T, path string, image []byte, open func() error) {
		t.Helper()
		if err := os.WriteFile(path, image, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := open(); !errors.Is(err, ErrUnsupportedFormat) {
			t.Fatalf("err = %v, want ErrUnsupportedFormat", err)
		}
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(after, image) {
			t.Fatalf("file changed: %d bytes -> %d bytes", len(image), len(after))
		}
	}
	// writtenLog returns the segment images of a closed log with two sealed
	// segments and a non-empty active one.
	writtenLog := func(t *testing.T, prefix string) (paths []string, images [][]byte) {
		t.Helper()
		w := openTestWAL(t, prefix, WALOptions{SegmentBytes: 128})
		fillSegments(t, w, 2)
		if _, err := w.Append([]byte("tail-record")); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		segs, err := findSegments(prefix)
		if err != nil || len(segs) != 3 {
			t.Fatalf("segments: %v (%v)", segs, err)
		}
		for _, s := range segs {
			img, err := os.ReadFile(s.path)
			if err != nil {
				t.Fatal(err)
			}
			paths, images = append(paths, s.path), append(images, img)
		}
		return paths, images
	}
	openWAL := func(prefix string) func() error {
		return func() error {
			w, err := OpenWAL(prefix, WALOptions{SegmentBytes: 128})
			if err == nil {
				w.Close()
			}
			return err
		}
	}

	t.Run("OpenWAL: only frame", func(t *testing.T) {
		prefix := filepath.Join(t.TempDir(), "idx")
		image := append(EncodeSegmentHeader(SegmentHeader{Index: 1, FirstLSN: 1, Epoch: 1}), frame...)
		refusedUnchanged(t, walSegmentPath(prefix, 1), image, openWAL(prefix))
	})
	t.Run("OpenWAL: tail of the final segment", func(t *testing.T) {
		prefix := filepath.Join(t.TempDir(), "idx")
		paths, images := writtenLog(t, prefix)
		refusedUnchanged(t, paths[2], append(images[2], frame...), openWAL(prefix))
	})
	t.Run("OpenWAL: sealed segment", func(t *testing.T) {
		prefix := filepath.Join(t.TempDir(), "idx")
		paths, images := writtenLog(t, prefix)
		refusedUnchanged(t, paths[0], append(images[0], frame...), openWAL(prefix))
	})
	t.Run("Replay", func(t *testing.T) {
		prefix := filepath.Join(t.TempDir(), "idx")
		w := openTestWAL(t, prefix, WALOptions{SegmentBytes: 128})
		defer w.Close()
		fillSegments(t, w, 2)
		path := w.sealed[1].path
		image, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		refusedUnchanged(t, path, append(image, frame...), func() error {
			return w.Replay(func(uint64, []byte) error { return nil })
		})
	})
	t.Run("DecodeFrames and ValidFramePrefix", func(t *testing.T) {
		_, images := writtenLog(t, filepath.Join(t.TempDir(), "idx"))
		body := append(images[2][walSegHeaderSize:], frame...)
		if _, _, err := DecodeFrames(body); !errors.Is(err, ErrUnsupportedFormat) {
			t.Fatalf("DecodeFrames err = %v, want ErrUnsupportedFormat", err)
		}
		if _, _, err := ValidFramePrefix(body); !errors.Is(err, ErrUnsupportedFormat) {
			t.Fatalf("ValidFramePrefix err = %v, want ErrUnsupportedFormat", err)
		}
	})
	// The refusal needs a verified CRC: garbage at the tail whose length
	// word happens to carry bit 31 is still a torn write and is cut off.
	t.Run("flagged word without a valid CRC is a torn tail", func(t *testing.T) {
		prefix := filepath.Join(t.TempDir(), "idx")
		paths, images := writtenLog(t, prefix)
		torn := append([]byte(nil), frame...)
		torn[len(torn)-1] ^= 0xff
		if err := os.WriteFile(paths[2], append(images[2], torn...), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := openWAL(prefix)(); err != nil {
			t.Fatalf("OpenWAL: %v", err)
		}
		if after, _ := os.ReadFile(paths[2]); !bytes.Equal(after, images[2]) {
			t.Fatalf("torn tail not cut back: %d bytes, want %d", len(after), len(images[2]))
		}
	})
}
