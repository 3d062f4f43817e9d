package repl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"github.com/dcindex/dctree/internal/storage"
)

// testFrame frames payload the way the log does: length, CRC32, payload.
func testFrame(payload string) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE([]byte(payload)))
	return append(b, payload...)
}

// fileSize returns the size of the file at path.
func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

// mirrorRecords appends n one-frame records to m, each synced, numbering
// them from the mirror's cursor.
func mirrorRecords(t *testing.T, m *mirror, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := m.append(testFrame(fmt.Sprintf("mirrored-%05d", m.nextLSN())), 1); err != nil {
			t.Fatal(err)
		}
		if err := m.sync(); err != nil {
			t.Fatal(err)
		}
	}
}

// newTestMirror opens an empty mirror under prefix and begins its first
// segment.
func newTestMirror(t *testing.T, prefix string) *mirror {
	t.Helper()
	m, err := openMirror(prefix)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.beginSegment(storage.SegmentHeader{Index: 1, FirstLSN: 1, Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	return m
}

// copyMirrorFiles copies every segment file of src, as it is on disk now,
// to dst: what a follower crash at this instant could leave.
func copyMirrorFiles(t *testing.T, src, dst string) {
	t.Helper()
	segs, err := storage.ListSegments(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range segs {
		data, err := os.ReadFile(s.Path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(storage.SegmentPath(dst, s.Index), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// requireAdoptable reopens the mirror at prefix as a WAL — what promotion
// does — and checks it replays records 1..want in order.
func requireAdoptable(t *testing.T, prefix string, want uint64) {
	t.Helper()
	w, err := storage.OpenWAL(prefix, storage.WALOptions{})
	if err != nil {
		t.Fatalf("mirror does not reopen as a WAL: %v", err)
	}
	defer w.Close()
	var n uint64
	if err := w.Replay(func(lsn uint64, payload []byte) error {
		n++
		if lsn != n || string(payload) != fmt.Sprintf("mirrored-%05d", lsn) {
			return fmt.Errorf("record %d: lsn %d, payload %q", n, lsn, payload)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n != want {
		t.Fatalf("adopted mirror replays %d records, want %d", n, want)
	}
}

// TestMirrorSyncDoesNotGrowFile is the mirror's twin of the log's count
// test: the fsync a follower runs before every acknowledgment lands on
// zeros the segment already holds, so across 200 synced appends the file
// size changes once per storage.ZeroBlock, not once per append.
func TestMirrorSyncDoesNotGrowFile(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "wal")
	m := newTestMirror(t, prefix)
	defer m.close()
	path := storage.SegmentPath(prefix, 1)
	size, changes := fileSize(t, path), 0
	for i := 0; i < 200; i++ {
		mirrorRecords(t, m, 1)
		if now := fileSize(t, path); now != size {
			if now%storage.ZeroBlock != 0 {
				t.Fatalf("append %d: file grew to %d, not a multiple of %d", i, now, storage.ZeroBlock)
			}
			size, changes = now, changes+1
		}
	}
	end := m.last().size
	if limit := int((end + storage.ZeroBlock - 1) / storage.ZeroBlock); changes == 0 || changes > limit {
		t.Fatalf("file size changed %d times over %d bytes, want 1..%d", changes, end, limit)
	}
}

// TestMirrorSealedSegmentsEndAtLastFrame: beginning the next segment and
// closing the mirror trim the segment left behind to its last frame, so a
// sealed or closed mirror segment is byte-identical to its source's.
func TestMirrorSealedSegmentsEndAtLastFrame(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "wal")
	m := newTestMirror(t, prefix)
	mirrorRecords(t, m, 30)
	if got := fileSize(t, storage.SegmentPath(prefix, 1)); got <= m.last().size {
		t.Fatalf("active mirror segment is %d bytes, frames %d: want zeros ahead", got, m.last().size)
	}
	sealed := m.last().size
	if err := m.beginSegment(storage.SegmentHeader{Index: 2, FirstLSN: 31, Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	mirrorRecords(t, m, 30)
	if got := fileSize(t, storage.SegmentPath(prefix, 1)); got != sealed {
		t.Fatalf("sealed mirror segment is %d bytes, frames end at %d", got, sealed)
	}
	closed := m.last().size
	if err := m.close(); err != nil {
		t.Fatal(err)
	}
	if got := fileSize(t, storage.SegmentPath(prefix, 2)); got != closed {
		t.Fatalf("closed mirror segment is %d bytes, frames end at %d", got, closed)
	}
	requireAdoptable(t, prefix, 60)
}

// TestMirrorZeroTailReopens is the mirror's twin of TestWALZeroTailReopens:
// a follower crash image — the final segment ending in zeros, or in a torn
// frame over them, or a non-final segment that kept its zeros — reopens at
// the synced prefix, takes further appends, and is adopted as a WAL.
// Anything but zeros after a non-final segment's frames is still corrupt.
func TestMirrorZeroTailReopens(t *testing.T) {
	// image builds a mirror with 10 synced records in segment 1 and, when
	// second, 5 more in segment 2, copies its files before closing it, and
	// lets damage edit the copy.
	image := func(t *testing.T, second bool, damage func(img string, frontier int64)) string {
		dir := t.TempDir()
		m := newTestMirror(t, filepath.Join(dir, "wal"))
		defer m.close()
		mirrorRecords(t, m, 10)
		first, frontier := m.last().size, m.last().size
		var zeros []byte
		if second {
			// What the first segment held before it was sealed.
			data, err := os.ReadFile(storage.SegmentPath(filepath.Join(dir, "wal"), 1))
			if err != nil {
				t.Fatal(err)
			}
			zeros = data
			if err := m.beginSegment(storage.SegmentHeader{Index: 2, FirstLSN: 11, Epoch: 1}); err != nil {
				t.Fatal(err)
			}
			mirrorRecords(t, m, 5)
			frontier = m.last().size
		}
		img := filepath.Join(dir, "img")
		copyMirrorFiles(t, filepath.Join(dir, "wal"), img)
		if second {
			if int64(len(zeros)) <= first {
				t.Fatalf("segment 1 held %d bytes before sealing, frames %d: want zeros", len(zeros), first)
			}
			if err := os.WriteFile(storage.SegmentPath(img, 1), zeros, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if damage != nil {
			damage(img, frontier)
		}
		return img
	}
	// reopen checks the image opens with want records, continues, and is
	// adopted as a WAL.
	reopen := func(t *testing.T, img string, want uint64) {
		t.Helper()
		m, err := openMirror(img)
		if err != nil {
			t.Fatalf("openMirror: %v", err)
		}
		if m.nextLSN() != want+1 || m.syncedLSN() != want {
			t.Fatalf("reopened at next %d, synced %d; want %d, %d", m.nextLSN(), m.syncedLSN(), want+1, want)
		}
		mirrorRecords(t, m, 3)
		if err := m.close(); err != nil {
			t.Fatal(err)
		}
		requireAdoptable(t, img, want+3)
	}

	t.Run("zero tail", func(t *testing.T) {
		reopen(t, image(t, false, nil), 10)
	})
	t.Run("torn frame then zeros", func(t *testing.T) {
		img := image(t, false, func(img string, frontier int64) {
			f, err := os.OpenFile(storage.SegmentPath(img, 1), os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := f.WriteAt(testFrame("in flight")[:9], frontier); err != nil {
				t.Fatal(err)
			}
		})
		reopen(t, img, 10)
	})
	t.Run("zeros on a non-final segment", func(t *testing.T) {
		reopen(t, image(t, true, nil), 15)
	})
	t.Run("garbage on a non-final segment is corrupt", func(t *testing.T) {
		img := image(t, true, func(img string, _ int64) {
			path := storage.SegmentPath(img, 1)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)-1] = 0xff
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		})
		if _, err := openMirror(img); !errors.Is(err, ErrMirrorCorrupt) {
			t.Fatalf("openMirror: %v, want ErrMirrorCorrupt", err)
		}
	})
}

// countingSource counts the reads a shipper makes.
type countingSource struct {
	Source
	reads int
}

func (c *countingSource) ReadAt(seg storage.WALSegmentInfo, off int64, max int) ([]byte, error) {
	c.reads++
	return c.Source.ReadAt(seg, off, max)
}

// TestDirSourceShipsZeroPaddedSegment: a directory listing sizes the
// active segment by its file, which now ends in the zeros written ahead of
// the frames. The shipper stops at the first zero length word — one read
// per pass at the frontier, not a read window doubled until it spans the
// zeros — and counts no padding as lag. The mirror it builds is adopted as
// a WAL with every record.
func TestDirSourceShipsZeroPaddedSegment(t *testing.T) {
	dir := t.TempDir()
	prefix := filepath.Join(dir, "wal")
	w, err := storage.OpenWAL(prefix, storage.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	appendSynced := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := w.Append([]byte(fmt.Sprintf("mirrored-%05d", w.LastLSN()+1))); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := w.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	m, err := openMirror(filepath.Join(dir, "mirror"))
	if err != nil {
		t.Fatal(err)
	}
	src := &countingSource{Source: &DirSource{Prefix: prefix}}
	// A read window far below the zeros, as the stress test uses.
	sh := &shipper{src: src, m: m, chunk: 256, floor: 1}
	pass := func(wantFrames int) {
		t.Helper()
		src.reads = 0
		prog, err := sh.runOnce()
		if err != nil {
			t.Fatal(err)
		}
		if prog.frames != wantFrames || prog.lagBytes != 0 {
			t.Fatalf("pass shipped %d frames with lag %d, want %d and 0", prog.frames, prog.lagBytes, wantFrames)
		}
	}

	appendSynced(20)
	segs, err := storage.ListSegments(prefix)
	if err != nil {
		t.Fatal(err)
	}
	if _, frontier := w.ActiveSegment(); segs[0].Size <= frontier {
		t.Fatalf("listed %d bytes, frames end at %d: want zeros ahead", segs[0].Size, frontier)
	}
	pass(20)
	for i := 0; i < 3; i++ {
		pass(0)
		if src.reads != 1 {
			t.Fatalf("caught-up pass made %d reads, want 1", src.reads)
		}
	}
	appendSynced(7)
	pass(7)
	pass(0)
	if src.reads != 1 {
		t.Fatalf("caught-up pass made %d reads, want 1", src.reads)
	}
	if err := m.close(); err != nil {
		t.Fatal(err)
	}
	requireAdoptable(t, filepath.Join(dir, "mirror"), 27)
}
