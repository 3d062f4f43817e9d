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

// buildChecksummedStore creates a closed store file holding one known
// data extent and a metadata blob, and returns the path plus the extent's
// id and payload.
func buildChecksummedStore(t *testing.T) (path string, id PageID, payload []byte) {
	t.Helper()
	path = filepath.Join(t.TempDir(), "store.dc")
	s, err := OpenPagedStore(path, 256, 0)
	if err != nil {
		t.Fatal(err)
	}
	payload = make([]byte, 200)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	id, err = s.Alloc(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Write(id, 1, payload); err != nil {
		t.Fatal(err)
	}
	if err := s.SetMeta([]byte("meta-blob-0123456789")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return path, id, payload
}

// headerPointers reads the meta and freelist extent ids straight from a
// closed store file's header.
func headerPointers(t *testing.T, path string) (metaID, freeID PageID) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return PageID(binary.LittleEndian.Uint64(raw[20:])),
		PageID(binary.LittleEndian.Uint64(raw[32:]))
}

// flipBits flips the mask bits of the file's byte at off.
func flipBits(t *testing.T, path string, off int64, mask byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= mask
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}

func TestPagedStoreChecksumRoundtrip(t *testing.T) {
	path, id, payload := buildChecksummedStore(t)
	s, err := OpenPagedStore(path, 256, 0)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s.Close()
	got, blocks, err := s.Read(id)
	if err != nil || blocks != 1 {
		t.Fatalf("Read = %d blocks, %v", blocks, err)
	}
	if string(got) != string(payload) {
		t.Fatal("payload mismatch after reopen")
	}
	meta, err := s.GetMeta()
	if err != nil || string(meta) != "meta-blob-0123456789" {
		t.Fatalf("GetMeta = %q, %v", meta, err)
	}
}

// TestPagedStoreCorruptionMatrix flips bits in each distinct region of a
// closed store file — data extent payload, its stored CRC, each word of its
// header, the metadata extent, the freelist extent, and the file header —
// and asserts the store fails closed (ErrChecksum, or ErrCorrupt for a
// header that does not check out) instead of decoding garbage, on the file
// read path and on the mapped view path alike.
func TestPagedStoreCorruptionMatrix(t *testing.T) {
	const blockSize = 256
	pristine, id, _ := buildChecksummedStore(t)
	metaID, freeID := headerPointers(t, pristine)
	if metaID == NilPage || freeID == NilPage {
		t.Fatalf("header pointers meta=%d free=%d", metaID, freeID)
	}

	copyTo := func(dst string) {
		raw, err := os.ReadFile(pristine)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dst, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// dataExtent opens the damaged file and must be refused the data extent
	// with want by every way of reading it.
	dataExtent := func(want error) func(t *testing.T, path string) {
		return func(t *testing.T, path string) {
			s, err := OpenPagedStore(path, blockSize, 0)
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			defer s.Close()
			if data, _, err := s.Read(id); !errors.Is(err, want) || data != nil {
				t.Fatalf("Read = %d bytes, %v, want none and %v", len(data), err, want)
			}
			if data, _, err := s.ViewExtent(id); !errors.Is(err, want) || data != nil {
				t.Fatalf("ViewExtent = %d bytes, %v, want none and %v", len(data), err, want)
			}
		}
	}
	cases := []struct {
		name string
		off  int64 // byte to damage
		mask byte  // bits of it to flip
		// check opens the damaged file and must observe the failure.
		check func(t *testing.T, path string)
	}{
		{
			name:  "data-extent-payload",
			off:   int64(id)*blockSize + ExtentHeaderSize + 17,
			mask:  0xFF,
			check: dataExtent(ErrChecksum),
		},
		{
			name:  "data-extent-stored-crc",
			off:   int64(id)*blockSize + extentChecksumAt,
			mask:  0xFF,
			check: dataExtent(ErrChecksum),
		},
		{
			// One bit: the checksum flag of the block-count word. The payload
			// must not be served unverified from behind a shorter header.
			name:  "data-extent-header-flag-bit",
			off:   int64(id)*blockSize + 3,
			mask:  0x80,
			check: dataExtent(ErrCorrupt),
		},
		{
			name:  "data-extent-header-block-count", // 1 block -> 0
			off:   int64(id) * blockSize,
			mask:  0x01,
			check: dataExtent(ErrCorrupt),
		},
		{
			name:  "data-extent-header-length-short", // 200 bytes -> 55
			off:   int64(id)*blockSize + 4,
			mask:  0xFF,
			check: dataExtent(ErrChecksum),
		},
		{
			name:  "data-extent-header-length-long", // 200 bytes -> 456 > capacity
			off:   int64(id)*blockSize + 5,
			mask:  0x01,
			check: dataExtent(ErrCorrupt),
		},
		{
			name: "meta-extent-payload",
			off:  int64(metaID)*blockSize + ExtentHeaderSize + 3,
			mask: 0xFF,
			check: func(t *testing.T, path string) {
				s, err := OpenPagedStore(path, blockSize, 0)
				if err != nil {
					t.Fatalf("open: %v", err)
				}
				defer s.Close()
				if _, err := s.GetMeta(); !errors.Is(err, ErrChecksum) {
					t.Fatalf("GetMeta = %v, want ErrChecksum", err)
				}
			},
		},
		{
			name: "freelist-extent-payload",
			off:  int64(freeID)*blockSize + ExtentHeaderSize,
			mask: 0xFF,
			check: func(t *testing.T, path string) {
				if _, err := OpenPagedStore(path, blockSize, 0); !errors.Is(err, ErrChecksum) {
					t.Fatalf("open = %v, want ErrChecksum", err)
				}
			},
		},
		{
			name: "store-header",
			off:  13, // inside the next-page field
			mask: 0xFF,
			check: func(t *testing.T, path string) {
				if _, err := OpenPagedStore(path, blockSize, 0); !errors.Is(err, ErrChecksum) {
					t.Fatalf("open = %v, want ErrChecksum", err)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "damaged.dc")
			copyTo(path)
			flipBits(t, path, tc.off, tc.mask)
			tc.check(t, path)
		})
	}
}

// TestUnsupportedFormats: the two retired storage formats — a pre-checksum
// store file (magic DCSTORE1) and an epoch-less WAL segment (magic
// DCWAL001) — are refused with ErrUnsupportedFormat by every way in, and
// the refused file is left exactly as it was.
func TestUnsupportedFormats(t *testing.T) {
	const blockSize = 256
	dir := t.TempDir()

	// A DCSTORE1 image: 44-byte header without CRC, one extent with an
	// 8-byte header (block count without the checksum flag, payload length).
	payload := []byte("extent payload of a pre-checksum image")
	image := make([]byte, 2*blockSize)
	copy(image, "DCSTORE1")
	binary.LittleEndian.PutUint32(image[8:], blockSize)
	binary.LittleEndian.PutUint64(image[12:], 2) // next page after the one extent
	binary.LittleEndian.PutUint32(image[blockSize:], 1)
	binary.LittleEndian.PutUint32(image[blockSize+4:], uint32(len(payload)))
	copy(image[blockSize+8:], payload)

	// A DCWAL001 segment: 24-byte header (magic, index, first LSN), one frame.
	frame := make([]byte, walFrameOverhead, walFrameOverhead+4)
	binary.LittleEndian.PutUint32(frame, 4)
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE([]byte("rec1")))
	segment := make([]byte, 24)
	copy(segment, "DCWAL001")
	binary.LittleEndian.PutUint64(segment[8:], 1)
	binary.LittleEndian.PutUint64(segment[16:], 1)
	segment = append(segment, append(frame, "rec1"...)...)
	prefix := filepath.Join(dir, "idx")

	cases := []struct {
		name string
		path string
		raw  []byte
		open func() error
	}{
		{"store magic DCSTORE1", filepath.Join(dir, "legacy.dc"), image, func() error {
			_, err := OpenPagedStore(filepath.Join(dir, "legacy.dc"), blockSize, 0)
			return err
		}},
		{"store magic DCSTORE1, header only", filepath.Join(dir, "empty.dc"), image[:44], func() error {
			_, err := OpenPagedStore(filepath.Join(dir, "empty.dc"), blockSize, 0)
			return err
		}},
		{"wal header DCWAL001: OpenWAL", walSegmentPath(prefix, 1), segment, func() error {
			_, err := OpenWAL(prefix, WALOptions{})
			return err
		}},
		{"wal header DCWAL001: ListSegments", walSegmentPath(prefix, 1), segment, func() error {
			_, err := ListSegments(prefix)
			return err
		}},
		{"wal header DCWAL001, no records: OpenWAL", walSegmentPath(prefix, 1), segment[:24], func() error {
			_, err := OpenWAL(prefix, WALOptions{})
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := os.WriteFile(tc.path, tc.raw, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := tc.open(); !errors.Is(err, ErrUnsupportedFormat) {
				t.Fatalf("open = %v, want ErrUnsupportedFormat", err)
			}
			if after, err := os.ReadFile(tc.path); err != nil || !bytes.Equal(after, tc.raw) {
				t.Fatalf("refused file was modified or removed (err %v)", err)
			}
		})
	}
}

// TestWALTruncateBefore drives the segment-granular truncation: only sealed
// segments wholly at or below the cut LSN are removed, every record past
// the cut survives, and LSNs keep advancing afterwards.
func TestWALTruncateBefore(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "idx")
	w := openTestWAL(t, prefix, WALOptions{SegmentBytes: 256})
	payload := make([]byte, 40)
	const n = 50
	for i := 1; i <= n; i++ {
		payload[0] = byte(i)
		if _, err := w.Append(payload); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if _, err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if w.Stats().Segments < 3 {
		t.Fatalf("expected rotation, got %d segments", w.Stats().Segments)
	}

	const cut = uint64(n / 2)
	if err := w.TruncateBefore(cut); err != nil {
		t.Fatalf("TruncateBefore: %v", err)
	}
	_, order := collect(t, w)
	if len(order) == 0 || len(order) >= n {
		t.Fatalf("replay after truncate: %d records", len(order))
	}
	// Segment granularity may keep records ≤ cut, but must keep EVERY
	// record past the cut, contiguously through the last LSN.
	first := order[0]
	if first > cut+1 {
		t.Fatalf("first surviving lsn %d lost records ≤ %d past the cut", first, cut)
	}
	for i, lsn := range order {
		if lsn != first+uint64(i) {
			t.Fatalf("replay gap at %d: lsn %d", i, lsn)
		}
	}
	if last := order[len(order)-1]; last != n {
		t.Fatalf("last surviving lsn %d, want %d", last, n)
	}

	// Appends continue with the next LSN.
	if lsn, err := w.Append(payload); err != nil || lsn != n+1 {
		t.Fatalf("append after truncate: lsn %d, %v", lsn, err)
	}
	if _, err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	w.Close()

	// Reopen validates continuity of the surviving segments.
	w = openTestWAL(t, prefix, WALOptions{SegmentBytes: 256})
	defer w.Close()
	if got := w.LastLSN(); got != n+1 {
		t.Fatalf("LastLSN after reopen = %d", got)
	}
}

// TestWALTruncateBeforeFrontier covers the full-truncate fast path: a cut
// at the last LSN drops every segment, and an idle second call is a no-op.
func TestWALTruncateBeforeFrontier(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "idx")
	w := openTestWAL(t, prefix, WALOptions{SegmentBytes: 256})
	defer w.Close()
	for i := 1; i <= 20; i++ {
		if _, err := w.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := w.TruncateBefore(w.LastLSN()); err != nil {
		t.Fatal(err)
	}
	if recs, _ := collect(t, w); len(recs) != 0 {
		t.Fatalf("%d records survived a frontier truncate", len(recs))
	}
	if w.Records() != 0 {
		t.Fatalf("Records = %d after frontier truncate", w.Records())
	}
	// Idle log: a second frontier truncate must not churn segments.
	segs := w.Stats().Segments
	if err := w.TruncateBefore(w.LastLSN()); err != nil {
		t.Fatal(err)
	}
	if got := w.Stats().Segments; got != segs {
		t.Fatalf("idle truncate churned segments: %d -> %d", segs, got)
	}
	if lsn, err := w.Append([]byte("next")); err != nil || lsn != 21 {
		t.Fatalf("append after frontier truncate: lsn %d, %v", lsn, err)
	}
}
