package storage

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// mmapTestStore creates a store with a handful of extents of varying block
// counts and returns it with the ids and payloads written.
func mmapTestStore(t *testing.T) (*PagedStore, []PageID, [][]byte) {
	s, _, ids, payloads := mmapTestStorePath(t)
	return s, ids, payloads
}

func mmapTestStorePath(t *testing.T) (*PagedStore, string, []PageID, [][]byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "store.dc")
	s, err := OpenPagedStore(path, 256, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	var ids []PageID
	var payloads [][]byte
	for i, blocks := range []int{1, 2, 1, 4, 1} {
		p := make([]byte, ExtentCapacity(256, blocks)-i*13)
		for j := range p {
			p[j] = byte(i*31 + j)
		}
		id, err := s.Alloc(blocks)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Write(id, blocks, p); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		payloads = append(payloads, p)
	}
	return s, path, ids, payloads
}

// TestViewExtentMatchesRead: the mapped view of every extent is
// byte-identical to the buffered Read, and repeated views hit the verified
// bitmap (the view counter advances, the fallback counter does not).
func TestViewExtentMatchesRead(t *testing.T) {
	s, ids, payloads := mmapTestStore(t)
	for round := 0; round < 2; round++ {
		for i, id := range ids {
			got, blocks, err := s.ViewExtent(id)
			if err != nil {
				t.Fatalf("ViewExtent(%d): %v", id, err)
			}
			want, wantBlocks, err := s.Read(id)
			if err != nil {
				t.Fatal(err)
			}
			if blocks != wantBlocks || !bytes.Equal(got, want) {
				t.Fatalf("extent %d: view (%d blocks, %d bytes) != read (%d blocks, %d bytes)",
					id, blocks, len(got), wantBlocks, len(want))
			}
			if !bytes.Equal(got, payloads[i]) {
				t.Fatalf("extent %d: view differs from written payload", id)
			}
		}
	}
	vs := s.ViewStats()
	if vs.Views != int64(2*len(ids)) || vs.Fallbacks != 0 {
		t.Fatalf("view stats = %+v, want %d views, 0 fallbacks", vs, 2*len(ids))
	}
}

// TestViewExtentChecksumFailClosed: flipping a payload byte on disk makes
// the next view (and VerifyExtentView, which bypasses the verified bitmap)
// fail with ErrChecksum rather than serve the corrupt bytes.
func TestViewExtentChecksumFailClosed(t *testing.T) {
	s, path, ids, _ := mmapTestStorePath(t)
	id := ids[1]
	// Corrupt one payload byte directly in the file. Views read through a
	// shared mapping, so no reopen is needed for visibility.
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	off := int64(id)*256 + int64(ExtentHeaderSize) + 5
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xFF
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}

	if _, _, err := s.ViewExtent(id); !errors.Is(err, ErrChecksum) {
		t.Fatalf("ViewExtent on corrupt extent: err = %v, want ErrChecksum", err)
	}
	if _, _, err := s.VerifyExtentView(id); !errors.Is(err, ErrChecksum) {
		t.Fatalf("VerifyExtentView on corrupt extent: err = %v, want ErrChecksum", err)
	}
	// Other extents still verify.
	if _, _, err := s.ViewExtent(ids[0]); err != nil {
		t.Fatalf("ViewExtent(%d) after sibling corruption: %v", ids[0], err)
	}
}

// TestViewRemapOnGrowth: a view taken before the file grows stays readable
// after later allocations force a remap, and the new extent is viewable.
func TestViewRemapOnGrowth(t *testing.T) {
	s, ids, payloads := mmapTestStore(t)
	old, _, err := s.ViewExtent(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	oldCopy := append([]byte(nil), old...)

	// Grow the file well past the current mapping.
	var lastID PageID
	var lastPayload []byte
	for i := 0; i < 64; i++ {
		p := make([]byte, 100)
		for j := range p {
			p[j] = byte(i + j)
		}
		id, err := s.Alloc(2)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Write(id, 2, p); err != nil {
			t.Fatal(err)
		}
		lastID, lastPayload = id, p
	}
	got, _, err := s.ViewExtent(lastID)
	if err != nil {
		t.Fatalf("ViewExtent after growth: %v", err)
	}
	if !bytes.Equal(got, lastPayload) {
		t.Fatal("view of freshly written extent differs from payload")
	}
	if vs := s.ViewStats(); vs.Remaps == 0 {
		t.Fatalf("view stats = %+v, want at least one remap", vs)
	}
	// The pre-growth view still reads the original bytes: retired mappings
	// stay mapped until Close.
	if !bytes.Equal(old, oldCopy) || !bytes.Equal(old, payloads[0]) {
		t.Fatal("pre-growth view no longer matches its payload")
	}
}

// TestViewInvalidateOnRewrite: rewriting an extent in place invalidates its
// verified bit, and the next view re-verifies and serves the new bytes.
func TestViewInvalidateOnRewrite(t *testing.T) {
	s, err := OpenPagedStore(filepath.Join(t.TempDir(), "store.dc"), 256, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	id, err := s.Alloc(1)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		p := []byte(fmt.Sprintf("payload round %d", round))
		if err := s.Write(id, 1, p); err != nil {
			t.Fatal(err)
		}
		got, _, err := s.ViewExtent(id)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("round %d: view = %q, want %q", round, got, p)
		}
	}
}

// TestSetMmapViewsFallback: disabling the mapping routes views through the
// plain-read fallback (counted as such) with identical results.
func TestSetMmapViewsFallback(t *testing.T) {
	s, ids, payloads := mmapTestStore(t)
	s.SetMmapViews(false)
	for i, id := range ids {
		got, _, err := s.ViewExtent(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payloads[i]) {
			t.Fatalf("extent %d: fallback view differs from payload", id)
		}
	}
	vs := s.ViewStats()
	if vs.Fallbacks != int64(len(ids)) {
		t.Fatalf("view stats = %+v, want %d fallbacks", vs, len(ids))
	}
	s.SetMmapViews(true)
	if _, _, err := s.ViewExtent(ids[0]); err != nil {
		t.Fatal(err)
	}
	if vs := s.ViewStats(); mmapSupported && vs.Views == 0 {
		t.Fatalf("view stats = %+v, want mapped views after re-enable", vs)
	}
}

// TestMemStoreViewExtent: MemStore serves zero-copy views of its extents.
func TestMemStoreViewExtent(t *testing.T) {
	s := NewMemStore(256)
	defer s.Close()
	id, err := s.Alloc(1)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("memstore view payload")
	if err := s.Write(id, 1, payload); err != nil {
		t.Fatal(err)
	}
	got, blocks, err := s.ViewExtent(id)
	if err != nil {
		t.Fatal(err)
	}
	if blocks != 1 || !bytes.Equal(got, payload) {
		t.Fatalf("view = (%d blocks, %q)", blocks, got)
	}
	if vs := s.ViewStats(); vs.Views != 1 {
		t.Fatalf("view stats = %+v", vs)
	}
}
