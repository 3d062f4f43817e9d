package storage

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
)

// setEnabled toggles the mapped path: while it is off, the plain-read
// fallback serves every view, as on a platform without mmap or after a map
// failure.
func (m *mmapRegion) setEnabled(on bool) {
	m.mu.Lock()
	m.enabled = on && mmapSupported
	m.publishLocked()
	m.mu.Unlock()
}

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
// byte-identical to the file Read, and repeated views hit the verified
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
// the next view fail with ErrChecksum rather than serve the corrupt bytes.
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
// plain-read fallback (counted as such) with identical results, and
// re-enabling it maps again.
func TestSetMmapViewsFallback(t *testing.T) {
	s, ids, payloads := mmapTestStore(t)
	s.mm.setEnabled(false)
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
	s.mm.setEnabled(true)
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

// TestReadLedger: a store counts every read it serves once. Reads == Hits +
// Misses; a PagedStore's Hits are its mapped views, its Misses the file
// reads (Read and the view fallback); BytesRead is the bytes served; and a
// forced verify, which serves nothing, moves none of them.
func TestReadLedger(t *testing.T) {
	type ledgerStore interface {
		Store
		ExtentViewer
	}
	ledger := func(t *testing.T, s ledgerStore, reads int64, served int64, step string) {
		t.Helper()
		st, vs := s.Stats(), s.ViewStats()
		if st.Reads != st.Hits+st.Misses || st.BytesRead != served {
			t.Fatalf("%s: stats %+v, want Reads == Hits + Misses and %d bytes read", step, st, served)
		}
		if st.Hits != vs.Views+reads {
			t.Fatalf("%s: %d hits, %d views and %d in-memory reads", step, st.Hits, vs.Views, reads)
		}
	}
	serve := func(t *testing.T, read func(PageID) ([]byte, int, error), ids []PageID, served *int64) {
		t.Helper()
		for _, id := range ids {
			b, _, err := read(id)
			if err != nil {
				t.Fatalf("extent %d: %v", id, err)
			}
			*served += int64(len(b))
		}
	}

	t.Run("PagedStore", func(t *testing.T) {
		s, ids, _ := mmapTestStore(t)
		s.ResetStats()
		var served int64
		// The first round verifies each extent under the lock, the second
		// serves it from the published mapping.
		serve(t, s.ViewExtent, ids, &served)
		serve(t, s.ViewExtent, ids, &served)
		ledger(t, s, 0, served, "mapped")
		if vs := s.ViewStats(); mmapSupported && (vs.Views != int64(2*len(ids)) || vs.Fallbacks != 0) {
			t.Fatalf("mapped: view stats %+v, want %d views", vs, 2*len(ids))
		}
		// Disabled, even a verified extent is a checked file read.
		s.mm.setEnabled(false)
		serve(t, s.ViewExtent, ids, &served)
		s.mm.setEnabled(true)
		ledger(t, s, 0, served, "fallback")
		if vs := s.ViewStats(); vs.Fallbacks != int64(len(ids)) {
			t.Fatalf("fallback: view stats %+v, want %d fallbacks", vs, len(ids))
		}
		serve(t, s.Read, ids, &served)
		ledger(t, s, 0, served, "Read")
		if st, vs := s.Stats(), s.ViewStats(); st.Misses != vs.Fallbacks+int64(len(ids)) {
			t.Fatalf("Read: %d misses, %d fallbacks and %d reads", st.Misses, vs.Fallbacks, len(ids))
		}

		s.ResetStats()
		if st := s.Stats(); st != (Stats{}) {
			t.Fatalf("after ResetStats: %+v", st)
		}
		served = 0
		serve(t, s.ViewExtent, ids, &served)
		if st := s.Stats(); mmapSupported && (st.Reads != int64(len(ids)) || st.Hits != st.Reads || st.BytesRead != served) {
			t.Fatalf("views after ResetStats: %+v", st)
		}
		// Close withdraws the lock-free path before it unmaps.
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if s.mm.pub.Load() != nil {
			t.Fatal("a closed store still publishes its mapping")
		}
	})

	t.Run("MemStore", func(t *testing.T) {
		s := NewMemStore(256)
		defer s.Close()
		var ids []PageID
		for i := 0; i < 5; i++ {
			id, err := s.Alloc(1)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Write(id, 1, bytes.Repeat([]byte{byte(i)}, 10+i)); err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		var served int64
		serve(t, s.ViewExtent, ids, &served)
		ledger(t, s, 0, served, "views")
		serve(t, s.Read, ids, &served)
		ledger(t, s, int64(len(ids)), served, "Read")
		s.ResetStats()
		if st := s.Stats(); st != (Stats{}) {
			t.Fatalf("after ResetStats: %+v", st)
		}
	})
}

// TestMappedViewsUnderChurn: views of verified extents, most of them served
// without a lock, stay exact while one writer forces remaps (allocating and
// viewing extents past the mapping), rewrites a disjoint set of extents
// (invalidating their verified bits) and toggles the mapped path. A byte
// flipped on disk in a rewritten extent is then caught by its next view.
func TestMappedViewsUnderChurn(t *testing.T) {
	s, path, ids, payloads := mmapTestStorePath(t)
	for _, id := range ids { // verify once: the readers' views are lock-free
		if _, _, err := s.ViewExtent(id); err != nil {
			t.Fatal(err)
		}
	}
	churn := make([]PageID, 4)
	for i := range churn {
		id, err := s.Alloc(1)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Write(id, 1, []byte("initial")); err != nil {
			t.Fatal(err)
		}
		churn[i] = id
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; !stop.Load(); i++ {
				k := i % len(ids)
				got, _, err := s.ViewExtent(ids[k])
				if err != nil || !bytes.Equal(got, payloads[k]) {
					t.Errorf("reader %d: extent %d: %d bytes, %v", g, ids[k], len(got), err)
					return
				}
			}
		}(g)
	}

	view := func(id PageID, want []byte) {
		t.Helper()
		if got, _, err := s.ViewExtent(id); err != nil || !bytes.Equal(got, want) {
			t.Errorf("writer: extent %d: view %q, %v, want %q", id, got, err, want)
		}
	}
	for round := 0; round < 40; round++ {
		grown := bytes.Repeat([]byte{byte(round)}, 200)
		id, err := s.Alloc(4)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Write(id, 4, grown); err != nil {
			t.Fatal(err)
		}
		view(id, grown)
		k := round % len(churn)
		p := []byte(fmt.Sprintf("rewrite %d of extent %d", round, churn[k]))
		if err := s.Write(churn[k], 1, p); err != nil {
			t.Fatal(err)
		}
		view(churn[k], p)
		if round%8 == 3 {
			s.mm.setEnabled(false)
		}
		if round%8 == 5 {
			s.mm.setEnabled(true)
		}
	}
	stop.Store(true)
	wg.Wait()
	if vs := s.ViewStats(); mmapSupported && vs.Remaps == 0 {
		t.Fatalf("view stats %+v: the writer forced no remap", vs)
	}

	// A rewrite clears the extent's verified bit; damage that lands before
	// its next view is caught by that view's CRC.
	p := []byte("rewritten, then damaged on disk")
	if err := s.Write(churn[0], 1, p); err != nil {
		t.Fatal(err)
	}
	flipBits(t, path, int64(churn[0])*256+ExtentHeaderSize+3, 0x10)
	if _, _, err := s.ViewExtent(churn[0]); !errors.Is(err, ErrChecksum) {
		t.Fatalf("view of a damaged rewritten extent: %v, want ErrChecksum", err)
	}
}
