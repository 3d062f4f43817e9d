package storage

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// openTrunc truncates a file to size bytes (corruption helper).
func openTrunc(path string, size int64) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(size); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// stores returns fresh instances of every Store implementation for
// conformance testing.
func stores(t *testing.T) map[string]Store {
	t.Helper()
	paged, err := OpenPagedStore(filepath.Join(t.TempDir(), "store.dc"), 256, 0)
	if err != nil {
		t.Fatalf("OpenPagedStore: %v", err)
	}
	return map[string]Store{
		"mem":   NewMemStore(256),
		"paged": paged,
	}
}

func TestStoreConformance(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			if s.BlockSize() != 256 {
				t.Fatalf("BlockSize = %d", s.BlockSize())
			}

			id, err := s.Alloc(1)
			if err != nil || id == NilPage {
				t.Fatalf("Alloc: %v %v", id, err)
			}
			payload := []byte("hello dc-tree")
			if err := s.Write(id, 1, payload); err != nil {
				t.Fatalf("Write: %v", err)
			}
			got, blocks, err := s.Read(id)
			if err != nil || blocks != 1 || !bytes.Equal(got, payload) {
				t.Fatalf("Read = %q, %d, %v", got, blocks, err)
			}

			// Overwrite shrinks.
			if err := s.Write(id, 1, []byte("x")); err != nil {
				t.Fatalf("rewrite: %v", err)
			}
			got, _, _ = s.Read(id)
			if string(got) != "x" {
				t.Fatalf("after rewrite Read = %q", got)
			}

			// Oversized payload rejected.
			big := make([]byte, ExtentCapacity(256, 1)+1)
			if err := s.Write(id, 1, big); err == nil {
				t.Fatal("oversized write accepted")
			}
			// Exactly-full payload accepted.
			full := make([]byte, ExtentCapacity(256, 1))
			for i := range full {
				full[i] = byte(i)
			}
			if err := s.Write(id, 1, full); err != nil {
				t.Fatalf("full write: %v", err)
			}
			got, _, _ = s.Read(id)
			if !bytes.Equal(got, full) {
				t.Fatal("full payload mismatch")
			}

			// Multi-block extents (supernodes).
			super, err := s.Alloc(3)
			if err != nil {
				t.Fatalf("Alloc(3): %v", err)
			}
			superPayload := make([]byte, ExtentCapacity(256, 3))
			rand.New(rand.NewSource(1)).Read(superPayload)
			if err := s.Write(super, 3, superPayload); err != nil {
				t.Fatalf("super write: %v", err)
			}
			got, blocks, err = s.Read(super)
			if err != nil || blocks != 3 || !bytes.Equal(got, superPayload) {
				t.Fatalf("super read blocks=%d err=%v", blocks, err)
			}

			// Free and error paths.
			if err := s.Free(super, 3); err != nil {
				t.Fatalf("Free: %v", err)
			}
			if err := s.Free(super, 3); err == nil {
				t.Fatal("double free accepted")
			}
			if _, err := s.Alloc(0); err == nil {
				t.Fatal("Alloc(0) accepted")
			}

			// Meta blob.
			if _, err := s.GetMeta(); err == nil {
				t.Fatal("GetMeta before SetMeta should fail")
			}
			meta := []byte(`{"root": 7}`)
			if err := s.SetMeta(meta); err != nil {
				t.Fatalf("SetMeta: %v", err)
			}
			got2, err := s.GetMeta()
			if err != nil || !bytes.Equal(got2, meta) {
				t.Fatalf("GetMeta = %q, %v", got2, err)
			}
			// Meta can grow beyond one block.
			bigMeta := make([]byte, 256*4)
			for i := range bigMeta {
				bigMeta[i] = byte(i * 7)
			}
			if err := s.SetMeta(bigMeta); err != nil {
				t.Fatalf("SetMeta big: %v", err)
			}
			got2, _ = s.GetMeta()
			if !bytes.Equal(got2, bigMeta) {
				t.Fatal("big meta mismatch")
			}

			// Stats moved.
			st := s.Stats()
			if st.Reads == 0 || st.Writes == 0 || st.Allocs == 0 || st.Frees == 0 {
				t.Fatalf("stats not accounted: %+v", st)
			}
			s.ResetStats()
			if s.Stats() != (Stats{}) {
				t.Fatal("ResetStats did not zero")
			}

			if err := s.Sync(); err != nil {
				t.Fatalf("Sync: %v", err)
			}
			if err := s.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			// A closed store rejects every operation with ErrClosed.
			afterClose := map[string]func() error{
				"Alloc":   func() error { _, err := s.Alloc(1); return err },
				"Write":   func() error { return s.Write(id, 1, payload) },
				"Read":    func() error { _, _, err := s.Read(id); return err },
				"Free":    func() error { return s.Free(id, 1) },
				"SetMeta": func() error { return s.SetMeta(meta) },
				"GetMeta": func() error { _, err := s.GetMeta(); return err },
				"Sync":    s.Sync,
				"ViewExtent": func() error {
					_, _, err := s.(ExtentViewer).ViewExtent(id)
					return err
				},
				"Close": s.Close,
			}
			for op, call := range afterClose {
				if err := call(); !errors.Is(err, ErrClosed) {
					t.Errorf("%s after Close = %v, want ErrClosed", op, err)
				}
			}
		})
	}
}

// TestPagedStoreReadChecksDisk: Read returns what is on disk. A payload
// byte flipped in the file after the extent was written is ErrChecksum,
// not the bytes the store wrote.
func TestPagedStoreReadChecksDisk(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.dc")
	s, err := OpenPagedStore(path, 256, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	id, err := s.Alloc(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Write(id, 1, bytes.Repeat([]byte("dc"), 50)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Read(id); err != nil {
		t.Fatalf("Read before damage = %v", err)
	}
	flipBits(t, path, int64(id)*256+ExtentHeaderSize+9, 0xFF)
	if data, _, err := s.Read(id); !errors.Is(err, ErrChecksum) || data != nil {
		t.Fatalf("Read after damage = %d bytes, %v, want none and ErrChecksum", len(data), err)
	}
}

// TestPagedStoreConcurrentReads: Reads and views run concurrently with each
// other and with a writer allocating, writing and syncing other extents,
// and every read returns the extent's payload.
func TestPagedStoreConcurrentReads(t *testing.T) {
	s, ids, payloads := mmapTestStore(t)
	var wg sync.WaitGroup
	defer wg.Wait()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := (g + i) % len(ids)
				read := s.Read
				if g%2 == 1 {
					read = s.ViewExtent
				}
				if got, _, err := read(ids[k]); err != nil || !bytes.Equal(got, payloads[k]) {
					t.Errorf("reader %d: extent %d: %v", g, ids[k], err)
					return
				}
			}
		}(g)
	}
	for i := 0; i < 50; i++ {
		id, err := s.Alloc(1 + i%3)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Write(id, 1+i%3, []byte("writer")); err != nil {
			t.Fatal(err)
		}
		if i%10 == 9 {
			if err := s.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestStatsSub(t *testing.T) {
	a := Stats{Reads: 10, Writes: 5, Allocs: 3, Frees: 1, Hits: 7, Misses: 3, BytesRead: 100, BytesWritten: 50}
	b := Stats{Reads: 4, Writes: 2, Allocs: 1, Frees: 0, Hits: 3, Misses: 1, BytesRead: 40, BytesWritten: 20}
	d := a.Sub(b)
	want := Stats{Reads: 6, Writes: 3, Allocs: 2, Frees: 1, Hits: 4, Misses: 2, BytesRead: 60, BytesWritten: 30}
	if d != want {
		t.Fatalf("Sub = %+v", d)
	}
}

func TestBlocksForAndCapacity(t *testing.T) {
	if BlocksFor(256, 0) != 1 {
		t.Error("empty payload still needs one block")
	}
	if BlocksFor(256, ExtentCapacity(256, 1)) != 1 {
		t.Error("exactly-full payload fits one block")
	}
	if BlocksFor(256, ExtentCapacity(256, 1)+1) != 2 {
		t.Error("one byte over needs two blocks")
	}
	if got := BlocksFor(256, 1000); got != 4 {
		t.Errorf("BlocksFor(256,1000) = %d", got)
	}
}

func TestPagedStorePersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "persist.dc")
	s, err := OpenPagedStore(path, 128, 0)
	if err != nil {
		t.Fatal(err)
	}
	type ext struct {
		id     PageID
		blocks int
		data   []byte
	}
	rng := rand.New(rand.NewSource(42))
	var live []ext
	for i := 0; i < 200; i++ {
		blocks := 1 + rng.Intn(4)
		id, err := s.Alloc(blocks)
		if err != nil {
			t.Fatal(err)
		}
		data := make([]byte, rng.Intn(ExtentCapacity(128, blocks)+1))
		rng.Read(data)
		if err := s.Write(id, blocks, data); err != nil {
			t.Fatal(err)
		}
		live = append(live, ext{id, blocks, data})
		// Randomly free ~25%.
		if len(live) > 4 && rng.Intn(4) == 0 {
			k := rng.Intn(len(live))
			if err := s.Free(live[k].id, live[k].blocks); err != nil {
				t.Fatal(err)
			}
			live = append(live[:k], live[k+1:]...)
		}
	}
	if err := s.SetMeta([]byte("root=42")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen and verify every live extent plus meta.
	s2, err := OpenPagedStore(path, 128, 0)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	meta, err := s2.GetMeta()
	if err != nil || string(meta) != "root=42" {
		t.Fatalf("meta after reopen = %q, %v", meta, err)
	}
	for _, e := range live {
		data, blocks, err := s2.Read(e.id)
		if err != nil || blocks != e.blocks || !bytes.Equal(data, e.data) {
			t.Fatalf("extent %d after reopen: blocks=%d err=%v match=%v",
				e.id, blocks, err, bytes.Equal(data, e.data))
		}
	}
	// Freed extents must be reusable after reopen.
	id, err := s2.Alloc(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Write(id, 2, []byte("reused")); err != nil {
		t.Fatal(err)
	}
}

func TestPagedStoreReopenWrongBlockSize(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bs.dc")
	s, err := OpenPagedStore(path, 128, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := OpenPagedStore(path, 256, 0); err == nil {
		t.Fatal("reopen with different block size accepted")
	}
}

func TestPagedStoreCorruptHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corrupt.dc")
	s, _ := OpenPagedStore(path, 128, 0)
	s.Close()
	// Truncate into the header.
	f, err := openTrunc(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := OpenPagedStore(path, 128, 0); err == nil {
		t.Fatal("corrupt header accepted")
	}
}

func TestMemStoreExtentCount(t *testing.T) {
	s := NewMemStore(256)
	a, _ := s.Alloc(1)
	b, _ := s.Alloc(2)
	if s.ExtentCount() != 2 {
		t.Fatalf("ExtentCount = %d", s.ExtentCount())
	}
	s.Free(a, 1)
	if s.ExtentCount() != 1 {
		t.Fatalf("ExtentCount = %d", s.ExtentCount())
	}
	// Wrong block count on write/free rejected.
	if err := s.Write(b, 1, []byte("x")); err == nil {
		t.Fatal("wrong blocks on write accepted")
	}
	if err := s.Free(b, 1); err == nil {
		t.Fatal("wrong blocks on free accepted")
	}
	if _, _, err := s.Read(PageID(999)); err == nil {
		t.Fatal("read of unknown id accepted")
	}
	if err := s.Write(PageID(999), 1, nil); err == nil {
		t.Fatal("write of unknown id accepted")
	}
}

func BenchmarkMemStoreReadWrite(b *testing.B) {
	s := NewMemStore(4096)
	id, _ := s.Alloc(1)
	payload := make([]byte, 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Write(id, 1, payload)
		s.Read(id)
	}
}

func BenchmarkPagedStoreWarmRead(b *testing.B) {
	path := filepath.Join(b.TempDir(), fmt.Sprintf("bench%d.dc", b.N))
	s, err := OpenPagedStore(path, 4096, 0)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	id, _ := s.Alloc(1)
	s.Write(id, 1, make([]byte, 1024))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Read(id)
	}
}
