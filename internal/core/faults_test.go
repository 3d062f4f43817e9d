package core

import (
	"errors"
	"math/rand"
	"testing"

	"github.com/dcindex/dctree/internal/storage"
)

// faultStore wraps a Store and fails operations once armed. It injects
// the storage-layer errors the tree must surface without corrupting its
// in-memory state.
type faultStore struct {
	storage.Store
	failReads  bool
	failWrites bool
	failAllocs bool
	failMeta   bool
}

var errInjected = errors.New("injected fault")

func (f *faultStore) Read(id storage.PageID) ([]byte, int, error) {
	if f.failReads {
		return nil, 0, errInjected
	}
	return f.Store.Read(id)
}

func (f *faultStore) Write(id storage.PageID, blocks int, data []byte) error {
	if f.failWrites {
		return errInjected
	}
	return f.Store.Write(id, blocks, data)
}

func (f *faultStore) Alloc(blocks int) (storage.PageID, error) {
	if f.failAllocs {
		return storage.NilPage, errInjected
	}
	return f.Store.Alloc(blocks)
}

func (f *faultStore) SetMeta(data []byte) error {
	if f.failMeta {
		return errInjected
	}
	return f.Store.SetMeta(data)
}

func buildFaultTree(t *testing.T) (*Tree, *faultStore) {
	t.Helper()
	cfg := smallConfig()
	fs := &faultStore{Store: storage.NewMemStore(cfg.BlockSize)}
	s := testSchema(t)
	tree, err := New(fs, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(91))
	for _, r := range genRecords(t, s, rng, 300) {
		if err := tree.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	return tree, fs
}

func TestFlushSurfacesWriteErrors(t *testing.T) {
	tree, fs := buildFaultTree(t)
	fs.failWrites = true
	if err := tree.Flush(); !errors.Is(err, errInjected) {
		t.Fatalf("Flush with failing writes = %v", err)
	}
	// Recovery: clearing the fault lets the same Flush succeed (dirty
	// bookkeeping was not lost).
	fs.failWrites = false
	if err := tree.Flush(); err != nil {
		t.Fatalf("Flush after fault cleared: %v", err)
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("Validate after recovery: %v", err)
	}
}

func TestFlushSurfacesAllocAndMetaErrors(t *testing.T) {
	tree, fs := buildFaultTree(t)
	fs.failAllocs = true
	if err := tree.Flush(); !errors.Is(err, errInjected) {
		t.Fatalf("Flush with failing allocs = %v", err)
	}
	fs.failAllocs = false
	fs.failMeta = true
	if err := tree.Flush(); !errors.Is(err, errInjected) {
		t.Fatalf("Flush with failing meta = %v", err)
	}
	fs.failMeta = false
	if err := tree.Flush(); err != nil {
		t.Fatalf("Flush after faults cleared: %v", err)
	}
}

func TestQuerySurfacesReadErrors(t *testing.T) {
	tree, fs := buildFaultTree(t)
	if err := tree.Flush(); err != nil {
		t.Fatal(err)
	}
	tree.EvictCache()
	fs.failReads = true
	q := tree.RootMDS()
	if _, err := rangeAgg(tree, q, 0); !errors.Is(err, errInjected) {
		t.Fatalf("cold query with failing reads = %v", err)
	}
	// Clearing the fault restores service.
	fs.failReads = false
	if _, err := rangeAgg(tree, q, 0); err != nil {
		t.Fatalf("query after fault cleared: %v", err)
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("Validate after read faults: %v", err)
	}
}

func TestOpenSurfacesCorruptMeta(t *testing.T) {
	cfg := smallConfig()
	store := storage.NewMemStore(cfg.BlockSize)
	s := testSchema(t)
	tree, err := New(store, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(93))
	for _, r := range genRecords(t, s, rng, 100) {
		tree.Insert(r)
	}
	if err := tree.Flush(); err != nil {
		t.Fatal(err)
	}
	meta, err := store.GetMeta()
	if err != nil {
		t.Fatal(err)
	}
	// Truncations anywhere in the metadata must be rejected, never panic.
	for cut := 0; cut < len(meta); cut += 7 {
		store.SetMeta(meta[:cut])
		if _, err := Open(store); err == nil {
			t.Fatalf("Open accepted metadata truncated at %d", cut)
		}
	}
	// Bit flips in the header area must be rejected too.
	for i := 0; i < 16 && i < len(meta); i++ {
		bad := append([]byte(nil), meta...)
		bad[i] ^= 0xFF
		store.SetMeta(bad)
		if _, err := Open(store); err == nil {
			t.Logf("note: header byte %d flip undetected (field tolerant by design)", i)
		}
	}
	// Restoring the original metadata restores the tree.
	store.SetMeta(meta)
	reopened, err := Open(store)
	if err != nil {
		t.Fatalf("Open after restore: %v", err)
	}
	if err := reopened.Validate(); err != nil {
		t.Fatalf("Validate after restore: %v", err)
	}
}

func TestOpenSurfacesCorruptNodes(t *testing.T) {
	cfg := smallConfig()
	store := storage.NewMemStore(cfg.BlockSize)
	s := testSchema(t)
	tree, err := New(store, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(95))
	for _, r := range genRecords(t, s, rng, 400) {
		tree.Insert(r)
	}
	if err := tree.Flush(); err != nil {
		t.Fatal(err)
	}

	// Overwrite every node extent with garbage; reopening parses the
	// metadata fine but the first descent must fail cleanly.
	reopened, err := Open(store)
	if err != nil {
		t.Fatal(err)
	}
	for id, ref := range reopened.table {
		_ = id
		garbage := make([]byte, 16)
		rng.Read(garbage)
		if err := store.Write(ref.page, ref.blocks, garbage); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rangeAgg(reopened, reopened.RootMDS(), 0); err == nil {
		t.Fatal("query over garbage nodes succeeded")
	}
}
