package core

import (
	"context"
	"errors"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/dcindex/dctree/internal/cube"
	"github.com/dcindex/dctree/internal/storage"
)

// The checkpoint suite pins the error-path contract of the fuzzy
// checkpoint: a failed checkpoint leaks nothing and changes nothing, a
// failed free after a durable swap defers instead of corrupting, and the
// dirty-but-absent invariant fails loudly.

// faultTree builds a tree over a FaultStore-wrapped MemStore so tests can
// inject per-op failures and audit extent counts.
func faultTree(t *testing.T, cfg Config) (*Tree, *storage.FaultStore, *storage.MemStore) {
	t.Helper()
	ms := storage.NewMemStore(cfg.BlockSize)
	fs := storage.NewFaultStore(ms)
	tree, err := New(fs, testSchema(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tree, fs, ms
}

// TestCheckpointRollbackReleasesFreshExtents is the regression test for the
// shadow-extent leak: a checkpoint that dies mid-write (Alloc or Write)
// must free every fresh extent it allocated and leave the table pointing at
// the old, still-valid extents. Before the fix the failed flush left the
// table referencing half-written extents and orphaned the rest.
func TestCheckpointRollbackReleasesFreshExtents(t *testing.T) {
	tree, fs, ms := faultTree(t, smallConfig())
	s := tree.Schema()
	rng := rand.New(rand.NewSource(11))
	warm := genRecords(t, s, rng, 300)
	for _, r := range warm {
		if err := tree.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.Flush(); err != nil {
		t.Fatal(err)
	}
	more := genRecords(t, s, rng, 200)
	for _, r := range more {
		if err := tree.Insert(r); err != nil {
			t.Fatal(err)
		}
	}

	before := ms.ExtentCount()
	plans := []storage.FaultPlan{
		{Mode: storage.FailStop, Op: "write", Budget: 2, Transient: true},
		{Mode: storage.FailStop, Op: "alloc", Budget: 1, Transient: true},
		{Mode: storage.FailStop, Op: "setmeta", Transient: true},
		{Mode: storage.FailStop, Op: "sync", Transient: true},
	}
	for _, plan := range plans {
		fs.ArmPlan(plan)
		err := tree.Flush()
		fired := fs.Fired()
		fs.Disarm()
		if err == nil {
			t.Fatalf("op %q: flush survived the injected fault", plan.Op)
		}
		if !fired {
			t.Fatalf("op %q: fault never fired", plan.Op)
		}
		if got := ms.ExtentCount(); got != before {
			t.Fatalf("op %q: extent count %d after failed flush, want %d (leak)", plan.Op, got, before)
		}
	}
	if fails := tree.Metrics().CheckpointFailures; fails != int64(len(plans)) {
		t.Fatalf("CheckpointFailures = %d, want %d", fails, len(plans))
	}

	// The rolled-back tree retries cleanly and persists the full state.
	if err := tree.Flush(); err != nil {
		t.Fatalf("retry flush: %v", err)
	}
	all := append(append([]cube.Record(nil), warm...), more...)
	verifyAgainstOracle(t, tree, all, 15, 13)
	if rep := tree.VerifyExtents(); !rep.OK() {
		t.Fatalf("verify after retry: %d damaged extents", len(rep.Errors))
	}
}

// TestCheckpointFreeFailureIsDeferred is the regression test for the lost
// pending-free tail: once the metadata swap is durable, a Free that fails
// must not fail the checkpoint — the extent stays queued and the next
// checkpoint reclaims it. Before the fix the pending list was cleared
// up front and a partial Free failure leaked the unfreed tail forever.
func TestCheckpointFreeFailureIsDeferred(t *testing.T) {
	tree, fs, ms := faultTree(t, smallConfig())
	s := tree.Schema()
	rng := rand.New(rand.NewSource(17))
	warm := genRecords(t, s, rng, 300)
	for _, r := range warm {
		if err := tree.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.Flush(); err != nil {
		t.Fatal(err)
	}
	more := genRecords(t, s, rng, 300) // rewrites old extents, splits queue frees
	for _, r := range more {
		if err := tree.Insert(r); err != nil {
			t.Fatal(err)
		}
	}

	fs.ArmPlan(storage.FaultPlan{Mode: storage.FailStop, Op: "free", Transient: true})
	err := tree.Flush()
	fired := fs.Fired()
	fs.Disarm()
	if err != nil {
		t.Fatalf("flush failed on a post-swap free: %v", err)
	}
	if !fired {
		t.Fatal("free fault never fired; workload produced no frees")
	}
	deferred := tree.Metrics().CheckpointDeferredFrees
	if deferred < 1 {
		t.Fatalf("CheckpointDeferredFrees = %d, want >= 1", deferred)
	}

	// The deferred extent is reclaimed by the next checkpoint: afterwards
	// the store holds exactly the extents the translation table references.
	if err := tree.Flush(); err != nil {
		t.Fatal(err)
	}
	rep := tree.VerifyExtents()
	if !rep.OK() {
		t.Fatalf("verify: %d damaged extents", len(rep.Errors))
	}
	if got := ms.ExtentCount(); got != rep.Extents {
		t.Fatalf("store holds %d extents, table references %d (deferred free never retried)", got, rep.Extents)
	}
	all := append(append([]cube.Record(nil), warm...), more...)
	verifyAgainstOracle(t, tree, all, 15, 19)
}

// TestCheckpointPhantomDirtyNotInTable: a dirty flag with no in-memory node
// and no extent behind it is a stale leftover; the checkpoint clears it and
// carries on instead of failing or looping on it forever.
func TestCheckpointPhantomDirtyNotInTable(t *testing.T) {
	tree := newTestTree(t, smallConfig())
	rng := rand.New(rand.NewSource(23))
	for _, r := range genRecords(t, tree.Schema(), rng, 100) {
		if err := tree.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.Flush(); err != nil {
		t.Fatal(err)
	}
	tree.mu.Lock()
	tree.nc.markDirty(nodeID(1 << 40)) // never allocated
	tree.mu.Unlock()
	if err := tree.Flush(); err != nil {
		t.Fatalf("flush with phantom flag: %v", err)
	}
	if n := tree.nc.dirtyLen(); n != 0 {
		t.Fatalf("%d dirty flags survive the flush; phantom not cleared", n)
	}
}

// TestCheckpointPhantomDirtyInTable is the regression test for the silent
// skip: a node that is dirty, absent from the cache, but present in the
// table has lost unpersisted mutations (EvictCache keeps dirty nodes
// resident), and checkpointing its stale extent as current would be silent
// data loss. The checkpoint must refuse with ErrCorrupt.
func TestCheckpointPhantomDirtyInTable(t *testing.T) {
	tree := newTestTree(t, smallConfig())
	rng := rand.New(rand.NewSource(29))
	for _, r := range genRecords(t, tree.Schema(), rng, 100) {
		if err := tree.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.Flush(); err != nil {
		t.Fatal(err)
	}
	tree.EvictCache() // everything clean → cache empties, table stays

	tree.mu.Lock()
	var victim nodeID
	for id := range tree.table {
		victim = id
		break
	}
	resident := tree.nc.get(victim) != nil
	tree.nc.markDirty(victim)
	tree.mu.Unlock()
	if resident {
		t.Fatal("victim still resident after evict; test premise broken")
	}

	if err := tree.Flush(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("flush with dirty evicted node = %v, want ErrCorrupt", err)
	}
}

// gateStore blocks the first extent write until released, holding a fuzzy
// checkpoint inside its background phase so the test can mutate the tree
// mid-checkpoint deterministically.
type gateStore struct {
	storage.Store
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func (g *gateStore) Write(id storage.PageID, blocks int, data []byte) error {
	g.once.Do(func() {
		close(g.entered)
		<-g.release
	})
	return g.Store.Write(id, blocks, data)
}

// TestCheckpointRequeuesReDirtiedNodes drives the fuzzy protocol's core
// property: inserts proceed while the background phase writes, and a node
// re-dirtied after capture keeps its dirty flag (the checkpoint persists
// the captured version; the next one picks up the newer state).
func TestCheckpointRequeuesReDirtiedNodes(t *testing.T) {
	cfg := smallConfig()
	gs := &gateStore{
		Store:   storage.NewMemStore(cfg.BlockSize),
		entered: make(chan struct{}),
		release: make(chan struct{}),
	}
	s := testSchema(t)
	tree, err := New(gs, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	warm := genRecords(t, s, rng, 300)
	for _, r := range warm {
		if err := tree.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	extra := genRecords(t, s, rng, 100)

	done := make(chan error, 1)
	go func() { done <- tree.Checkpoint(context.Background()) }()
	<-gs.entered // background write phase is in flight, tree lock free

	// These inserts MUST NOT block on the checkpoint (the old synchronous
	// flush held the write lock for the whole store pass). They re-dirty
	// captured nodes — at minimum the root, which is on every insert path.
	for _, r := range extra {
		if err := tree.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	close(gs.release)
	if err := <-done; err != nil {
		t.Fatalf("checkpoint: %v", err)
	}

	if re := tree.Metrics().CheckpointRequeuedNodes; re == 0 {
		t.Fatal("no node was requeued; inserts did not overlap the background phase")
	}
	if n := tree.nc.dirtyLen(); n == 0 {
		t.Fatal("re-dirtied nodes lost their dirty flags at install")
	}

	// The next checkpoint persists the newer state; a cold reopen of the
	// store must see every record.
	if err := tree.Flush(); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(gs.Store)
	if err != nil {
		t.Fatal(err)
	}
	all := append(append([]cube.Record(nil), warm...), extra...)
	verifyAgainstOracle(t, reopened, all, 15, 37)
}

// TestFuzzyCheckpointConcurrentInserts is the -race stress demanded by the
// durability contract: concurrent inserters race several background
// checkpoints on a real paged store + WAL, and after close + recovery the
// tree answers exactly like a seqscan oracle.
func TestFuzzyCheckpointConcurrentInserts(t *testing.T) {
	dir := t.TempDir()
	storePath := filepath.Join(dir, "store.dc")
	walPrefix := filepath.Join(dir, "idx")
	cfg := smallConfig()

	st, err := storage.OpenPagedStore(storePath, cfg.BlockSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	schema := testSchema(t)
	tree, err := NewDurable(st, schema, cfg, walPrefix)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(41))
	recs := genRecords(t, schema, rng, 800)

	const writers = 4
	var wg sync.WaitGroup
	errs := make(chan error, writers+1)
	per := len(recs) / writers
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(batch []cube.Record) {
			defer wg.Done()
			for _, r := range batch {
				if err := tree.Insert(r); err != nil {
					errs <- err
					return
				}
			}
		}(recs[w*per : (w+1)*per])
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			if err := tree.Checkpoint(context.Background()); err != nil {
				errs <- err
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := tree.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := storage.OpenPagedStore(storePath, cfg.BlockSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	tree2, err := OpenDurable(st2, walPrefix)
	if err != nil {
		t.Fatal(err)
	}
	defer tree2.Close()
	verifyAgainstOracle(t, tree2, recs, 25, 43)
	if rep := tree2.VerifyExtents(); !rep.OK() {
		t.Fatalf("verify after recovery: %d damaged extents", len(rep.Errors))
	}
}

// TestAutoCheckpointer covers both triggers of the background checkpointer
// and the persistence of its knobs through the metadata.
func TestAutoCheckpointer(t *testing.T) {
	waitFor := func(t *testing.T, tree *Tree, what string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for tree.Metrics().Checkpoints == 0 {
			if time.Now().After(deadline) {
				t.Fatalf("%s: no checkpoint fired", what)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	t.Run("interval", func(t *testing.T) {
		dir := t.TempDir()
		cfg := smallConfig()
		cfg.CheckpointInterval = 20 * time.Millisecond
		st, err := storage.OpenPagedStore(filepath.Join(dir, "store.dc"), cfg.BlockSize, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		tree, err := NewDurable(st, testSchema(t), cfg, filepath.Join(dir, "idx"))
		if err != nil {
			t.Fatal(err)
		}
		defer tree.Close()
		rng := rand.New(rand.NewSource(47))
		for _, r := range genRecords(t, tree.Schema(), rng, 50) {
			if err := tree.Insert(r); err != nil {
				t.Fatal(err)
			}
		}
		waitFor(t, tree, "interval trigger")
	})
	t.Run("dirty-bytes", func(t *testing.T) {
		dir := t.TempDir()
		cfg := smallConfig()
		cfg.CheckpointDirtyBytes = 1 // any dirty node trips the threshold
		st, err := storage.OpenPagedStore(filepath.Join(dir, "store.dc"), cfg.BlockSize, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		tree, err := NewDurable(st, testSchema(t), cfg, filepath.Join(dir, "idx"))
		if err != nil {
			t.Fatal(err)
		}
		defer tree.Close()
		rng := rand.New(rand.NewSource(53))
		for _, r := range genRecords(t, tree.Schema(), rng, 50) {
			if err := tree.Insert(r); err != nil {
				t.Fatal(err)
			}
		}
		waitFor(t, tree, "dirty-bytes trigger")
	})
	t.Run("knobs-persist", func(t *testing.T) {
		// The v3 metadata carries both knobs, so a reopened tree resumes
		// auto-checkpointing without the caller re-passing its Config.
		cfg := smallConfig()
		cfg.CheckpointInterval = 42 * time.Second
		cfg.CheckpointDirtyBytes = 1 << 20
		ms := storage.NewMemStore(cfg.BlockSize)
		tree, err := New(ms, testSchema(t), cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(59))
		for _, r := range genRecords(t, tree.Schema(), rng, 20) {
			if err := tree.Insert(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := tree.Flush(); err != nil {
			t.Fatal(err)
		}
		reopened, err := Open(ms)
		if err != nil {
			t.Fatal(err)
		}
		if got := reopened.cfg.CheckpointInterval; got != cfg.CheckpointInterval {
			t.Fatalf("CheckpointInterval after reopen = %v", got)
		}
		if got := reopened.cfg.CheckpointDirtyBytes; got != cfg.CheckpointDirtyBytes {
			t.Fatalf("CheckpointDirtyBytes after reopen = %d", got)
		}
	})
}
