package core

import (
	"errors"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/dcindex/dctree/internal/cube"
	"github.com/dcindex/dctree/internal/mds"
	"github.com/dcindex/dctree/internal/storage"
)

// crashStore fails every mutating operation once the op budget runs out,
// simulating a process death at an arbitrary point during Flush. All
// state persisted before the "crash" stays readable.
type crashStore struct {
	storage.Store
	budget int // mutations allowed before the crash; -1 = unlimited
}

var errCrashed = errors.New("simulated crash")

func (c *crashStore) spend() error {
	if c.budget < 0 {
		return nil
	}
	if c.budget == 0 {
		return errCrashed
	}
	c.budget--
	return nil
}

func (c *crashStore) Alloc(blocks int) (storage.PageID, error) {
	if err := c.spend(); err != nil {
		return storage.NilPage, err
	}
	return c.Store.Alloc(blocks)
}

func (c *crashStore) Write(id storage.PageID, blocks int, data []byte) error {
	if err := c.spend(); err != nil {
		return err
	}
	return c.Store.Write(id, blocks, data)
}

func (c *crashStore) Free(id storage.PageID, blocks int) error {
	if err := c.spend(); err != nil {
		return err
	}
	return c.Store.Free(id, blocks)
}

func (c *crashStore) SetMeta(data []byte) error {
	if err := c.spend(); err != nil {
		return err
	}
	return c.Store.SetMeta(data)
}

func (c *crashStore) Sync() error {
	if err := c.spend(); err != nil {
		return err
	}
	return c.Store.Sync()
}

// TestCrashDuringFlushPreservesLastCheckpoint is the shadow-paging
// guarantee: whatever point a flush dies at, reopening the store yields
// exactly the previously flushed tree.
func TestCrashDuringFlushPreservesLastCheckpoint(t *testing.T) {
	cfg := smallConfig()
	s := testSchema(t)
	rng := rand.New(rand.NewSource(201))
	warm := genRecords(t, s, rng, 300)
	extra := genRecords(t, s, rng, 200)

	// Determine how many store mutations a full second flush performs, so
	// the crash sweep covers every prefix.
	probeStore := &crashStore{Store: storage.NewMemStore(cfg.BlockSize), budget: -1}
	probe, err := New(probeStore, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range warm {
		probe.Insert(r)
	}
	if err := probe.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, r := range extra {
		probe.Insert(r)
	}
	before := probeStore.Stats()
	if err := probe.Flush(); err != nil {
		t.Fatal(err)
	}
	delta := probeStore.Stats().Sub(before)
	totalOps := int(delta.Allocs + delta.Writes + delta.Frees + 2) // + meta + sync

	checkpointCount := int64(len(warm))
	for budget := 0; budget < totalOps; budget += 3 {
		cs := &crashStore{Store: storage.NewMemStore(cfg.BlockSize), budget: -1}
		tree, err := New(cs, s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range warm {
			if err := tree.Insert(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := tree.Flush(); err != nil {
			t.Fatalf("checkpoint flush: %v", err)
		}
		checkpointSum, err := rangeAgg(tree, tree.RootMDS(), 0)
		if err != nil {
			t.Fatal(err)
		}

		for _, r := range extra {
			if err := tree.Insert(r); err != nil {
				t.Fatal(err)
			}
		}
		cs.budget = budget
		err = tree.Flush()
		cs.budget = -1
		// Failures after the durable metadata swap (releasing shadowed
		// extents) are absorbed and retried at the next checkpoint, so a
		// large enough budget lets the flush succeed; any reported error
		// must be the injected crash.
		flushSucceeded := err == nil
		if err != nil && !errors.Is(err, errCrashed) {
			t.Fatalf("budget %d: unexpected flush error %v", budget, err)
		}

		// "Reboot": reopen from the store contents only. Atomicity means
		// exactly one of two states is visible: the checkpoint (crash
		// before the metadata swap committed) or the complete new tree
		// (crash after — only the release of shadowed extents was lost).
		reopened, err := Open(cs.Store)
		if err != nil {
			t.Fatalf("budget %d: Open after crash: %v", budget, err)
		}
		newCount := checkpointCount + int64(len(extra))
		switch reopened.Count() {
		case checkpointCount:
			if flushSucceeded {
				t.Fatalf("budget %d: flush reported success but only the checkpoint survived", budget)
			}
			got, err := rangeAgg(reopened, reopened.RootMDS(), 0)
			if err != nil {
				t.Fatal(err)
			}
			if got.Count != checkpointSum.Count || !floatClose(got.Sum, checkpointSum.Sum) {
				t.Fatalf("budget %d: checkpoint agg %+v, want %+v", budget, got, checkpointSum)
			}
		case newCount:
			// Post-commit crash: the full new state must be present.
		default:
			t.Fatalf("budget %d: reopened count %d, want %d (checkpoint) or %d (committed)",
				budget, reopened.Count(), checkpointCount, newCount)
		}
		if err := reopened.Validate(); err != nil {
			t.Fatalf("budget %d: reopened tree corrupt: %v", budget, err)
		}
	}
}

// TestCrashAfterDeleteFlush covers the dropNode deferred-free path: a
// crash between a delete's flush steps must not have recycled extents the
// previous checkpoint still references.
func TestCrashAfterDeleteFlush(t *testing.T) {
	cfg := smallConfig()
	cs := &crashStore{Store: storage.NewMemStore(cfg.BlockSize), budget: -1}
	s := testSchema(t)
	tree, err := New(cs, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(203))
	recs := genRecords(t, s, rng, 400)
	for _, r := range recs {
		tree.Insert(r)
	}
	if err := tree.Flush(); err != nil {
		t.Fatal(err)
	}
	// Delete enough to empty nodes (dropNode path), then crash mid-flush.
	for _, r := range recs[:200] {
		if err := tree.Delete(r); err != nil {
			t.Fatal(err)
		}
	}
	cs.budget = 5
	if err := tree.Flush(); err == nil {
		t.Fatal("flush survived crash budget")
	}
	cs.budget = -1

	reopened, err := Open(cs.Store)
	if err != nil {
		t.Fatalf("Open after crashed delete-flush: %v", err)
	}
	if reopened.Count() != 400 {
		t.Fatalf("reopened count = %d, want the 400-record checkpoint", reopened.Count())
	}
	if err := reopened.Validate(); err != nil {
		t.Fatalf("reopened tree corrupt: %v", err)
	}
	var total cube.Agg
	for _, r := range recs {
		total.Add(r.Measures[0])
	}
	got, _ := rangeAgg(reopened, reopened.RootMDS(), 0)
	if got.Count != total.Count {
		t.Fatalf("agg count %d want %d", got.Count, total.Count)
	}
}

// TestGroupCommitCrashStress drives the group-commit path from many
// goroutines — with checkpoints racing the commit leaders' fsyncs — then
// snapshots the files mid-flight as a crash image and proves the
// durability contract: every Insert acknowledged before the snapshot is
// present in the recovered tree. Run under -race this also exercises the
// Sync-vs-Truncate interaction between a commit leader and Flush.
func TestGroupCommitCrashStress(t *testing.T) {
	const (
		workers   = 8
		perWorker = 120
	)
	dir := t.TempDir()
	storePath := filepath.Join(dir, "store.dc")
	walPrefix := filepath.Join(dir, "idx")
	cfg := smallConfig()

	st, err := storage.OpenPagedStore(storePath, cfg.BlockSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	schema := testSchema(t)
	tree, err := NewDurable(st, schema, cfg, walPrefix)
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()

	// Pre-generate records with a unique measure key per record so
	// membership in the recovered tree is unambiguous.
	rng := rand.New(rand.NewSource(99))
	recs := genRecords(t, schema, rng, workers*perWorker)
	for i := range recs {
		recs[i].Measures[0] = float64(i) + 0.125
	}

	var (
		ackedMu sync.Mutex
		acked   []cube.Record
	)
	ackedCount := func() int {
		ackedMu.Lock()
		defer ackedMu.Unlock()
		return len(acked)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r := recs[w*perWorker+i]
				if err := tree.Insert(r); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				ackedMu.Lock()
				acked = append(acked, r)
				ackedMu.Unlock()
			}
		}(w)
	}

	// Checkpoints concurrent with appends and group commits: Flush
	// truncates the log out from under a leader's in-flight fsync,
	// which must be absorbed, not surface as a commit failure.
	for i := 0; i < 5; i++ {
		if err := tree.Flush(); err != nil {
			t.Fatalf("concurrent checkpoint %d: %v", i, err)
		}
		time.Sleep(time.Millisecond)
	}
	afterCheckpoints := ackedCount()

	// Let more inserts land past the last checkpoint, then snapshot the
	// files as a crash image while workers keep appending. No checkpoint
	// runs concurrently with the copy, so the store file is quiescent;
	// the WAL tail may be torn mid-frame, which recovery must absorb.
	for ackedCount() < afterCheckpoints+200 && ackedCount() < workers*perWorker {
		time.Sleep(200 * time.Microsecond)
	}
	ackedMu.Lock()
	ackedSnapshot := make([]cube.Record, len(acked))
	copy(ackedSnapshot, acked)
	ackedMu.Unlock()
	crashDir := filepath.Join(dir, "crash")
	imgStore, imgPrefix := copyCrashImage(t, storePath, walPrefix, crashDir)

	wg.Wait()
	if t.Failed() {
		return
	}

	// The live tree must have batched: strictly fewer fsyncs than appends.
	stats := tree.WALStats()
	if stats.Appends == 0 || stats.Syncs == 0 {
		t.Fatalf("no WAL activity recorded: %+v", stats)
	}
	if stats.Syncs >= stats.Appends {
		t.Errorf("group commit did not batch: %d syncs for %d appends", stats.Syncs, stats.Appends)
	}

	// Recover the crash image. The image's own log tail plus its
	// checkpoint define the exact recovered record set.
	inserts, deletes := imageRecords(t, schema, imgStore, imgPrefix, cfg.BlockSize)
	if len(deletes) != 0 {
		t.Fatalf("image log holds %d deletes, workload had none", len(deletes))
	}
	cst, err := storage.OpenPagedStore(imgStore, cfg.BlockSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cst.Close()
	ctree, err := OpenDurable(cst, imgPrefix)
	if err != nil {
		t.Fatalf("crash image failed to reopen: %v", err)
	}
	defer ctree.Close()
	if got, want := ctree.Metrics().RecoveryReplayedRecords, int64(len(inserts)); got != want {
		t.Fatalf("replayed %d records, image log holds %d", got, want)
	}
	if err := ctree.Validate(); err != nil {
		t.Fatalf("recovered tree invalid: %v", err)
	}

	// Durability: every acknowledged insert is in the recovered tree —
	// either replayed from the log or inside the checkpointed state.
	replayed := make(map[float64]bool, len(inserts))
	for _, r := range inserts {
		replayed[r.Measures[0]] = true
	}
	checkpointed := int(ctree.Count()) - len(inserts)
	if checkpointed < 0 {
		t.Fatalf("image replayed %d inserts into a tree of %d", len(inserts), ctree.Count())
	}
	missing := 0
	for _, r := range ackedSnapshot {
		if !replayed[r.Measures[0]] {
			missing++ // must be covered by the checkpoint instead
		}
	}
	if missing > checkpointed {
		t.Fatalf("%d acked records in neither the replayable log nor the checkpoint (checkpoint holds %d)",
			missing-checkpointed, checkpointed)
	}
	if got, want := int(ctree.Count()), len(ackedSnapshot); got < want {
		t.Fatalf("recovered %d records, but %d were acknowledged before the crash", got, want)
	}

	// The root aggregate must account for every recovered record.
	all, err := rangeAgg(ctree, mds.Top(schema.Dims()), 0)
	if err != nil {
		t.Fatal(err)
	}
	if int64(all.Count) != ctree.Count() {
		t.Fatalf("root aggregate count %v != tree count %d", all.Count, ctree.Count())
	}
}

// TestFlushRecoversAfterCrash checks the in-memory tree remains usable and
// can complete a later flush after a failed one.
func TestFlushRecoversAfterCrash(t *testing.T) {
	cfg := smallConfig()
	cs := &crashStore{Store: storage.NewMemStore(cfg.BlockSize), budget: -1}
	s := testSchema(t)
	tree, err := New(cs, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(207))
	for _, r := range genRecords(t, s, rng, 300) {
		tree.Insert(r)
	}
	cs.budget = 7
	if err := tree.Flush(); err == nil {
		t.Fatal("flush survived crash budget")
	}
	cs.budget = -1
	if err := tree.Flush(); err != nil {
		t.Fatalf("retry flush: %v", err)
	}
	reopened, err := Open(cs.Store)
	if err != nil {
		t.Fatal(err)
	}
	if reopened.Count() != 300 {
		t.Fatalf("count = %d", reopened.Count())
	}
	if err := reopened.Validate(); err != nil {
		t.Fatal(err)
	}
}
