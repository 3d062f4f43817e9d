package core

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dcindex/dctree/internal/cube"
	"github.com/dcindex/dctree/internal/mds"
	"github.com/dcindex/dctree/internal/storage"
)

// The self-clocking commit path has no timer to assert against, so these
// tests assert counts: how many fsyncs, how many records per fsync, which
// callers saw which error.

// newGroupCommitTree builds a file-backed durable tree plus n records
// interned BEFORE the tree exists, so no insert carries a dictionary delta
// and every acknowledged insert is exactly one log record.
func newGroupCommitTree(t *testing.T, wopts storage.WALOptions, n int) (tree *Tree, recs []cube.Record, storePath, walPrefix string) {
	t.Helper()
	dir := t.TempDir()
	storePath, walPrefix = filepath.Join(dir, "store.dc"), filepath.Join(dir, "idx")
	cfg := smallConfig()
	st, err := storage.OpenPagedStore(storePath, cfg.BlockSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	schema := testSchema(t)
	recs = genRecords(t, schema, rand.New(rand.NewSource(int64(n))), n)
	tree, err = NewDurableOpts(st, schema, cfg, walPrefix, wopts)
	if err != nil {
		t.Fatal(err)
	}
	return tree, recs, storePath, walPrefix
}

// TestGroupCommitSingleWriter: with one client nothing arrives while its
// fsync is in flight, so every batch is one record and every acknowledged
// write cost exactly one fsync — no window to wait out, none to fill.
func TestGroupCommitSingleWriter(t *testing.T) {
	tree, recs, _, _ := newGroupCommitTree(t, storage.WALOptions{}, 300)
	defer tree.Close()
	for _, r := range recs {
		if err := tree.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	m, stats := tree.Metrics(), tree.WALStats()
	if m.WALGroupCommitBatchMax != 1 || m.WALGroupCommitBatchMean != 1 {
		t.Fatalf("batch max/mean = %d/%g, want 1/1", m.WALGroupCommitBatchMax, m.WALGroupCommitBatchMean)
	}
	if m.WALFsyncs != int64(len(recs)) {
		t.Fatalf("commit fsyncs = %d for %d acknowledged writes", m.WALFsyncs, len(recs))
	}
	// The log's own count adds one fsync per rotation seal.
	if want := int64(len(recs) + stats.Segments - 1); stats.Syncs != want {
		t.Fatalf("log fsyncs = %d, want %d (%d writes, %d segments)", stats.Syncs, want, len(recs), stats.Segments)
	}
	if m.WALCommitWait.Count != int64(len(recs)) {
		t.Fatalf("commit-wait histogram holds %d observations, want %d", m.WALCommitWait.Count, len(recs))
	}
	if m.ReplQuorumWait.Count != 0 {
		t.Fatalf("quorum-wait histogram holds %d observations without SyncReplication", m.ReplQuorumWait.Count)
	}
	if m.WALCommitInterval != 0 {
		t.Fatalf("WALCommitInterval = %v, want 0 (there is no window)", m.WALCommitInterval)
	}
	var prom strings.Builder
	if err := m.WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	if want := "dctree_wal_commit_wait_seconds_count 300\n"; !strings.Contains(prom.String(), want) {
		t.Fatalf("Prometheus dump lacks %q", want)
	}
}

// TestGroupCommitFanInBatches: 32 writers against a 2 ms modeled device
// must share fsyncs — the batch is what the others appended while one
// fsync was in flight — and a crash image taken once all are acknowledged
// must recover every one of their records.
func TestGroupCommitFanInBatches(t *testing.T) {
	const writers, perWriter = 32, 12
	wopts := storage.WALOptions{SyncDelay: 2 * time.Millisecond}
	tree, recs, storePath, walPrefix := newGroupCommitTree(t, wopts, writers*perWriter)
	defer tree.Close()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(part []cube.Record) {
			defer wg.Done()
			for _, r := range part {
				if err := tree.Insert(r); err != nil {
					t.Error(err)
					return
				}
			}
		}(recs[w*perWriter : (w+1)*perWriter])
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	m := tree.Metrics()
	if m.WALGroupCommitBatchMean < 8 {
		t.Fatalf("batch mean = %.1f (max %d, %d fsyncs for %d writes), want >= 8",
			m.WALGroupCommitBatchMean, m.WALGroupCommitBatchMax, m.WALFsyncs, len(recs))
	}

	ctree := recoverImage(t, tree.cfg, storePath, walPrefix, filepath.Join(t.TempDir(), "img"))
	if got := ctree.Metrics().RecoveryReplayedRecords; got != int64(len(recs)) {
		t.Fatalf("replayed %d records, %d were acknowledged", got, len(recs))
	}
	verifyAgainstOracle(t, ctree, recs, 25, 32)
}

// TestGroupCommitSyncFailureIsSticky: a failed fsync must reach the leader
// that issued it, every waiter parked behind it, and every later write as
// the same error. The failure is injected by closing the log under the
// tree while the first writer's (successful) fsync is still in flight.
func TestGroupCommitSyncFailureIsSticky(t *testing.T) {
	const late = 4
	tree, recs, _, _ := newGroupCommitTree(t, storage.WALOptions{SyncDelay: 50 * time.Millisecond}, late+2)
	defer tree.Close() // fails on the poisoned log; the store is closed by cleanup
	ws := tree.wal

	first := make(chan error, 1)
	go func() { first <- tree.Insert(recs[0]) }()
	waitFor(t, "the first writer to lead a sync", func() bool {
		ws.mu.Lock()
		defer ws.mu.Unlock()
		return ws.syncing
	})
	errs := make(chan error, late)
	for _, r := range recs[1 : 1+late] {
		go func(r cube.Record) { errs <- tree.Insert(r) }(r)
	}
	waitFor(t, "the late writers to append", func() bool { return ws.w.LastLSN() == 1+late })
	if err := ws.w.Close(); err != nil {
		t.Fatal(err)
	}

	if err := <-first; err != nil {
		t.Fatalf("first writer (its fsync preceded the failure): %v", err)
	}
	for i := 0; i < late; i++ {
		if err := <-errs; !errors.Is(err, storage.ErrWALClosed) {
			t.Fatalf("late writer %d: err = %v, want the injected sync failure", i, err)
		}
	}
	if err := tree.Insert(recs[1+late]); !errors.Is(err, storage.ErrWALClosed) {
		t.Fatalf("insert after the failure: err = %v, want the same sticky error", err)
	}
	if got := tree.Metrics().WALFsyncs; got != 1 {
		t.Fatalf("commit fsyncs = %d, want 1 (only the first writer's succeeded)", got)
	}
}

// TestGroupCommitShutdownRace: shutdown racing leaders and parked waiters
// must leave every record that was appended durable in the files, return
// every waiter (nil if covered, ErrClosed if it slipped in behind the final
// sync), and leave no sync in flight. Driven at the walState level so the
// race is on the commit path alone.
func TestGroupCommitShutdownRace(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "idx")
	w, err := storage.OpenWAL(prefix, storage.WALOptions{SyncDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig()
	ws := newWALState(w, &cfg, new(treeMetrics))

	var (
		wg       sync.WaitGroup
		acked    atomic.Int64
		appended atomic.Uint64 // highest LSN any writer appended
	)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lsn, err := ws.append([]byte("shutdown-race-record"))
				if err != nil {
					if !errors.Is(err, storage.ErrWALClosed) {
						t.Errorf("append: %v", err)
					}
					return
				}
				for cur := appended.Load(); lsn > cur && !appended.CompareAndSwap(cur, lsn); cur = appended.Load() {
				}
				if err := ws.waitDurable(lsn); err != nil {
					if !errors.Is(err, ErrClosed) {
						t.Errorf("waitDurable(%d): %v", lsn, err)
					}
					return
				}
				acked.Add(1)
			}
		}()
	}
	waitFor(t, "some acknowledged writes", func() bool { return acked.Load() >= 64 })
	if err := ws.shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	wg.Wait() // every waiter returned: nothing is parked on a closed log
	ws.mu.Lock()
	syncing := ws.syncing
	ws.mu.Unlock()
	if syncing {
		t.Fatal("a sync is still marked in flight after shutdown")
	}

	reopened, err := storage.OpenWAL(prefix, storage.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if got, want := reopened.LastLSN(), appended.Load(); got != want {
		t.Fatalf("reopened log ends at LSN %d, writers appended through %d", got, want)
	}
}

// TestCloseRacesInserters is the Tree-level form of the shutdown race: eight
// inserters race Close, and every insert that returned nil — before, during
// or just ahead of the close — must be in the tree recovery rebuilds, while
// one that returned ErrClosed must have changed nothing. Run with -race:
// Close and the write path share t.wal and the closed latch.
func TestCloseRacesInserters(t *testing.T) {
	tree, recs, storePath, walPrefix := newGroupCommitTree(t, storage.WALOptions{SyncDelay: 200 * time.Microsecond}, 4000)
	const writers = 8
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		acked []cube.Record
		count atomic.Int64
	)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(mine []cube.Record) {
			defer wg.Done()
			for _, r := range mine {
				if err := tree.Insert(r); err != nil {
					if !errors.Is(err, ErrClosed) {
						t.Errorf("Insert: %v", err)
					}
					return
				}
				mu.Lock()
				acked = append(acked, r)
				mu.Unlock()
				count.Add(1)
			}
		}(recs[g*len(recs)/writers : (g+1)*len(recs)/writers])
	}
	waitFor(t, "some acknowledged inserts", func() bool { return count.Load() >= 200 })
	if err := tree.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	wg.Wait()
	if got := tree.Count(); got != int64(len(acked)) {
		t.Fatalf("closed tree holds %d records, %d inserts were acknowledged", got, len(acked))
	}
	if len(acked) == len(recs) {
		t.Fatal("every insert finished before Close: nothing raced")
	}
	re := recoverImage(t, tree.cfg, storePath, walPrefix, filepath.Join(t.TempDir(), "img"))
	if got := re.Count(); got != int64(len(acked)) {
		t.Fatalf("recovered tree holds %d records, %d inserts were acknowledged", got, len(acked))
	}
	verifyAgainstOracle(t, re, acked, 40, 5)
}

// TestMutationAfterCloseIsRefused: a closed tree changes neither in memory
// nor on disk. At the parent commit the insert below returned nil, Count
// read 11 and the reopened tree 10 — an acknowledged write lost.
func TestMutationAfterCloseIsRefused(t *testing.T) {
	tree, recs, storePath, walPrefix := newGroupCommitTree(t, storage.WALOptions{}, 12)
	for _, r := range recs[:10] {
		if err := tree.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := tree.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	_, snapErr := tree.Snapshot()
	for what, err := range map[string]error{
		"Insert":   tree.Insert(recs[10]),
		"Delete":   tree.Delete(recs[0]),
		"BulkLoad": tree.BulkLoad(recs[10:]),
		"Snapshot": snapErr,
	} {
		if !errors.Is(err, ErrClosed) {
			t.Errorf("%s after Close: err = %v, want ErrClosed", what, err)
		}
	}
	if got := tree.Count(); got != 10 {
		t.Fatalf("closed tree holds %d records, want 10", got)
	}
	verifyAgainstOracle(t, tree, recs[:10], 10, 6) // queries keep working
	re := recoverImage(t, tree.cfg, storePath, walPrefix, filepath.Join(t.TempDir(), "img"))
	if got := re.Count(); got != 10 {
		t.Fatalf("reopened tree holds %d records, want 10", got)
	}

	replica, err := NewReplica(storage.NewMemStore(tree.cfg.BlockSize), testSchema(t), tree.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := replica.Close(); err != nil {
		t.Fatal(err)
	}
	if err := replica.ApplyReplicated(1, 1, encodeWALRecord(walOpInsert, recs[0])); !errors.Is(err, ErrClosed) {
		t.Errorf("ApplyReplicated after Close: err = %v, want ErrClosed", err)
	}
}

// TestGroupCommitCheckpointCoverageFlushesLog: a record that a checkpoint
// install acknowledges before any writer synced it must still reach the
// log's durable frontier, or a follower of a quiet primary never sees it.
func TestGroupCommitCheckpointCoverageFlushesLog(t *testing.T) {
	w, err := storage.OpenWAL(filepath.Join(t.TempDir(), "idx"), storage.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	w.SetRetainLSN(0) // a follower still needs the log: truncation keeps it
	cfg := smallConfig()
	ws := newWALState(w, &cfg, new(treeMetrics))
	lsn, err := ws.append([]byte("covered-by-checkpoint"))
	if err != nil {
		t.Fatal(err)
	}
	ws.checkpointDone(lsn)
	if err := ws.waitDurable(lsn); err != nil {
		t.Fatal(err)
	}
	if got := w.SyncedLSN(); got < lsn {
		t.Fatalf("log durable through LSN %d, the checkpoint acknowledged %d", got, lsn)
	}
}

// imageBlockSize is the Config.BlockSize the crash images
// testdata/format-12 and testdata/parent-pr12 were written at.
const imageBlockSize = 1024

// TestRecoveryOfParentWrittenImage is the golden file of the one surviving
// format generation: testdata/format-12 is a crash image (store + log
// tail) written by the build that introduced the generation — DCSTORE2
// extents, a DCMETA12 blob carrying the measure's scale and front-coded
// dictionaries, data nodes that are their rows of codes and units at their
// widths, directories whose aggregates are units, a DCWAL002 segment of
// op-3/4/5 records — and must open unmodified, validate, replay its tail
// and keep accepting durable writes; its answers are exact.
//
// To regenerate after a format bump: newDurableOnDisk(smallConfig() at
// BlockSize imageBlockSize), recs := genRecords(seed 7, 160); insert
// recs[:120], Flush, insert recs[120:], delete recs[:5]; copyCrashImage
// into testdata/format-NN without closing the tree.
func TestRecoveryOfParentWrittenImage(t *testing.T) {
	dir := copyTestImage(t, "format-12")
	for name, magic := range map[string]string{"store.dc": "DCSTORE2", "idx.00000002.wal": "DCWAL002"} {
		if data, err := os.ReadFile(filepath.Join(dir, name)); err != nil || !bytes.HasPrefix(data, []byte(magic)) {
			t.Fatalf("fixture %s does not start with %s (err %v)", name, magic, err)
		}
	}
	open := func() (*Tree, *storage.PagedStore) {
		st, err := storage.OpenPagedStore(filepath.Join(dir, "store.dc"), imageBlockSize, 0)
		if err != nil {
			t.Fatal(err)
		}
		if meta, err := st.GetMeta(); err != nil || !bytes.HasPrefix(meta, []byte(metaMagic)) {
			t.Fatalf("metadata blob does not start with %s (err %v)", metaMagic, err)
		}
		tree, err := OpenDurable(st, filepath.Join(dir, "idx"))
		if err != nil {
			st.Close()
			t.Fatalf("OpenDurable: %v", err)
		}
		return tree, st
	}
	// The image: 120 inserts, a checkpoint, then 40 inserts and 5 deletes
	// in the log tail.
	tree, st := open()
	if got := tree.Metrics().RecoveryReplayedRecords; got != 45 {
		t.Fatalf("replayed %d records, want the 45 of the tail", got)
	}
	checkImage := func(tree *Tree, count int64, sum float64) {
		t.Helper()
		if err := tree.Validate(); err != nil {
			t.Fatal(err)
		}
		agg, err := rangeAgg(tree, mds.Top(tree.Schema().Dims()), 0)
		if err != nil {
			t.Fatal(err)
		}
		if tree.Count() != count || int64(agg.Count) != count || agg.Sum != sum {
			t.Fatalf("count %d (root %v), sum %.2f; want %d, %.2f", tree.Count(), agg.Count, agg.Sum, count, sum)
		}
	}
	checkImage(tree, 155, 7846.27)
	rec := genRecords(t, tree.Schema(), rand.New(rand.NewSource(8)), 1)[0]
	rec.Measures[0] = 1000
	if err := tree.Insert(rec); err != nil {
		t.Fatal(err)
	}
	if err := tree.Close(); err != nil {
		t.Fatal(err)
	}
	st.Close()
	tree, st = open()
	defer st.Close()
	defer tree.Close()
	checkImage(tree, 156, 8846.27)
}

// TestOpenReadsNoDataNode: no image this build opens holds a node past its
// blocks' bytes, so open reads no node at all — no data node, and no
// directory either: a cold image opens at the cost of its metadata.
func TestOpenReadsNoDataNode(t *testing.T) {
	cfg := smallConfig()
	path := filepath.Join(t.TempDir(), "store.dc")
	st, err := storage.OpenPagedStore(path, cfg.BlockSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := New(st, testSchema(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range genRecords(t, tree.Schema(), rand.New(rand.NewSource(9)), 1000) {
		if err := tree.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.Close(); err != nil {
		t.Fatal(err)
	}
	levels, err := tree.LevelStats()
	if err != nil {
		t.Fatal(err)
	}
	directories := 0
	for _, l := range levels[:len(levels)-1] {
		directories += l.Nodes
	}
	if len(levels) < 3 {
		t.Fatalf("height %d: the image has no directory below the root", len(levels))
	}
	st.Close()

	st, err = storage.OpenPagedStore(path, cfg.BlockSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	reopened, err := Open(st)
	if err != nil {
		t.Fatal(err)
	}
	if m, st := reopened.Metrics(), st.Stats(); m.FlatNodeReads+m.DecodeFallbacks != 0 || st.Reads != 0 {
		t.Fatalf("open of a tree of %d directories resolved %d flat and %d decoded nodes and read %d extents, want none",
			directories, m.FlatNodeReads, m.DecodeFallbacks, st.Reads)
	}
}

// waitFor polls cond until it holds, failing the test after ten seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}
