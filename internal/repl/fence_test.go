package repl

import (
	"errors"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dcindex/dctree/internal/core"
	"github.com/dcindex/dctree/internal/cube"
	"github.com/dcindex/dctree/internal/storage"
)

// recordMultiset keys records by full content, exactly like scanMultiset
// does for trees, so inserted slices compare against scanned trees.
func recordMultiset(recs []cube.Record) map[string]int {
	ms := make(map[string]int)
	for _, r := range recs {
		ms[fmt.Sprint(r.Coords, r.Measures)]++
	}
	return ms
}

// TestFencingMatrixInProcess runs the deposed-primary matrix over the
// in-process transport; TestFencingMatrixHTTP runs the identical scenario
// over HTTP (including the 409 Conflict ack rejection). Both must end
// with the old primary's timeline dead: the flapped-back follower refuses
// it with ErrFenced, and the first new-epoch acknowledgment that reaches
// the old primary poisons its write path.
func TestFencingMatrixInProcess(t *testing.T) {
	runFencingMatrix(t, func(tr *core.Tree) Source {
		return &WALSource{Tree: tr}
	})
}

func TestFencingMatrixHTTP(t *testing.T) {
	runFencingMatrix(t, func(tr *core.Tree) Source {
		srv := httptest.NewServer(NewServer(&WALSource{Tree: tr}).Handler())
		t.Cleanup(srv.Close)
		return seeded{Source: &HTTPSource{Base: srv.URL}, primary: tr}
	})
}

func runFencingMatrix(t *testing.T, mkSource func(*core.Tree) Source) {
	dirA, f1Dir, f2Dir := t.TempDir(), t.TempDir(), t.TempDir()
	cfg := core.DefaultConfig()
	schema := testSchema(t)
	primA, err := core.NewDurableOpts(storage.NewMemStore(cfg.BlockSize), schema, cfg,
		dirA+"/wal", storage.WALOptions{SegmentBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	primA.WAL().SetRetainLSN(0)
	if got := primA.Epoch(); got != 1 {
		t.Fatalf("fresh primary epoch = %d, want 1", got)
	}

	recs := genRecords(t, schema, rand.New(rand.NewSource(11)), 500)
	for _, r := range recs[:400] {
		if err := primA.Insert(r); err != nil {
			t.Fatal(err)
		}
	}

	opts := func(dir string) FollowerOptions {
		return FollowerOptions{Dir: dir, Config: cfg, Poll: 2 * time.Millisecond}
	}
	f1, err := NewFollower(mkSource(primA), opts(f1Dir))
	if err != nil {
		t.Fatal(err)
	}
	f2, err := NewFollower(mkSource(primA), opts(f2Dir))
	if err != nil {
		t.Fatal(err)
	}
	tip := primA.WAL().LastLSN()
	waitFor(t, 30*time.Second, "f1 catch-up", func() bool { return f1.AppliedLSN() >= tip })
	waitFor(t, 30*time.Second, "f2 catch-up", func() bool { return f2.AppliedLSN() >= tip })
	if err := f2.Close(); err != nil {
		t.Fatal(err)
	}

	// Failover: f1 becomes the new primary on a bumped epoch.
	primB, err := f1.Promote()
	if err != nil {
		t.Fatalf("Promote: %v", err)
	}
	defer primB.Close()
	if got, want := primB.Epoch(), primA.Epoch()+1; got != want {
		t.Fatalf("promoted epoch = %d, want %d", got, want)
	}
	primB.WAL().SetRetainLSN(0)
	for _, r := range recs[400:450] {
		if err := primB.Insert(r); err != nil {
			t.Fatal(err)
		}
	}

	// Split brain: the deposed primary never noticed and keeps accepting
	// writes on the old timeline. Locally nothing can stop it — fencing
	// must catch it at the replication boundary.
	for _, r := range recs[450:] {
		if err := primA.Insert(r); err != nil {
			t.Fatalf("deposed primary local write: %v", err)
		}
	}

	// f2 re-pointed at the new primary ships across the promotion
	// boundary: its mirror legitimately mixes epochs 1 and 2.
	f2b, err := NewFollower(mkSource(primB), opts(f2Dir))
	if err != nil {
		t.Fatalf("re-pointing follower at new primary: %v", err)
	}
	tipB := primB.WAL().LastLSN()
	waitFor(t, 30*time.Second, "f2 catch-up on new primary", func() bool {
		return f2b.AppliedLSN() >= tipB
	})
	assertTreesEqual(t, primB, f2b.Tree())
	if err := f2b.Close(); err != nil {
		t.Fatal(err)
	}

	// Flap back to the deposed primary: the follower has durably observed
	// epoch 2, so the old timeline's new frames must be refused — ErrFenced,
	// not a silent fork.
	f2c, err := NewFollower(mkSource(primA), opts(f2Dir))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 30*time.Second, "fencing the old timeline", func() bool {
		return errors.Is(f2c.Err(), ErrFenced)
	})
	appliedAtFence := f2c.AppliedLSN()
	if err := f2c.Close(); err != nil {
		t.Fatal(err)
	}
	if appliedAtFence < tipB {
		t.Fatalf("fenced follower lost ground: applied %d < %d", appliedAtFence, tipB)
	}

	// The first new-epoch acknowledgment that reaches the deposed primary
	// poisons its write path. Over HTTP the ack piggybacks on the next
	// listing poll, so the rejection surfaces there (as a 409).
	src := mkSource(primA)
	ackErr := src.Ack(AckInfo{Follower: "matrix", Epoch: primB.Epoch(), LSN: tip})
	if ackErr == nil {
		_, ackErr = src.Segments()
	}
	if !errors.Is(ackErr, ErrFenced) {
		t.Fatalf("new-epoch ack err = %v, want ErrFenced", ackErr)
	}
	if err := primA.Insert(recs[0]); !errors.Is(err, ErrFenced) {
		t.Fatalf("deposed primary Insert err = %v, want ErrFenced", err)
	}
	if got := primA.Metrics().FencingEpoch; got != 1 {
		t.Fatalf("deposed primary fencing epoch = %d, want 1 (it never promoted)", got)
	}
	if got := primB.Metrics().FencingEpoch; got != 2 {
		t.Fatalf("new primary fencing epoch = %d, want 2", got)
	}
	primA.Close() // poisoned close may error; the store is gone either way
	if err := f1.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPromoteWhileShipping promotes a follower while writers are still
// hammering the primary — the race the promotion path must survive (run
// under -race in CI). The promoted tree must be a consistent prefix of
// the primary's acknowledged history on a bumped epoch, and must accept
// writes of its own.
func TestPromoteWhileShipping(t *testing.T) {
	primDir, folDir := t.TempDir(), t.TempDir()
	cfg := core.DefaultConfig()
	schema := testSchema(t)
	primary, err := core.NewDurableOpts(storage.NewMemStore(cfg.BlockSize), schema, cfg,
		primDir+"/wal", storage.WALOptions{SegmentBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	primary.WAL().SetRetainLSN(0)

	f, err := NewFollower(&WALSource{Tree: primary}, FollowerOptions{
		Dir: folDir, Config: cfg, Poll: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	recs := genRecords(t, schema, rand.New(rand.NewSource(13)), 4000)
	var wg sync.WaitGroup
	const writers = 4
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(recs); i += writers {
				if err := primary.Insert(recs[i]); err != nil {
					t.Errorf("insert %d: %v", i, err)
					return
				}
			}
		}(w)
	}

	waitFor(t, 30*time.Second, "mid-stream progress", func() bool { return f.AppliedLSN() >= 500 })
	rw, err := f.Promote() // writers still running
	if err != nil {
		t.Fatalf("Promote while shipping: %v", err)
	}
	wg.Wait()

	if got, want := rw.Epoch(), primary.Epoch()+1; got != want {
		t.Fatalf("promoted epoch = %d, want %d", got, want)
	}
	// Every promoted record is one the primary acknowledged: the promoted
	// multiset is contained in the primary's.
	promoted, acked := scanMultiset(t, rw), scanMultiset(t, primary)
	for k, n := range promoted {
		if acked[k] < n {
			t.Fatalf("promoted tree holds %d×%q, primary acknowledged %d", n, k, acked[k])
		}
	}
	if rw.Count() < 500 {
		t.Fatalf("promoted count = %d, want >= 500 (progress watermark)", rw.Count())
	}
	if err := rw.Insert(recs[0]); err != nil {
		t.Fatalf("post-promotion insert: %v", err)
	}
	if err := rw.Close(); err != nil {
		t.Fatal(err)
	}
}

// killedErr is what a dead transport returns for everything.
var killedErr = errors.New("repl_test: source killed")

// killableSource wraps a Source with a kill switch — the test's kill -9:
// after kill, every method fails and health goes false, exactly like a
// vanished primary process.
type killableSource struct {
	inner Source
	dead  atomic.Bool
}

func (k *killableSource) Segments() ([]storage.WALSegmentInfo, error) {
	if k.dead.Load() {
		return nil, killedErr
	}
	return k.inner.Segments()
}

func (k *killableSource) ReadAt(seg storage.WALSegmentInfo, off int64, max int) ([]byte, error) {
	if k.dead.Load() {
		return nil, killedErr
	}
	return k.inner.ReadAt(seg, off, max)
}

func (k *killableSource) Schema() ([]byte, error) {
	if k.dead.Load() {
		return nil, killedErr
	}
	return k.inner.(Schemer).Schema()
}

func (k *killableSource) Healthy() bool { return !k.dead.Load() && k.inner.Healthy() }

func (k *killableSource) Ack(info AckInfo) error {
	if k.dead.Load() {
		return killedErr
	}
	return k.inner.Ack(info)
}

// TestQuorumSyncZeroAckedWriteLoss is the synchronous-replication crash
// test: with SyncReplication=1 every acknowledged write has been durably
// mirrored on the follower BEFORE its Insert returned, so killing the
// primary (transport dead, no final drain possible) and promoting must
// yield a tree holding exactly the acknowledged records — the seqscan
// oracle proves zero acked-write loss.
func TestQuorumSyncZeroAckedWriteLoss(t *testing.T) {
	primDir, folDir := t.TempDir(), t.TempDir()
	cfg := core.DefaultConfig()
	cfg.SyncReplication = 1
	cfg.SyncReplicationTimeout = 30 * time.Second
	schema := testSchema(t)
	primary, err := core.NewDurableOpts(storage.NewMemStore(cfg.BlockSize), schema, cfg,
		primDir+"/wal", storage.WALOptions{SegmentBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()

	src := &killableSource{inner: &WALSource{Tree: primary}}
	f, err := NewFollower(src, FollowerOptions{
		Dir: folDir, ID: "quorum-1", Config: cfg, Poll: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	const n = 200
	recs := genRecords(t, schema, rand.New(rand.NewSource(17)), n)
	for i, r := range recs {
		if err := primary.Insert(r); err != nil {
			t.Fatalf("sync insert %d: %v", i, err)
		}
	}
	if d := primary.Metrics().ReplSyncDegraded; d != 0 {
		t.Fatalf("sync replication degraded %d times; every ack must have been real for the oracle to hold", d)
	}

	// Kill -9: the transport dies with the primary process. Promotion gets
	// no final drain — the mirror alone must hold every acknowledged write.
	src.dead.Store(true)
	rw, err := f.Promote()
	if err != nil {
		t.Fatalf("Promote after kill: %v", err)
	}
	if got, want := rw.Epoch(), primary.Epoch()+1; got != want {
		t.Fatalf("promoted epoch = %d, want %d", got, want)
	}
	if got := rw.Count(); got != n {
		t.Fatalf("promoted count = %d, want %d (all acknowledged writes)", got, n)
	}
	want, got := recordMultiset(recs), scanMultiset(t, rw)
	if len(want) != len(got) {
		t.Fatalf("record multisets differ: %d vs %d distinct keys", len(want), len(got))
	}
	for k, n := range want {
		if got[k] != n {
			t.Fatalf("record %q: acknowledged %d, promoted %d", k, n, got[k])
		}
	}

	// The promoted tree is a working primary: one more write, durably.
	if err := rw.Insert(recs[0]); err != nil {
		t.Fatalf("post-promotion insert: %v", err)
	}
	if err := rw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Epochs persist: reopening the follower directory as a primary bumps
	// again on top of the persisted epoch and recovers every record.
	again, store, err := PromoteDir(folDir, cfg.BlockSize, storage.WALOptions{})
	if err != nil {
		t.Fatalf("PromoteDir: %v", err)
	}
	defer store.Close()
	defer again.Close()
	if got := again.Epoch(); got != 3 {
		t.Fatalf("re-promoted epoch = %d, want 3 (1 birth, 2 promote, 3 re-promote)", got)
	}
	if got := again.Count(); got != n+1 {
		t.Fatalf("re-promoted count = %d, want %d", got, n+1)
	}
}

// TestSyncReplicationDegrade pins the availability side of the sync knob:
// with no follower acknowledging, writes still complete after the timeout
// and the degradation is counted — a dead follower slows the primary to
// the timeout, never to a halt.
func TestSyncReplicationDegrade(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.SyncReplication = 1
	cfg.SyncReplicationTimeout = 20 * time.Millisecond
	schema := testSchema(t)
	tree, err := core.NewDurableOpts(storage.NewMemStore(cfg.BlockSize), schema, cfg,
		t.TempDir()+"/wal", storage.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()

	recs := genRecords(t, schema, rand.New(rand.NewSource(19)), 3)
	start := time.Now()
	for _, r := range recs {
		if err := tree.Insert(r); err != nil {
			t.Fatalf("degraded insert: %v", err)
		}
	}
	if elapsed := time.Since(start); elapsed < cfg.SyncReplicationTimeout {
		t.Fatalf("inserts returned in %v, before the sync timeout — no quorum wait happened", elapsed)
	}
	if d := tree.Metrics().ReplSyncDegraded; d < 3 {
		t.Fatalf("degraded count = %d, want >= 3", d)
	}
}

// TestSyncReplicationQuorumWaitObserved: every synchronous write records
// its wait for the follower quorum — fifty inserts, none degraded, fifty
// observations in the histogram and in its Prometheus family.
func TestSyncReplicationQuorumWaitObserved(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.SyncReplication = 1
	schema := testSchema(t)
	primary, err := core.NewDurableOpts(storage.NewMemStore(cfg.BlockSize), schema, cfg,
		t.TempDir()+"/wal", storage.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	primary.WAL().SetRetainLSN(0)
	f, err := NewFollower(&WALSource{Tree: primary}, FollowerOptions{
		Dir: t.TempDir(), ID: "quorum", Config: cfg, Poll: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	const n = 50
	for i, r := range genRecords(t, schema, rand.New(rand.NewSource(23)), n) {
		if err := primary.Insert(r); err != nil {
			t.Fatalf("sync insert %d: %v", i, err)
		}
	}
	m := primary.Metrics()
	if m.ReplSyncDegraded != 0 {
		t.Fatalf("%d of %d writes degraded", m.ReplSyncDegraded, n)
	}
	if m.ReplQuorumWait.Count != n {
		t.Fatalf("quorum-wait histogram holds %d observations, want %d", m.ReplQuorumWait.Count, n)
	}
	var prom strings.Builder
	if err := m.WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	if want := "dctree_repl_quorum_wait_seconds_count 50\n"; !strings.Contains(prom.String(), want) {
		t.Fatalf("Prometheus dump lacks %q", want)
	}
	if got := f.Metrics().MirroredLSN; got < primary.WAL().LastLSN() {
		t.Fatalf("follower mirrored through LSN %d, primary acknowledged through %d", got, primary.WAL().LastLSN())
	}
}

// TestSyncWriteNeedsNoTick: a follower on the in-process transport ships
// when the primary's log becomes durable and confirms once its mirror is
// fsynced, so synchronous writes complete with the poll tick an hour away —
// none degrades, each records one quorum wait, and the promoted follower
// holds exactly the primary's records.
func TestSyncWriteNeedsNoTick(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.SyncReplication = 1
	cfg.SyncReplicationTimeout = 2 * time.Second
	schema := testSchema(t)
	primary, err := core.NewDurableOpts(storage.NewMemStore(cfg.BlockSize), schema, cfg,
		t.TempDir()+"/wal", storage.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	primary.WAL().SetRetainLSN(0)
	f, err := NewFollower(&WALSource{Tree: primary}, FollowerOptions{
		Dir: t.TempDir(), ID: "woken", Config: cfg, Poll: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	const n = 20
	start := time.Now()
	for i, r := range genRecords(t, schema, rand.New(rand.NewSource(31)), n) {
		if err := primary.Insert(r); err != nil {
			t.Fatalf("sync insert %d: %v", i, err)
		}
	}
	if elapsed := time.Since(start); elapsed >= cfg.SyncReplicationTimeout {
		t.Fatalf("%d synchronous writes took %v; the follower waited for its tick", n, elapsed)
	}
	m := primary.Metrics()
	if m.ReplSyncDegraded != 0 {
		t.Fatalf("%d of %d writes degraded", m.ReplSyncDegraded, n)
	}
	if m.ReplQuorumWait.Count != n {
		t.Fatalf("quorum-wait histogram holds %d observations, want %d", m.ReplQuorumWait.Count, n)
	}
	if got, want := f.Metrics().MirroredLSN, primary.WAL().LastLSN(); got < want {
		t.Fatalf("follower mirrored through LSN %d, primary acknowledged through %d", got, want)
	}
	rw, err := f.Promote()
	if err != nil {
		t.Fatalf("Promote: %v", err)
	}
	defer rw.Close()
	assertTreesEqual(t, primary, rw)
}

// ackRecorder notes the highest LSN a follower has acknowledged and how
// many acknowledgments it was sent.
type ackRecorder struct {
	*WALSource
	acked atomic.Uint64
	calls atomic.Int64
}

func (a *ackRecorder) Ack(info AckInfo) error {
	a.acked.Store(info.LSN)
	a.calls.Add(1)
	return a.WALSource.Ack(info)
}

// TestFollowerAcknowledgesAtEndOfPass drives passes by hand: the pass that
// mirrors and fsyncs a record confirms it, and a pass with nothing new
// sends no acknowledgment until the heartbeat is due.
func TestFollowerAcknowledgesAtEndOfPass(t *testing.T) {
	cfg := core.DefaultConfig()
	schema := testSchema(t)
	primary, err := core.NewDurableOpts(storage.NewMemStore(cfg.BlockSize), schema, cfg,
		t.TempDir()+"/wal", storage.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	primary.WAL().SetRetainLSN(0)
	src := &ackRecorder{WALSource: &WALSource{Tree: primary}}
	f, err := NewFollower(src, FollowerOptions{Dir: t.TempDir(), ID: "tail", Config: cfg, Poll: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.halt() // the passes below are the only ones

	for _, r := range genRecords(t, schema, rand.New(rand.NewSource(29)), 3) {
		if err := primary.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	tip := primary.WAL().LastLSN()
	calls := src.calls.Load()
	f.pass()
	if got := f.Metrics().MirroredLSN; got != tip {
		t.Fatalf("first pass mirrored through LSN %d, want %d", got, tip)
	}
	if got := src.acked.Load(); got != tip {
		t.Fatalf("the shipping pass acknowledged LSN %d, want %d", got, tip)
	}
	if got := src.calls.Load() - calls; got != 1 {
		t.Fatalf("the shipping pass sent %d acknowledgments, want 1", got)
	}
	f.pass()
	if got := src.calls.Load() - calls; got != 1 {
		t.Fatalf("a pass with nothing new sent an acknowledgment (%d in all) before the heartbeat", got)
	}
	f.lastAckAt = time.Now().Add(-ackHeartbeat)
	f.pass()
	if got := src.calls.Load() - calls; got != 2 {
		t.Fatalf("the heartbeat pass brought the acknowledgments to %d, want 2", got)
	}
	if got := src.acked.Load(); got != tip {
		t.Fatalf("the heartbeat acknowledged LSN %d, want %d", got, tip)
	}
}
