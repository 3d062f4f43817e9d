package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"github.com/dcindex/dctree/internal/cube"
	"github.com/dcindex/dctree/internal/storage"
)

// The version suite proves the MVCC snapshot contract: a Version captured
// by Snapshot keeps answering queries and scans with EXACTLY the records
// live at capture time — byte-equal to a seqscan oracle frozen at the same
// instant — while inserts, deletes and checkpoints churn the live tree,
// and its pinned extents are returned to the allocator only when the last
// reference goes.

// recordKey serializes a record for multiset comparison: coordinates and
// the raw measure bits, so two scans are compared byte-equal.
func recordKey(r cube.Record) string {
	var b strings.Builder
	for _, c := range r.Coords {
		fmt.Fprintf(&b, "%d,", uint32(c))
	}
	b.WriteByte('|')
	for _, m := range r.Measures {
		fmt.Fprintf(&b, "%x,", m)
	}
	return b.String()
}

// sortedKeys flattens a record set into sorted keys — the canonical form
// both sides of an oracle comparison are reduced to.
func sortedKeys(recs []cube.Record) []string {
	keys := make([]string, len(recs))
	for i, r := range recs {
		keys[i] = recordKey(r)
	}
	sort.Strings(keys)
	return keys
}

// scanVersion collects every record the version holds.
func scanVersion(t testing.TB, v *Version) []cube.Record {
	t.Helper()
	var recs []cube.Record
	if err := v.Scan(func(r cube.Record) bool {
		recs = append(recs, r)
		return true
	}); err != nil {
		t.Fatalf("version scan: %v", err)
	}
	return recs
}

// verifyVersion checks the version against the oracle record set two ways:
// the full scan must be byte-equal as a multiset, and a batch of random
// as-of range aggregates must match brute force over the oracle.
func verifyVersion(t testing.TB, tree *Tree, v *Version, oracle []cube.Record, queries int, seed int64) {
	t.Helper()
	if got, want := v.Count(), int64(len(oracle)); got != want {
		t.Fatalf("version count = %d, want %d", got, want)
	}
	got := sortedKeys(scanVersion(t, v))
	want := sortedKeys(oracle)
	if len(got) != len(want) {
		t.Fatalf("version scan: %d records, oracle %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("version scan diverges at %d: %q vs %q", i, got[i], want[i])
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < queries; i++ {
		q := randomQuery(rng, tree.Schema(), 0.3)
		parallel := 0
		if i%3 == 2 {
			parallel = 4 // exercise the lock-free parallel descent too
		}
		res, err := tree.Execute(context.Background(),
			QueryRequest{Query: q, AsOf: v, Parallel: parallel})
		if err != nil {
			t.Fatalf("as-of query %d: %v", i, err)
		}
		want := bruteAgg(t, tree.Schema(), oracle, q, 0)
		if !aggMatches(res.Agg, want) {
			t.Fatalf("as-of query %d: got %+v, oracle %+v", i, res.Agg, want)
		}
	}
}

func TestSnapshotIsolation(t *testing.T) {
	cfg := smallConfig()
	tree := newTestTree(t, cfg)
	rng := rand.New(rand.NewSource(11))
	recs := genRecords(t, tree.Schema(), rng, 150)
	for _, r := range recs[:100] {
		if err := tree.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	v, err := tree.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	defer v.Release()
	oracle := append([]cube.Record(nil), recs[:100]...)

	// Churn the live tree past the snapshot point.
	for _, r := range recs[100:] {
		if err := tree.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range recs[:20] {
		if err := tree.Delete(r); err != nil {
			t.Fatal(err)
		}
	}

	verifyVersion(t, tree, v, oracle, 25, 12)
	if got := tree.Count(); got != 130 {
		t.Fatalf("live count = %d, want 130", got)
	}
	if v.ID() != 1 {
		t.Fatalf("first version ID = %d, want 1", v.ID())
	}
	infos := tree.Versions()
	if len(infos) != 1 || infos[0].ID != 1 || infos[0].Records != 100 {
		t.Fatalf("Versions() = %+v", infos)
	}
}

// TestSnapshotAcrossCheckpointInstall is the heart of the pinning story: a
// checkpoint install frees the extents the snapshot is still reading from
// — the frees must park behind the pins, the snapshot must keep answering
// from the pre-install extents (cache evicted to force real reads), and
// releasing the snapshot must hand the parked extents back.
func TestSnapshotAcrossCheckpointInstall(t *testing.T) {
	dir := t.TempDir()
	cfg := smallConfig()
	st, err := storage.OpenPagedStore(filepath.Join(dir, "store.dc"), cfg.BlockSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	schema := testSchema(t)
	tree, err := New(st, schema, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	recs := genRecords(t, schema, rng, 300)
	for _, r := range recs[:200] {
		if err := tree.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	// Persist so the snapshot's table references real extents.
	if err := tree.Flush(); err != nil {
		t.Fatal(err)
	}
	v, err := tree.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	oracle := append([]cube.Record(nil), recs[:200]...)

	// Re-dirty broadly, then checkpoint: the install supersedes extents the
	// snapshot pinned, so their frees must park rather than execute.
	for _, r := range recs[200:] {
		if err := tree.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range recs[:50] {
		if err := tree.Delete(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.Flush(); err != nil {
		t.Fatal(err)
	}
	m := tree.Metrics()
	if m.SnapshotFreesParked == 0 {
		t.Fatal("checkpoint install parked no frees despite a live snapshot over its extents")
	}
	if m.PinnedExtents == 0 {
		t.Fatal("no extents pinned while a version is live")
	}

	// Force the version to read from its pinned extents, not its cache.
	v.EvictCache()
	verifyVersion(t, tree, v, oracle, 25, 24)

	// Releasing the last reference executes the parked frees.
	if err := v.Release(); err != nil {
		t.Fatal(err)
	}
	m = tree.Metrics()
	if m.PinnedExtents != 0 || m.DeferredExtentBlocks != 0 {
		t.Fatalf("pins not drained after release: %+v pinned, %d blocks deferred",
			m.PinnedExtents, m.DeferredExtentBlocks)
	}
	if m.LiveVersions != 0 {
		t.Fatalf("LiveVersions = %d after release", m.LiveVersions)
	}
	// The tree remains fully usable and consistent.
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := tree.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotLifecycleErrors(t *testing.T) {
	cfg := smallConfig()
	tree := newTestTree(t, cfg)
	other := newTestTree(t, cfg)
	rng := rand.New(rand.NewSource(31))
	for _, r := range genRecords(t, tree.Schema(), rng, 40) {
		if err := tree.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	v, err := tree.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	q := randomQuery(rng, tree.Schema(), 0.5)

	// A version is rejected by a tree it does not belong to.
	if _, err := other.Execute(context.Background(), QueryRequest{Query: randomQuery(rng, other.Schema(), 0.5), AsOf: v}); !errors.Is(err, ErrVersionForeign) {
		t.Fatalf("foreign version: got %v, want ErrVersionForeign", err)
	}

	if got, ok := tree.VersionByID(v.ID()); !ok || got != v {
		t.Fatalf("VersionByID(%d) = %v, %v", v.ID(), got, ok)
	}
	if err := tree.ReleaseVersion(v.ID()); err != nil {
		t.Fatal(err)
	}
	if !v.Released() {
		t.Fatal("version not marked released")
	}
	if _, err := tree.Execute(context.Background(), QueryRequest{Query: q, AsOf: v}); !errors.Is(err, ErrVersionReleased) {
		t.Fatalf("query on released version: got %v, want ErrVersionReleased", err)
	}
	if err := v.Scan(func(cube.Record) bool { return true }); !errors.Is(err, ErrVersionReleased) {
		t.Fatalf("scan on released version: got %v, want ErrVersionReleased", err)
	}
	if err := v.Release(); !errors.Is(err, ErrVersionReleased) {
		t.Fatalf("double release: got %v, want ErrVersionReleased", err)
	}
	if err := tree.ReleaseVersion(999); !errors.Is(err, ErrVersionReleased) {
		t.Fatalf("release unknown id: got %v, want ErrVersionReleased", err)
	}
	if n := len(tree.Versions()); n != 0 {
		t.Fatalf("%d versions live after release", n)
	}
}

// TestSnapshotVersionSeqPersists proves meta v5 keeps version numbers
// unique across restarts even though non-WAL versions themselves die with
// the process.
func TestSnapshotVersionSeqPersists(t *testing.T) {
	dir := t.TempDir()
	cfg := smallConfig()
	path := filepath.Join(dir, "store.dc")
	st, err := storage.OpenPagedStore(path, cfg.BlockSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	schema := testSchema(t)
	tree, err := New(st, schema, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(41))
	for _, r := range genRecords(t, schema, rng, 30) {
		if err := tree.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	v, err := tree.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if v.ID() != 1 {
		t.Fatalf("first ID = %d", v.ID())
	}
	v.Release()
	if err := tree.Flush(); err != nil { // meta v5 carries versionSeq = 1
		t.Fatal(err)
	}
	st.Close()

	st2, err := storage.OpenPagedStore(path, cfg.BlockSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	reopened, err := Open(st2)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(reopened.Versions()); n != 0 {
		t.Fatalf("non-WAL versions survived reopen: %d", n)
	}
	v2, err := reopened.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer v2.Release()
	if v2.ID() != 2 {
		t.Fatalf("post-reopen ID = %d, want 2 (mint must not repeat)", v2.ID())
	}
}

// TestAsOfAfterCrashRecovery proves the durability half of the tentpole:
// a version's WAL record past the last checkpoint lets OpenDurable
// reconstruct the version with exactly its original contents, verified
// against the oracle frozen at the original Snapshot call.
func TestAsOfAfterCrashRecovery(t *testing.T) {
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
	rng := rand.New(rand.NewSource(53))
	recs := genRecords(t, schema, rng, 100)
	for _, r := range recs[:60] {
		if err := tree.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	v, err := tree.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	versionID := v.ID()
	oracle := append([]cube.Record(nil), recs[:60]...)
	for _, r := range recs[60:] {
		if err := tree.Insert(r); err != nil {
			t.Fatal(err)
		}
	}

	// Crash: copy the store and log as they are, no Close, no checkpoint.
	imgStore, imgWAL := copyCrashImage(t, storePath, walPrefix, filepath.Join(dir, "crash"))
	v.Release()
	tree.Close()
	st.Close()

	ist, err := storage.OpenPagedStore(imgStore, cfg.BlockSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ist.Close()
	recovered, err := OpenDurable(ist, imgWAL)
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	defer recovered.Close()

	if got := recovered.Count(); got != 100 {
		t.Fatalf("recovered live count = %d, want 100", got)
	}
	rv, ok := recovered.VersionByID(versionID)
	if !ok {
		t.Fatalf("version %d not reconstructed by recovery (live: %+v)", versionID, recovered.Versions())
	}
	if m := recovered.Metrics(); m.SnapshotsRecovered != 1 {
		t.Fatalf("SnapshotsRecovered = %d, want 1", m.SnapshotsRecovered)
	}
	verifyVersion(t, recovered, rv, oracle, 25, 54)
	if err := rv.Release(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotChurnStress is the -race acceptance test: snapshots taken
// while inserts, deletes and checkpoints churn underneath must stay
// byte-equal to a seqscan oracle frozen at their capture instant, with
// as-of queries (serial and parallel) running lock-free throughout. All
// records are interned up front: the hierarchy dictionaries are not
// internally synchronized, and lock-free snapshot reads may not race with
// registrations.
func TestSnapshotChurnStress(t *testing.T) {
	cfg := smallConfig()
	tree := newTestTree(t, cfg)
	rng := rand.New(rand.NewSource(61))
	const (
		writers       = 4
		perWriter     = 250
		snapshots     = 4
		queriesPerVer = 8
	)
	recs := genRecords(t, tree.Schema(), rng, writers*perWriter)

	// testMu serializes {mutation + oracle update} and {Snapshot + oracle
	// clone}, making the oracle exact at every capture instant. Everything
	// else — queries, scans, checkpoints — runs unserialized.
	var testMu sync.Mutex
	var oracle []cube.Record

	stopCkpt := make(chan struct{})
	var ckptWG sync.WaitGroup
	ckptWG.Add(1)
	go func() {
		defer ckptWG.Done()
		for {
			select {
			case <-stopCkpt:
				return
			default:
			}
			if err := tree.Checkpoint(context.Background()); err != nil {
				t.Errorf("checkpoint: %v", err)
				return
			}
		}
	}()

	var writerWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			mine := recs[w*perWriter : (w+1)*perWriter]
			for i, r := range mine {
				testMu.Lock()
				err := tree.Insert(r)
				if err == nil {
					oracle = append(oracle, r)
				}
				testMu.Unlock()
				if err != nil {
					t.Errorf("insert: %v", err)
					return
				}
				// Delete every fourth of my own earlier records: churn that
				// relocates nodes without ever double-deleting.
				if i%4 == 3 {
					victim := mine[i-3]
					testMu.Lock()
					err := tree.Delete(victim)
					if err == nil {
						for j := range oracle {
							if recordKey(oracle[j]) == recordKey(victim) {
								oracle = append(oracle[:j], oracle[j+1:]...)
								break
							}
						}
					}
					testMu.Unlock()
					if err != nil {
						t.Errorf("delete: %v", err)
						return
					}
				}
			}
		}(w)
	}

	// Take snapshots at staggered points of the churn and verify each from
	// its own goroutine while the writers keep going.
	var verifyWG sync.WaitGroup
	for s := 0; s < snapshots; s++ {
		testMu.Lock()
		v, err := tree.Snapshot()
		frozen := append([]cube.Record(nil), oracle...)
		testMu.Unlock()
		if err != nil {
			t.Fatalf("snapshot %d: %v", s, err)
		}
		verifyWG.Add(1)
		go func(s int, v *Version, frozen []cube.Record) {
			defer verifyWG.Done()
			defer v.Release()
			got := sortedKeys(scanVersion(t, v))
			want := sortedKeys(frozen)
			if len(got) != len(want) {
				t.Errorf("snapshot %d: scan %d records, oracle %d", s, len(got), len(want))
				return
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("snapshot %d diverges at record %d", s, i)
					return
				}
			}
			qrng := rand.New(rand.NewSource(int64(100 + s)))
			for i := 0; i < queriesPerVer; i++ {
				q := randomQuery(qrng, tree.Schema(), 0.3)
				parallel := 0
				if i%2 == 1 {
					parallel = 3
				}
				res, err := tree.Execute(context.Background(),
					QueryRequest{Query: q, AsOf: v, Parallel: parallel})
				if err != nil {
					t.Errorf("snapshot %d query %d: %v", s, i, err)
					return
				}
				want := bruteAgg(t, tree.Schema(), frozen, q, 0)
				if !aggMatches(res.Agg, want) {
					t.Errorf("snapshot %d query %d: got %+v, oracle %+v", s, i, res.Agg, want)
					return
				}
			}
		}(s, v, frozen)
	}

	writerWG.Wait()
	verifyWG.Wait()
	close(stopCkpt)
	ckptWG.Wait()

	if err := tree.Validate(); err != nil {
		t.Fatalf("tree invalid after churn: %v", err)
	}
	m := tree.Metrics()
	if m.LiveVersions != 0 || m.PinnedExtents != 0 {
		t.Fatalf("versions/pins leaked: %d live, %d pinned", m.LiveVersions, m.PinnedExtents)
	}
	testMu.Lock()
	want := int64(len(oracle))
	testMu.Unlock()
	if got := tree.Count(); got != want {
		t.Fatalf("final count = %d, oracle %d", got, want)
	}
}
