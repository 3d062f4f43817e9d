package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/dcindex/dctree/internal/cube"
	"github.com/dcindex/dctree/internal/storage"
)

// The version durability suite proves the meta v8 contract: a live version
// survives checkpoints, crashes and clean restarts — rehydrated from the
// manifest the last checkpoint persisted, byte-equal to a seqscan oracle
// frozen at its capture instant — and disappears only through explicit
// Release (durable via its WAL record) or the retention policy, never
// through WAL truncation.

// TestVersionSurvivesCheckpointCrash is the tentpole acceptance test: a
// version snapshotted BEFORE a checkpoint (whose install truncates the log
// past the version record) must be queryable after checkpoint + crash +
// recovery with seqscan-oracle byte equality.
func TestVersionSurvivesCheckpointCrash(t *testing.T) {
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
	rng := rand.New(rand.NewSource(71))
	recs := genRecords(t, schema, rng, 200)
	for _, r := range recs[:120] {
		if err := tree.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	v, err := tree.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	versionID := v.ID()
	oracle := append([]cube.Record(nil), recs[:120]...)
	if len(tree.Versions()) != 1 || tree.Versions()[0].Persisted {
		t.Fatalf("fresh version should be live and not yet persisted: %+v", tree.Versions())
	}

	// The checkpoint persists the version's overlay and manifest and
	// truncates the log — the version record may be gone from the tail.
	if err := tree.Flush(); err != nil {
		t.Fatal(err)
	}
	if !tree.Versions()[0].Persisted {
		t.Fatalf("version not marked persisted after checkpoint: %+v", tree.Versions())
	}
	if m := tree.Metrics(); m.VersionOverlayExtents == 0 && len(oracle) > 0 {
		// The snapshot was taken with dirty nodes (no Flush in between), so
		// the checkpoint must have written overlay extents for it.
		t.Fatalf("checkpoint wrote no overlay extents: %+v", m)
	}

	// Churn past the checkpoint, then crash without closing.
	for _, r := range recs[120:] {
		if err := tree.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range recs[:30] {
		if err := tree.Delete(r); err != nil {
			t.Fatal(err)
		}
	}
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

	if got := recovered.Count(); got != 170 {
		t.Fatalf("recovered live count = %d, want 170", got)
	}
	rv, ok := recovered.VersionByID(versionID)
	if !ok {
		t.Fatalf("version %d not rehydrated (live: %+v)", versionID, recovered.Versions())
	}
	if m := recovered.Metrics(); m.VersionsRehydrated != 1 {
		t.Fatalf("VersionsRehydrated = %d, want 1", m.VersionsRehydrated)
	}
	if !rv.persisted.Load() {
		t.Fatal("rehydrated version not marked persisted")
	}
	// The rehydrated version answers entirely from its manifest extents.
	rv.EvictCache()
	verifyVersion(t, recovered, rv, oracle, 25, 72)

	// Releasing the rehydrated version drains its pins; the next checkpoint
	// returns the parked extents to the allocator and drops the manifest.
	if err := rv.Release(); err != nil {
		t.Fatal(err)
	}
	if err := recovered.Flush(); err != nil {
		t.Fatal(err)
	}
	if m := recovered.Metrics(); m.LiveVersions != 0 || m.PinnedExtents != 0 || m.DeferredExtentBlocks != 0 {
		t.Fatalf("pins leaked after release: %+v live, %d pinned, %d deferred blocks",
			m.LiveVersions, m.PinnedExtents, m.DeferredExtentBlocks)
	}
	if err := recovered.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestVersionSurvivesCleanRestart proves manifests work without any WAL: a
// version live at Flush+Close rehydrates on a plain Open.
func TestVersionSurvivesCleanRestart(t *testing.T) {
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
	rng := rand.New(rand.NewSource(73))
	recs := genRecords(t, schema, rng, 120)
	for _, r := range recs[:80] {
		if err := tree.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	v, err := tree.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	oracle := append([]cube.Record(nil), recs[:80]...)
	for _, r := range recs[80:] {
		if err := tree.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.Flush(); err != nil {
		t.Fatal(err)
	}
	versionID := v.ID()
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
	rv, ok := reopened.VersionByID(versionID)
	if !ok {
		t.Fatalf("version %d did not survive the clean restart (live: %+v)",
			versionID, reopened.Versions())
	}
	if got := rv.CreatedAt(); !got.Equal(v.CreatedAt()) {
		t.Fatalf("rehydrated capture time %v != original %v", got, v.CreatedAt())
	}
	verifyVersion(t, reopened, rv, oracle, 20, 74)
	if err := rv.Release(); err != nil {
		t.Fatal(err)
	}
}

// TestVersionReleaseSurvivesCrash proves release durability: a version whose
// manifest an earlier checkpoint persisted, then released (WAL release
// record), must NOT resurrect from the stale manifest after a crash.
func TestVersionReleaseSurvivesCrash(t *testing.T) {
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
	rng := rand.New(rand.NewSource(79))
	for _, r := range genRecords(t, schema, rng, 60) {
		if err := tree.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	v, err := tree.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	versionID := v.ID()
	if err := tree.Flush(); err != nil { // manifest persisted
		t.Fatal(err)
	}
	if err := v.Release(); err != nil { // durable release record in the tail
		t.Fatal(err)
	}

	imgStore, imgWAL := copyCrashImage(t, storePath, walPrefix, filepath.Join(dir, "crash"))
	tree.Close()

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
	if _, ok := recovered.VersionByID(versionID); ok {
		t.Fatalf("released version %d resurrected from a stale manifest", versionID)
	}
	// It rehydrated from the manifest, then the release record replayed —
	// either way no version is live and no pins remain after a checkpoint.
	if err := recovered.Flush(); err != nil {
		t.Fatal(err)
	}
	if m := recovered.Metrics(); m.LiveVersions != 0 || m.PinnedExtents != 0 {
		t.Fatalf("leaked after replayed release: %d live, %d pinned",
			m.LiveVersions, m.PinnedExtents)
	}
}

// TestVersionRetention covers the pruning policy: explicit KeepLast/MaxAge
// policies via PruneVersionsPolicy, and the config-driven automatic prune
// that runs after every Snapshot.
func TestVersionRetention(t *testing.T) {
	cfg := smallConfig()
	tree := newTestTree(t, cfg)
	rng := rand.New(rand.NewSource(83))
	recs := genRecords(t, tree.Schema(), rng, 50)
	for _, r := range recs {
		if err := tree.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	var ids []uint64
	for i := 0; i < 5; i++ {
		v, err := tree.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID())
	}

	pruned := tree.PruneVersionsPolicy(VersionRetention{KeepLast: 2})
	if len(pruned) != 3 {
		t.Fatalf("KeepLast=2 pruned %v, want the 3 oldest", pruned)
	}
	for i, id := range pruned {
		if id != ids[i] {
			t.Fatalf("pruned %v, want oldest-first %v", pruned, ids[:3])
		}
	}
	infos := tree.Versions()
	if len(infos) != 2 || infos[0].ID != ids[3] || infos[1].ID != ids[4] {
		t.Fatalf("survivors = %+v, want ids %v", infos, ids[3:])
	}
	if m := tree.Metrics(); m.VersionsPruned != 3 {
		t.Fatalf("VersionsPruned = %d, want 3", m.VersionsPruned)
	}

	// MaxAge: everything captured so far is older than a nanosecond-scale
	// horizon by the time we check.
	time.Sleep(2 * time.Millisecond)
	if pruned := tree.PruneVersionsPolicy(VersionRetention{MaxAge: time.Millisecond}); len(pruned) != 2 {
		t.Fatalf("MaxAge pruned %v, want the remaining 2", pruned)
	}
	if n := len(tree.Versions()); n != 0 {
		t.Fatalf("%d versions live after MaxAge prune", n)
	}

	// Config-driven: Snapshot applies the policy before returning.
	tree2 := newTestTree(t, func() Config {
		c := smallConfig()
		c.VersionRetention = VersionRetention{KeepLast: 2}
		return c
	}())
	for _, r := range genRecords(t, tree2.Schema(), rng, 50) {
		if err := tree2.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		if _, err := tree2.Snapshot(); err != nil {
			t.Fatal(err)
		}
		if n := len(tree2.Versions()); n > 2 {
			t.Fatalf("auto-prune let %d versions live (KeepLast=2)", n)
		}
	}
	if m := tree2.Metrics(); m.VersionsPruned != 2 || m.LiveVersions != 2 {
		t.Fatalf("auto-prune accounting off: %d pruned, %d live",
			m.VersionsPruned, m.LiveVersions)
	}
}

// TestVersionRetentionNegativeConfig: negative knobs are rejected.
func TestVersionRetentionNegativeConfig(t *testing.T) {
	cfg := smallConfig()
	cfg.VersionRetention.KeepLast = -1
	if err := cfg.Normalize(); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("KeepLast=-1: got %v, want ErrBadConfig", err)
	}
	cfg = smallConfig()
	cfg.VersionRetention.MaxAge = -time.Second
	if err := cfg.Normalize(); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("MaxAge<0: got %v, want ErrBadConfig", err)
	}
}

// TestVersionsRaceWithRelease is the satellite-1 regression: Versions()
// reads pin counts lock-free while releases drop pins concurrently; under
// -race this failed when Versions read len(v.pinned) against a release
// writing the slice.
func TestVersionsRaceWithRelease(t *testing.T) {
	cfg := smallConfig()
	tree := newTestTree(t, cfg)
	rng := rand.New(rand.NewSource(89))
	for _, r := range genRecords(t, tree.Schema(), rng, 80) {
		if err := tree.Insert(r); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // reader: hammer Versions and Metrics
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, vi := range tree.Versions() {
				_ = vi.Pinned
				_ = vi.Persisted
			}
			_ = tree.Metrics().PinnedExtents
		}
	}()
	wg.Add(1)
	go func() { // churn: checkpoints interleave with snapshot/release
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = tree.Checkpoint(context.Background())
		}
	}()
	for i := 0; i < 200; i++ {
		v, err := tree.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if err := v.Release(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if m := tree.Metrics(); m.LiveVersions != 0 || m.PinnedExtents != 0 {
		t.Fatalf("leak after churn: %d live, %d pinned", m.LiveVersions, m.PinnedExtents)
	}
}

// TestSnapshotCollisionReleasesDisplaced is the satellite-2 regression: a
// replayed version record whose number collides with a live version (the
// replica re-capture path) must release the displaced version's pins, not
// silently overwrite the registry entry and leak them forever.
func TestSnapshotCollisionReleasesDisplaced(t *testing.T) {
	cfg := smallConfig()
	schema := testSchema(t)
	rstore := storage.NewMemStore(cfg.BlockSize)
	replica, err := NewReplica(rstore, schema, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()

	// genRecords interns on schema, which the replica shares in-process, so
	// hand-built v2 records decode without shipped dict deltas.
	rng := rand.New(rand.NewSource(97))
	recs := genRecords(t, schema, rng, 40)
	// Build a plausible shipped stream by hand: inserts, a version record,
	// more inserts, then the SAME version number again at a later LSN.
	lsn := uint64(0)
	next := func() uint64 { lsn++; return lsn }
	type frame struct {
		lsn     uint64
		payload []byte
	}
	var stream []frame
	for _, r := range recs[:20] {
		stream = append(stream, frame{next(), encodeWALRecord(walOpInsert, r)})
	}
	stream = append(stream, frame{next(), encodeVersionRecord(7)})
	for _, r := range recs[20:] {
		stream = append(stream, frame{next(), encodeWALRecord(walOpInsert, r)})
	}
	stream = append(stream, frame{next(), encodeVersionRecord(7)}) // collision

	for _, f := range stream {
		if err := replica.ApplyReplicated(0, f.lsn, f.payload); err != nil {
			t.Fatalf("apply lsn %d: %v", f.lsn, err)
		}
	}

	infos := replica.Versions()
	if len(infos) != 1 || infos[0].ID != 7 {
		t.Fatalf("registry after collision: %+v, want exactly one version 7", infos)
	}
	if infos[0].Records != 40 {
		t.Fatalf("surviving version captured %d records, want the later capture's 40", infos[0].Records)
	}
	// The displaced capture's pins must be gone: release the survivor and
	// the ledger must drain completely.
	if err := replica.ReleaseVersion(7); err != nil {
		t.Fatal(err)
	}
	if m := replica.Metrics(); m.PinnedExtents != 0 {
		t.Fatalf("displaced version leaked %d pinned extents", m.PinnedExtents)
	}
}

// TestSnapshotOrphanRollback is the satellite-3 regression: when the
// snapshot capture fails (a dirty node that lost residency), no version
// record may be left in the WAL and no state may change — previously the
// record was appended first, leaving an orphan for recovery to trip over.
func TestSnapshotOrphanRollback(t *testing.T) {
	dir := t.TempDir()
	cfg := smallConfig()
	schema := testSchema(t)
	st := storage.NewMemStore(cfg.BlockSize)
	tree, err := NewDurable(st, schema, cfg, filepath.Join(dir, "idx"))
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	rng := rand.New(rand.NewSource(101))
	for _, r := range genRecords(t, schema, rng, 60) {
		if err := tree.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.Flush(); err != nil {
		t.Fatal(err)
	}

	// Fabricate the corrupt state: a node that is in the table and flagged
	// dirty but not resident (the invariant Snapshot must fail loudly on).
	tree.mu.Lock()
	var victim nodeID
	for id := range tree.table {
		victim = id
		break
	}
	tree.mu.Unlock()
	tree.EvictCache()
	tree.nc.markDirty(victim)

	lsnBefore := tree.wal.w.LastLSN()
	latestBefore, _ := tree.LatestVersion()
	if _, err := tree.Snapshot(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Snapshot on corrupt state: got %v, want ErrCorrupt", err)
	}
	if got := tree.wal.w.LastLSN(); got != lsnBefore {
		t.Fatalf("orphan record appended: LSN %d → %d", lsnBefore, got)
	}
	if n := len(tree.Versions()); n != 0 {
		t.Fatalf("%d versions registered by a failed snapshot", n)
	}
	if latest, _ := tree.LatestVersion(); latest != latestBefore {
		t.Fatalf("latest-version stamp moved on failure: %d → %d", latestBefore, latest)
	}

	// Clear the fabricated flag; the tree is fully usable and the mint was
	// not burned.
	tree.nc.clearDirty([]nodeID{victim})
	v, err := tree.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot after repair: %v", err)
	}
	if v.ID() != 1 {
		t.Fatalf("mint burned by failed snapshot: first ID = %d, want 1", v.ID())
	}
	if err := v.Release(); err != nil {
		t.Fatal(err)
	}
}

// TestVersionCrashMatrix interleaves snapshots, churn, releases and fuzzy
// checkpoints at randomized points, then crashes and verifies that exactly
// the unreleased versions survive recovery, each byte-equal to its oracle.
func TestVersionCrashMatrix(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
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
			rng := rand.New(rand.NewSource(1000 + seed))
			recs := genRecords(t, schema, rng, 400)

			var live []cube.Record
			oracles := make(map[uint64][]cube.Record) // versionID → frozen oracle
			released := make(map[uint64]bool)
			next := 0
			for round := 0; round < 8; round++ {
				// Insert a batch, delete a few.
				n := 20 + rng.Intn(30)
				for i := 0; i < n && next < len(recs); i++ {
					if err := tree.Insert(recs[next]); err != nil {
						t.Fatal(err)
					}
					live = append(live, recs[next])
					next++
				}
				for i := 0; i < 5 && len(live) > 10; i++ {
					j := rng.Intn(len(live))
					if err := tree.Delete(live[j]); err != nil {
						t.Fatal(err)
					}
					live = append(live[:j], live[j+1:]...)
				}
				switch rng.Intn(3) {
				case 0: // snapshot
					v, err := tree.Snapshot()
					if err != nil {
						t.Fatal(err)
					}
					oracles[v.ID()] = append([]cube.Record(nil), live...)
				case 1: // checkpoint (persists manifests, truncates log)
					if err := tree.Checkpoint(context.Background()); err != nil {
						t.Fatal(err)
					}
				case 2: // release a random live version, durably
					infos := tree.Versions()
					if len(infos) > 0 {
						id := infos[rng.Intn(len(infos))].ID
						if err := tree.ReleaseVersion(id); err != nil {
							t.Fatal(err)
						}
						released[id] = true
					}
				}
			}

			imgStore, imgWAL := copyCrashImage(t, storePath, walPrefix, filepath.Join(dir, "crash"))
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

			for id, oracle := range oracles {
				rv, ok := recovered.VersionByID(id)
				if released[id] {
					if ok {
						t.Fatalf("released version %d survived recovery", id)
					}
					continue
				}
				if !ok {
					t.Fatalf("version %d lost by recovery (live: %+v)", id, recovered.Versions())
				}
				verifyVersion(t, recovered, rv, oracle, 10, 2000+seed)
			}
			if err := recovered.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPrimaryReplicaVersionParity ships a primary's full log — snapshots and
// durable releases included — into a replica and requires the two version
// registries to agree, with every surviving replica version byte-equal to
// the oracle frozen at the primary's capture instant.
func TestPrimaryReplicaVersionParity(t *testing.T) {
	dir := t.TempDir()
	cfg := smallConfig()
	schema := testSchema(t)
	st := storage.NewMemStore(cfg.BlockSize)
	primary, err := NewDurableOpts(st, schema, cfg, dir+"/idx", storage.WALOptions{SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()

	blob, err := primary.EncodeSchema()
	if err != nil {
		t.Fatal(err)
	}
	rschema, err := DecodeSchema(blob)
	if err != nil {
		t.Fatal(err)
	}
	replica, err := NewReplica(storage.NewMemStore(cfg.BlockSize), rschema, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()

	rng := rand.New(rand.NewSource(131))
	recs := genRecords(t, schema, rng, 300)
	var live []cube.Record
	oracles := make(map[uint64][]cube.Record)
	for i, r := range recs {
		if err := primary.Insert(r); err != nil {
			t.Fatal(err)
		}
		live = append(live, r)
		if i%60 == 59 {
			v, err := primary.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			oracles[v.ID()] = append([]cube.Record(nil), live...)
		}
	}
	// Release the oldest snapshot durably: the release record must ship too.
	infos := primary.Versions()
	if err := primary.ReleaseVersion(infos[0].ID); err != nil {
		t.Fatal(err)
	}
	delete(oracles, infos[0].ID)

	shipAll(t, primary, replica)

	pids := primary.Versions()
	rids := replica.Versions()
	if len(pids) != len(rids) {
		t.Fatalf("version parity broken: primary %+v, replica %+v", pids, rids)
	}
	for i := range pids {
		if pids[i].ID != rids[i].ID {
			t.Fatalf("version parity broken at %d: primary %+v, replica %+v", i, pids, rids)
		}
	}
	for id, oracle := range oracles {
		rv, ok := replica.VersionByID(id)
		if !ok {
			t.Fatalf("version %d missing on replica", id)
		}
		got := sortedKeys(scanVersion(t, rv))
		want := sortedKeys(oracle)
		if len(got) != len(want) {
			t.Fatalf("replica version %d: %d records, oracle %d", id, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("replica version %d diverges at record %d", id, i)
			}
		}
	}
}

// TestVerifyCoversVersionPinnedExtents: the physical scan covers what the
// tree still reads from, not just what the live table references. An extent
// only a live version pins — the live table moved off it — is scanned, and
// its damage reported under the version's number, on both read paths.
func TestVerifyCoversVersionPinnedExtents(t *testing.T) {
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
	recs := genRecords(t, tree.Schema(), rand.New(rand.NewSource(83)), 400)
	load := func(recs []cube.Record) {
		for _, r := range recs {
			if err := tree.Insert(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := tree.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	load(recs[:200])
	v, err := tree.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	load(recs[200:])
	// The version's own extents: pages its table holds and the live one
	// does not.
	live := make(map[storage.PageID]bool, len(tree.table))
	for _, ref := range tree.table {
		live[ref.page] = true
	}
	var own []storage.PageID
	for _, ref := range v.table {
		if !live[ref.page] {
			own = append(own, ref.page)
		}
	}
	if len(own) == 0 {
		t.Fatal("the second load moved the live table off none of the version's extents")
	}
	want := tree.VerifyExtents()
	if !want.OK() || want.Extents != len(tree.table)+len(own) || want.Blocks < want.Extents {
		t.Fatalf("before the damage: %+v; live table %d extents, version-only %d", want, len(tree.table), len(own))
	}
	st.Close()

	// Flip one payload byte of one of them.
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	at := int64(own[0])*int64(cfg.BlockSize) + storage.ExtentHeaderSize
	var b [1]byte
	if _, err := f.ReadAt(b[:], at); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x40
	if _, err := f.WriteAt(b[:], at); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st, err = storage.OpenPagedStore(path, cfg.BlockSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	tree, err = Open(st)
	if err != nil {
		t.Fatal(err)
	}
	rv, ok := tree.VersionByID(v.ID())
	if !ok {
		t.Fatalf("version %d not rehydrated", v.ID())
	}
	for _, opts := range []VerifyOpts{{}, {Mmap: true}} {
		rep := tree.VerifyExtentsOpts(opts)
		if rep.Extents != want.Extents || rep.Blocks != want.Blocks {
			t.Errorf("%+v: scanned %d extents, %d blocks; want %d, %d", opts, rep.Extents, rep.Blocks, want.Extents, want.Blocks)
		}
		if len(rep.Errors) != 1 || rep.Errors[0].Version != v.ID() || rep.Errors[0].Page != own[0] || !errors.Is(rep.Errors[0].Err, storage.ErrChecksum) {
			t.Errorf("%+v: errors %+v, want the checksum mismatch of extent %d under version %d", opts, rep.Errors, own[0], v.ID())
		}
	}
	if err := rv.Scan(func(cube.Record) bool { return true }); !errors.Is(err, storage.ErrChecksum) {
		t.Errorf("scan of the damaged version: %v, want ErrChecksum", err)
	}
}
