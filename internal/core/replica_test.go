package core

import (
	"errors"
	"math/rand"
	"testing"

	"github.com/dcindex/dctree/internal/cube"
	"github.com/dcindex/dctree/internal/storage"
)

// shipAll replays every record of the primary's live WAL into the replica —
// the in-process equivalent of what repl.Follower does across processes.
func shipAll(t *testing.T, primary, replica *Tree) {
	t.Helper()
	epoch := primary.Epoch()
	if err := primary.wal.w.Replay(func(_, lsn uint64, payload []byte) error {
		return replica.ApplyReplicated(epoch, lsn, append([]byte(nil), payload...))
	}); err != nil {
		t.Fatalf("shipping: %v", err)
	}
}

func TestReplicaApplyMirrorsPrimary(t *testing.T) {
	dir := t.TempDir()
	cfg := smallConfig()
	schema := testSchema(t)
	st := storage.NewMemStore(cfg.BlockSize)
	primary, err := NewDurableOpts(st, schema, cfg, dir+"/idx", storage.WALOptions{SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()

	// Bootstrap the follower from the schema blob captured BEFORE any
	// insert registered values: the shipped dict deltas must rebuild the
	// dictionaries on the replica side.
	blob, err := primary.EncodeSchema()
	if err != nil {
		t.Fatal(err)
	}
	rschema, err := DecodeSchema(blob)
	if err != nil {
		t.Fatalf("DecodeSchema: %v", err)
	}
	rstore := storage.NewMemStore(cfg.BlockSize)
	replica, err := NewReplica(rstore, rschema, cfg)
	if err != nil {
		t.Fatalf("NewReplica: %v", err)
	}
	if !replica.IsReplica() {
		t.Fatal("NewReplica tree does not report IsReplica")
	}

	rng := rand.New(rand.NewSource(42))
	recs := genRecords(t, schema, rng, 400)
	live := make([]cube.Record, 0, len(recs))
	for i, r := range recs {
		if err := primary.Insert(r); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		live = append(live, r)
	}
	// A mid-stream snapshot: its version record must reconstruct on the
	// replica and serve as-of queries at the snapshot point.
	ver, err := primary.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	countAtSnap := primary.Count()
	// Deletes after the snapshot point.
	for i := 0; i < 50; i++ {
		if err := primary.Delete(live[i]); err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
	}
	live = live[50:]

	shipAll(t, primary, replica)

	if got, want := replica.Count(), primary.Count(); got != want {
		t.Fatalf("replica count = %d, primary %d", got, want)
	}
	if got, want := replica.AppliedLSN(), primary.wal.w.LastLSN(); got != want {
		t.Fatalf("applied lsn = %d, want %d", got, want)
	}
	verifyAgainstOracle(t, replica, live, 30, 7)

	// The primary's snapshot exists on the replica under the same ID and
	// answers queries at the pre-delete state.
	rv, ok := replica.VersionByID(ver.ID())
	if !ok {
		t.Fatalf("version %d not live on replica", ver.ID())
	}
	var n int64
	if err := rv.Scan(func(cube.Record) bool { n++; return true }); err != nil {
		t.Fatalf("as-of scan: %v", err)
	}
	if n != countAtSnap {
		t.Fatalf("as-of records = %d, want %d", n, countAtSnap)
	}

	// Local mutations are rejected.
	if err := replica.Insert(recs[0]); !errors.Is(err, ErrReplica) {
		t.Fatalf("replica Insert err = %v, want ErrReplica", err)
	}
	if err := replica.Delete(recs[0]); !errors.Is(err, ErrReplica) {
		t.Fatalf("replica Delete err = %v, want ErrReplica", err)
	}
	if err := replica.BulkLoad(recs); !errors.Is(err, ErrReplica) {
		t.Fatalf("replica BulkLoad err = %v, want ErrReplica", err)
	}
	if _, err := replica.Snapshot(); !errors.Is(err, ErrReplica) {
		t.Fatalf("replica Snapshot err = %v, want ErrReplica", err)
	}
}

func TestReplicaCheckpointRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := smallConfig()
	schema := testSchema(t)
	primary, err := NewDurableOpts(storage.NewMemStore(cfg.BlockSize), schema, cfg,
		dir+"/idx", storage.WALOptions{SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()

	rng := rand.New(rand.NewSource(7))
	recs := genRecords(t, schema, rng, 200)
	for _, r := range recs[:120] {
		if err := primary.Insert(r); err != nil {
			t.Fatal(err)
		}
	}

	blob, err := primary.EncodeSchema()
	if err != nil {
		t.Fatal(err)
	}
	rschema, err := DecodeSchema(blob)
	if err != nil {
		t.Fatal(err)
	}
	rstore := storage.NewMemStore(cfg.BlockSize)
	replica, err := NewReplica(rstore, rschema, cfg)
	if err != nil {
		t.Fatal(err)
	}
	shipAll(t, primary, replica)
	applied := replica.AppliedLSN()
	if applied == 0 {
		t.Fatal("nothing applied")
	}

	// A replica checkpoint persists the applied frontier in place of a WAL
	// LSN; reopening resumes exactly there, and re-shipping the whole log
	// is a no-op for everything at or below it.
	if err := replica.Close(); err != nil {
		t.Fatalf("replica close: %v", err)
	}
	replica, err = OpenReplica(rstore)
	if err != nil {
		t.Fatalf("OpenReplica: %v", err)
	}
	if got := replica.AppliedLSN(); got != applied {
		t.Fatalf("reopened applied lsn = %d, want %d", got, applied)
	}
	if got, want := replica.Count(), int64(120); got != want {
		t.Fatalf("reopened count = %d, want %d", got, want)
	}
	shipAll(t, primary, replica) // overlapping re-ship: idempotent
	if got, want := replica.Count(), int64(120); got != want {
		t.Fatalf("count after re-ship = %d, want %d", got, want)
	}

	// New primary records continue applying after the restart.
	for _, r := range recs[120:] {
		if err := primary.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	shipAll(t, primary, replica)
	if got, want := replica.Count(), primary.Count(); got != want {
		t.Fatalf("final count = %d, primary %d", got, want)
	}
	verifyAgainstOracle(t, replica, recs, 20, 11)
}

func TestDecodeSchemaRejectsCorrupt(t *testing.T) {
	tree := newTestTree(t, smallConfig())
	blob, err := tree.EncodeSchema()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSchema(blob); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	for _, bad := range [][]byte{
		nil,
		[]byte("DCSCHM01"),
		[]byte("NOTMAGIC" + string(blob[8:])),
		blob[:len(blob)-1],
		append(append([]byte(nil), blob...), 0xff),
	} {
		if _, err := DecodeSchema(bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("DecodeSchema(%d bytes) err = %v, want ErrCorrupt", len(bad), err)
		}
	}
}
