package repl

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/dcindex/dctree/internal/core"
	"github.com/dcindex/dctree/internal/mds"
	"github.com/dcindex/dctree/internal/storage"
)

// TestFollowerEndToEndAndPromotion is the replication acceptance test:
// a primary ingests 50k inserts (plus a snapshot and deletes) under
// background checkpoints and log truncation while a filesystem-transport
// follower tails its WAL directory. At the quiesced frontier the follower
// must equal the primary record-for-record; after the primary "dies"
// (kill -9 semantics: the process stops heartbeating, nothing is closed
// cleanly) the promoted follower must hold every acknowledged write and
// accept new ones, durably.
func TestFollowerEndToEndAndPromotion(t *testing.T) {
	if testing.Short() {
		t.Skip("long e2e")
	}
	primDir, folDir := t.TempDir(), t.TempDir()
	primPrefix := filepath.Join(primDir, "wal")
	leasePath := filepath.Join(primDir, "primary.lease")

	cfg := core.DefaultConfig()
	cfg.CheckpointInterval = 50 * time.Millisecond
	schema := testSchema(t)
	primary, err := core.NewDurableOpts(storage.NewMemStore(cfg.BlockSize), schema, cfg,
		primPrefix, storage.WALOptions{SegmentBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	// Retain the log from LSN 1 until the follower has bootstrapped; the
	// floor then follows the follower's mirrored frontier, so checkpoints
	// truncate behind it while it tails.
	primary.WAL().SetRetainLSN(0)
	if err := WriteSchema(primPrefix, primary); err != nil {
		t.Fatal(err)
	}

	// Primary heartbeat: refreshed on a ticker, never removed — stopping
	// the refresher is the kill -9.
	beat := func() {
		if err := os.WriteFile(leasePath, []byte("alive\n"), 0o644); err != nil {
			t.Error(err)
		}
	}
	beat()
	stopBeat := make(chan struct{})
	var beatDone sync.WaitGroup
	beatDone.Add(1)
	go func() {
		defer beatDone.Done()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopBeat:
				return
			case <-tick.C:
				beat()
			}
		}
	}()

	f, err := NewFollower(&DirSource{Prefix: primPrefix, Lease: leasePath, LeaseTTL: 150 * time.Millisecond},
		FollowerOptions{
			Dir:             folDir,
			Config:          cfg,
			Poll:            3 * time.Millisecond,
			CheckpointEvery: 40 * time.Millisecond,
			PromoteAfter:    300 * time.Millisecond,
			WAL:             storage.WALOptions{SegmentBytes: 64 << 10},
		})
	if err != nil {
		t.Fatalf("NewFollower: %v", err)
	}

	// Operator glue for the directory transport: advance the primary's
	// retention floor to the follower's durable mirror frontier.
	stopFloor := make(chan struct{})
	var floorDone sync.WaitGroup
	floorDone.Add(1)
	go func() {
		defer floorDone.Done()
		tick := time.NewTicker(25 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopFloor:
				return
			case <-tick.C:
				primary.WAL().SetRetainLSN(f.Metrics().MirroredLSN)
			}
		}
	}()

	// Ingest while the follower tails.
	recs := genRecords(t, schema, rand.New(rand.NewSource(1)), e2eInserts)
	var wg sync.WaitGroup
	const writers = 6
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
	wg.Wait()
	ver, err := primary.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	countAtSnap := primary.Count()
	for i := 0; i < 500; i++ {
		if err := primary.Delete(recs[i]); err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
	}

	// Quiesce: the follower catches up to the primary's last LSN.
	tip := primary.WAL().LastLSN()
	defer func() {
		if t.Failed() {
			m := f.Metrics()
			t.Logf("tip %d, follower applied %d mirrored %d lag %d B, err %v, primary synced %d",
				tip, m.AppliedLSN, m.MirroredLSN, m.LagBytes, f.Err(), primary.WAL().SyncedLSN())
		}
	}()
	waitFor(t, 60*time.Second, "follower catch-up", func() bool {
		if err := f.Err(); err != nil && (errors.Is(err, ErrGap) || errors.Is(err, ErrMirrorCorrupt)) {
			t.Fatalf("follower: %v", err)
		}
		return f.AppliedLSN() >= tip
	})
	close(stopFloor)
	floorDone.Wait()

	assertTreesEqual(t, primary, f.Tree())
	fm := f.Metrics()
	if fm.SegmentsShipped < 2 {
		t.Fatalf("segments shipped = %d, want several (SegmentBytes forces rotation)", fm.SegmentsShipped)
	}
	if fm.Checkpoints == 0 {
		t.Fatal("follower took no replica checkpoints")
	}

	// The follower serves Execute, including AsOf at the primary's
	// replicated snapshot.
	rv, ok := f.Tree().VersionByID(ver.ID())
	if !ok {
		t.Fatalf("version %d not live on follower", ver.ID())
	}
	res, err := f.Tree().Execute(context.Background(), core.QueryRequest{
		Query: mds.Top(schema.Dims()), AsOf: rv,
	})
	if err != nil {
		t.Fatalf("follower AsOf Execute: %v", err)
	}
	if res.Agg.Count != countAtSnap {
		t.Fatalf("AsOf count = %d, want %d", res.Agg.Count, countAtSnap)
	}

	// Kill -9: heartbeats stop; nothing on the primary side is closed.
	close(stopBeat)
	beatDone.Wait()
	waitFor(t, 10*time.Second, "promotion timer", f.Promotable)

	rw, err := f.Promote()
	if err != nil {
		t.Fatalf("Promote: %v", err)
	}
	// Zero acknowledged-write loss: everything the dead primary
	// acknowledged is present on the promoted tree.
	assertTreesEqual(t, primary, rw)

	// The promoted tree accepts writes, continuing the LSN sequence. New
	// records intern into the promoted tree's own schema — the dead
	// primary's in-memory registrations are irrelevant now.
	more := genRecords(t, rw.Schema(), rand.New(rand.NewSource(2)), 200)
	for i, r := range more {
		if err := rw.Insert(r); err != nil {
			t.Fatalf("post-promotion insert %d: %v", i, err)
		}
	}
	wantCount := rw.Count()
	if err := rw.Close(); err != nil {
		t.Fatalf("closing promoted tree: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("closing follower: %v", err)
	}

	// Post-promotion writes are durable: a fresh open of the follower
	// directory recovers them.
	again, store, err := PromoteDir(folDir, cfg.BlockSize, storage.WALOptions{}, 0)
	if err != nil {
		t.Fatalf("PromoteDir: %v", err)
	}
	defer store.Close()
	defer again.Close()
	if got := again.Count(); got != wantCount {
		t.Fatalf("reopened count = %d, want %d", got, wantCount)
	}
}

// TestFollowerRestartResume stops a follower mid-stream and starts a new
// one over the same directory: it must resume from its checkpoint plus
// mirrored log, then catch up without re-applying anything twice.
func TestFollowerRestartResume(t *testing.T) {
	primDir, folDir := t.TempDir(), t.TempDir()
	primPrefix := filepath.Join(primDir, "wal")
	cfg := core.DefaultConfig()
	schema := testSchema(t)
	primary, err := core.NewDurableOpts(storage.NewMemStore(cfg.BlockSize), schema, cfg,
		primPrefix, storage.WALOptions{SegmentBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	primary.WAL().SetRetainLSN(0)
	if err := WriteSchema(primPrefix, primary); err != nil {
		t.Fatal(err)
	}

	recs := genRecords(t, schema, rand.New(rand.NewSource(3)), 1200)
	for _, r := range recs[:600] {
		if err := primary.Insert(r); err != nil {
			t.Fatal(err)
		}
	}

	opts := FollowerOptions{
		Dir: folDir, Config: cfg,
		Poll: 2 * time.Millisecond, CheckpointEvery: 15 * time.Millisecond,
	}
	src := &DirSource{Prefix: primPrefix}
	f, err := NewFollower(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	tip := primary.WAL().LastLSN()
	waitFor(t, 20*time.Second, "first catch-up", func() bool { return f.AppliedLSN() >= tip })
	if f.Metrics().Checkpoints == 0 {
		// Give the cadence one more beat so restart resumes from a real
		// checkpoint, not just the mirror.
		waitFor(t, 5*time.Second, "a replica checkpoint", func() bool { return f.Metrics().Checkpoints > 0 })
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	for _, r := range recs[600:] {
		if err := primary.Insert(r); err != nil {
			t.Fatal(err)
		}
	}

	f2, err := NewFollower(src, opts)
	if err != nil {
		t.Fatalf("reopening follower: %v", err)
	}
	defer f2.Close()
	tip = primary.WAL().LastLSN()
	waitFor(t, 20*time.Second, "second catch-up", func() bool { return f2.AppliedLSN() >= tip })
	assertTreesEqual(t, primary, f2.Tree())
}

// TestShipperGapDetected pins the failure mode when the primary truncates
// past an empty follower: bootstrap must fail with ErrGap, not silently
// replicate a log with a hole.
func TestShipperGapDetected(t *testing.T) {
	dir := t.TempDir()
	prefix := filepath.Join(dir, "wal")
	w, err := storage.OpenWAL(prefix, storage.WALOptions{SegmentBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := 0; i < 200; i++ {
		if _, err := w.Append([]byte(fmt.Sprintf("rec-%04d-padding-padding", i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := w.TruncateBefore(150); err != nil {
		t.Fatal(err)
	}
	segs, err := storage.ListSegments(prefix)
	if err != nil {
		t.Fatal(err)
	}
	if segs[0].FirstLSN <= 1 {
		t.Fatalf("truncation removed nothing (first lsn %d); test needs a real gap", segs[0].FirstLSN)
	}

	m, err := openMirror(filepath.Join(dir, "mirror"))
	if err != nil {
		t.Fatal(err)
	}
	defer m.close()
	sh := &shipper{src: &DirSource{Prefix: prefix}, m: m, chunk: chunkBytes, floor: 1}
	if _, err := sh.runOnce(); !errors.Is(err, ErrGap) {
		t.Fatalf("runOnce err = %v, want ErrGap", err)
	}
}

// TestCompressedFrameRefused: a whole frame in the retired compressed
// format (bit 31 of the length word, valid CRC) stops the shipper and
// openMirror with ErrUnsupportedFormat. Neither may treat it as a torn
// tail: the shipper would wait forever for "the rest", and openMirror
// would cut a valid frame off the mirror.
func TestCompressedFrameRefused(t *testing.T) {
	dir := t.TempDir()
	prefix := filepath.Join(dir, "wal")
	w, err := storage.OpenWAL(prefix, storage.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := w.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	stored := []byte("stored bytes of a compressed record")
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(stored))|1<<31)
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(stored))
	frame = append(frame, stored...)
	segPath := storage.SegmentPath(prefix, 1)
	image, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	image = append(image, frame...)
	if err := os.WriteFile(segPath, image, 0o644); err != nil {
		t.Fatal(err)
	}

	// Shipping from that log stops at the frame.
	m, err := openMirror(filepath.Join(dir, "mirror"))
	if err != nil {
		t.Fatal(err)
	}
	defer m.close()
	sh := &shipper{src: &DirSource{Prefix: prefix}, m: m, chunk: chunkBytes}
	if _, err := sh.runOnce(); !errors.Is(err, storage.ErrUnsupportedFormat) {
		t.Fatalf("runOnce err = %v, want ErrUnsupportedFormat", err)
	}

	// A mirror that holds the frame (copied by an older build) is refused
	// on open, byte-identical afterwards.
	if _, err := openMirror(prefix); !errors.Is(err, storage.ErrUnsupportedFormat) {
		t.Fatalf("openMirror err = %v, want ErrUnsupportedFormat", err)
	}
	if after, _ := os.ReadFile(segPath); !bytes.Equal(after, image) {
		t.Fatalf("openMirror changed the segment: %d bytes -> %d", len(image), len(after))
	}
}

// TestLease pins the follower-side liveness check over the mtime contract:
// a missing lease is dead, a refreshed one is alive, one not refreshed
// within the ttl is dead, and removing it (clean shutdown) is dead at once.
func TestLease(t *testing.T) {
	path := filepath.Join(t.TempDir(), "primary.lease")
	if LeaseFresh(path, time.Minute) {
		t.Fatal("fresh before the lease exists")
	}
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if !LeaseFresh(path, time.Minute) {
		t.Fatal("not fresh right after a refresh")
	}
	waitFor(t, 5*time.Second, "staleness under a tiny ttl", func() bool {
		return !LeaseFresh(path, time.Nanosecond)
	})
	now := time.Now()
	if err := os.Chtimes(path, now, now); err != nil {
		t.Fatal(err)
	}
	if !LeaseFresh(path, time.Minute) {
		t.Fatal("not fresh after touching the file again")
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if LeaseFresh(path, time.Minute) {
		t.Fatal("fresh after the lease was removed")
	}
}
