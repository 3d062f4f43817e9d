package storage

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// copyWALImage snapshots a crash image of the log the way the recovery
// harness does: sealed segments are copied whole (rotation fsyncs them
// before sealing), the active segment is chopped at its durable frontier —
// modeling the loss of every byte a crash is allowed to take.
func copyWALImage(t *testing.T, w *WAL, srcPrefix, dstPrefix string) {
	t.Helper()
	w.mu.Lock()
	segs := append([]walSegment(nil), w.sealed...)
	active := w.active
	w.mu.Unlock()
	cp := func(src, dst string, limit int64) {
		t.Helper()
		in, err := os.Open(src)
		if err != nil {
			t.Fatal(err)
		}
		defer in.Close()
		out, err := os.Create(dst)
		if err != nil {
			t.Fatal(err)
		}
		defer out.Close()
		if _, err := io.Copy(out, io.LimitReader(in, limit)); err != nil {
			t.Fatal(err)
		}
	}
	for _, seg := range segs {
		cp(seg.path, walSegmentPath(dstPrefix, seg.index), 1<<62)
	}
	cp(active.path, walSegmentPath(dstPrefix, active.index), active.synced)
}

// TestWALSyncRotationRaceKeepsAckedRecords pins the durable-frontier
// contract satellite #2 is about: every LSN a completed Sync reported
// covered must survive a crash image built from sealed-segments-whole plus
// active-segment-chopped-at-ActiveSegment-frontier — even when rotations
// land while the fsync is in flight, which previously left the frontier
// attributed to the wrong segment.
func TestWALSyncRotationRaceKeepsAckedRecords(t *testing.T) {
	dir := t.TempDir()
	prefix := filepath.Join(dir, "idx")
	// Tiny segments force rotations constantly; SyncDelay widens the window
	// between the fsync and the frontier update that the rotation must not
	// corrupt.
	w := openTestWAL(t, prefix, WALOptions{SegmentBytes: 256, SyncDelay: time.Millisecond})

	var (
		maxCovered atomic.Uint64
		stop       atomic.Bool
		wg         sync.WaitGroup
	)
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				if _, err := w.Append([]byte(fmt.Sprintf("g%d-rec-%06d-padding-padding", g, i))); err != nil {
					t.Errorf("Append: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			covered, err := w.Sync()
			if err != nil {
				t.Errorf("Sync: %v", err)
				return
			}
			for {
				cur := maxCovered.Load()
				if covered <= cur || maxCovered.CompareAndSwap(cur, covered) {
					break
				}
			}
		}
	}()
	time.Sleep(300 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	if t.Failed() {
		return
	}

	// Deliberately NO final Sync: the tail past the frontier is genuinely
	// volatile, exactly what the chop should discard.
	imgPrefix := filepath.Join(dir, "img")
	copyWALImage(t, w, prefix, imgPrefix)
	covered := maxCovered.Load()
	w.Close()

	img := openTestWAL(t, imgPrefix, WALOptions{})
	defer img.Close()
	seen := make(map[uint64]bool)
	if err := img.Replay(func(lsn uint64, payload []byte) error {
		seen[lsn] = true
		return nil
	}); err != nil {
		t.Fatalf("Replay of crash image: %v", err)
	}
	if covered == 0 {
		t.Fatal("no Sync completed; race window never exercised")
	}
	for lsn := uint64(1); lsn <= covered; lsn++ {
		if !seen[lsn] {
			t.Fatalf("acknowledged record lsn %d (≤ covered %d) lost from crash image", lsn, covered)
		}
	}
	if img.records < int64(covered) {
		t.Fatalf("image holds %d records, Sync covered %d", img.records, covered)
	}
}

// TestWALSyncAfterRotationAdvancesNewSegment checks the deterministic half
// of the fix: a Sync completing after a rotation must not smear the old
// segment's byte offset onto the new active segment, and the next Sync on
// the new segment advances its own frontier from the header up.
func TestWALSyncAfterRotationAdvancesNewSegment(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "idx")
	w := openTestWAL(t, prefix, WALOptions{SegmentBytes: 128})
	defer w.Close()

	// Fill past the rotation threshold so the next Append rotates.
	for w.size < w.opts.SegmentBytes {
		if _, err := w.Append([]byte("fill-the-first-segment-up")); err != nil {
			t.Fatal(err)
		}
	}
	w.Sync()
	oldPath, oldSynced := w.ActiveSegment()
	if _, err := w.Append([]byte("rotates-into-segment-two")); err != nil {
		t.Fatal(err)
	}
	newPath, newSynced := w.ActiveSegment()
	if newPath == oldPath {
		t.Fatalf("rotation did not happen (size %d ≥ %d)", w.size, w.opts.SegmentBytes)
	}
	// The fresh segment has synced nothing beyond its header yet; the old
	// frontier must not leak in (the pre-fix code kept one global offset).
	if newSynced != walSegHeaderSize {
		t.Fatalf("new segment frontier = %d, want header size %d (old was %d)",
			newSynced, walSegHeaderSize, oldSynced)
	}
	if _, err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, after := w.ActiveSegment(); after <= walSegHeaderSize {
		t.Fatalf("frontier did not advance after Sync: %d", after)
	}
}

// TestWALSegmentsChanged pins the frontier channel a log-shipping follower
// waits on: it closes when Segments would offer something new — a Sync that
// raises the frontier, a rotation (BumpEpoch included), a full Truncate —
// and stays open across appends, a Sync with nothing new, and the
// retirement of sealed segments. Then many goroutines take the channel
// beside a syncing appender, and none of them misses the last advance.
func TestWALSegmentsChanged(t *testing.T) {
	closed := func(ch <-chan struct{}) bool {
		select {
		case <-ch:
			return true
		default:
			return false
		}
	}
	w := openTestWAL(t, filepath.Join(t.TempDir(), "idx"), WALOptions{SegmentBytes: 128})
	defer w.Close()
	mustAppend := func() {
		t.Helper()
		if _, err := w.Append([]byte("frontier-record")); err != nil {
			t.Fatal(err)
		}
	}
	mustSync := func() {
		t.Helper()
		if _, err := w.Sync(); err != nil {
			t.Fatal(err)
		}
	}

	ch := w.SegmentsChanged()
	mustAppend()
	if closed(ch) {
		t.Fatal("an Append closed the channel")
	}
	mustSync()
	if !closed(ch) {
		t.Fatal("a Sync that raised the frontier left the channel open")
	}

	ch = w.SegmentsChanged()
	if closed(ch) {
		t.Fatal("the channel after a close is already closed")
	}
	mustSync()
	if closed(ch) {
		t.Fatal("a Sync with nothing new closed the channel")
	}
	for w.size < w.opts.SegmentBytes {
		mustAppend()
	}
	if closed(ch) {
		t.Fatal("appends short of a rotation closed the channel")
	}
	mustAppend() // rotates
	if !closed(ch) {
		t.Fatal("a rotation left the channel open")
	}

	mustSync()
	ch = w.SegmentsChanged()
	if _, err := w.BumpEpoch(); err != nil {
		t.Fatal(err)
	}
	if !closed(ch) {
		t.Fatal("BumpEpoch left the channel open")
	}

	ch = w.SegmentsChanged()
	mustSync() // BumpEpoch's rotation already made everything durable
	if closed(ch) {
		t.Fatal("a Sync after BumpEpoch with nothing new closed the channel")
	}
	segs := w.Segments()
	if len(segs) != 3 {
		t.Fatalf("%d segments, want 3 (two sealed, one active)", len(segs))
	}
	if err := w.TruncateBefore(segs[1].FirstLSN - 1); err != nil {
		t.Fatal(err)
	}
	if got := len(w.Segments()); got != 2 {
		t.Fatalf("%d segments after retiring the first, want 2", got)
	}
	if closed(ch) {
		t.Fatal("retiring a sealed segment closed the channel")
	}
	if err := w.Truncate(); err != nil {
		t.Fatal(err)
	}
	if !closed(ch) {
		t.Fatal("a full Truncate left the channel open")
	}

	// Waiters take the channel, then read the frontier, then wait: an
	// advance between the two must still wake them.
	const total = 300
	target := w.LastLSN() + total
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				ch := w.SegmentsChanged()
				if w.SyncedLSN() >= target {
					return
				}
				select {
				case <-ch:
				case <-time.After(10 * time.Second):
					t.Errorf("waiter missed an advance: frontier %d, target %d", w.SyncedLSN(), target)
					return
				}
			}
		}()
	}
	for i := 0; i < total; i++ {
		mustAppend()
		mustSync()
	}
	wg.Wait()
}
