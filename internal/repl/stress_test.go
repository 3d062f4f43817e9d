package repl

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dcindex/dctree/internal/storage"
)

// stressPayload is record i's content — self-describing, so the reader
// can detect any substitution of stale or foreign bytes.
func stressPayload(i uint64) []byte {
	return []byte(fmt.Sprintf("rec-%06d|stress-padding-stress-padding", i))
}

// TestShipTailStress tails a live WAL through the directory transport
// while the writer rotates and truncates it as fast as it can — under
// -race in CI. The follower must never observe a torn frame, another
// segment's frames, or a gap: the shipped stream has to be
// exactly records 1..N, each byte-identical to what was appended, with
// truncation never outrunning the acknowledged mirror frontier.
func TestShipTailStress(t *testing.T) {
	dir := t.TempDir()
	prefix := filepath.Join(dir, "wal")
	const n = 4000

	w, err := storage.OpenWAL(prefix, storage.WALOptions{
		SegmentBytes: 2 << 10, // tiny segments: constant rotation
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	w.SetRetainLSN(0) // retain everything until the reader acknowledges

	writerErr := make(chan error, 1)
	var wrote atomic.Uint64
	go func() {
		defer close(writerErr)
		var lastSynced uint64
		for i := uint64(1); i <= n; i++ {
			if _, err := w.Append(stressPayload(i)); err != nil {
				writerErr <- fmt.Errorf("append %d: %w", i, err)
				return
			}
			if i%25 == 0 || i == n {
				if _, err := w.Sync(); err != nil {
					writerErr <- fmt.Errorf("sync at %d: %w", i, err)
					return
				}
				lastSynced = i
				wrote.Store(i)
			}
			if i%150 == 0 {
				// Aggressive checkpoint-style truncation: reach for the
				// whole synced log; the reader's acknowledgements (the
				// retention floor) are the only thing keeping unshipped
				// segments alive.
				if err := w.TruncateBefore(lastSynced); err != nil {
					writerErr <- fmt.Errorf("truncate at %d: %w", i, err)
					return
				}
			}
		}
	}()

	m, err := openMirror(filepath.Join(dir, "mirror"))
	if err != nil {
		t.Fatal(err)
	}
	var got uint64
	sh := &shipper{
		src:   &DirSource{Prefix: prefix},
		m:     m,
		chunk: 1 << 10, // small chunks: reads constantly land mid-frontier
		floor: 1,
		apply: func(_, lsn uint64, payload []byte) error {
			if lsn != got+1 {
				return fmt.Errorf("lsn %d out of sequence, want %d", lsn, got+1)
			}
			if want := stressPayload(lsn); !bytes.Equal(payload, want) {
				return fmt.Errorf("record %d corrupted: %q", lsn, payload)
			}
			got = lsn
			return nil
		},
	}

	deadline := time.After(2 * time.Minute)
	for got < n {
		if _, err := sh.runOnce(); err != nil {
			t.Fatalf("runOnce after %d records: %v", got, err)
		}
		if _, err := m.Sync(); err != nil {
			t.Fatal(err)
		}
		w.SetRetainLSN(m.SyncedLSN())
		select {
		case err, open := <-writerErr:
			if open && err != nil {
				t.Fatal(err)
			}
			if !open && got >= wrote.Load() && got < n {
				t.Fatalf("writer finished but reader stuck at %d/%d", got, n)
			}
		case <-deadline:
			t.Fatalf("stress timed out at %d/%d records", got, n)
		default:
		}
	}
	if err := <-writerErr; err != nil {
		t.Fatal(err)
	}

	// The mirror must itself be a complete, adoptable WAL holding exactly
	// records 1..n.
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	mw, err := storage.OpenWAL(filepath.Join(dir, "mirror"), storage.WALOptions{})
	if err != nil {
		t.Fatalf("mirror does not reopen as a WAL: %v", err)
	}
	defer mw.Close()
	var replayed uint64
	if err := mw.Replay(func(_, lsn uint64, payload []byte) error {
		replayed++
		if lsn != replayed {
			return fmt.Errorf("mirror lsn %d, want %d", lsn, replayed)
		}
		if !bytes.Equal(payload, stressPayload(lsn)) {
			return fmt.Errorf("mirror record %d corrupted", lsn)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if replayed != n {
		t.Fatalf("mirror replayed %d records, want %d", replayed, n)
	}
}
