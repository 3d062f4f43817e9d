package repl

import (
	"errors"
	"math"
	"math/rand"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"github.com/dcindex/dctree/internal/core"
	"github.com/dcindex/dctree/internal/storage"
)

// TestFollowerHTTPTransport runs the full follower pipeline over the HTTP
// transport: bootstrap from /schema, tail via /segments + /segment range
// reads, acknowledgements advancing the primary's retention floor, and
// the health endpoint arming the promotion timer when the server dies.
func TestFollowerHTTPTransport(t *testing.T) {
	primDir, folDir := t.TempDir(), t.TempDir()
	cfg := core.DefaultConfig()
	schema := testSchema(t)
	primary, err := core.NewDurableOpts(storage.NewMemStore(cfg.BlockSize), schema, cfg,
		filepath.Join(primDir, "wal"), storage.WALOptions{SegmentBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	primary.WAL().SetRetainLSN(0)

	srv := httptest.NewServer(NewServer(&WALSource{Tree: primary}).Handler())
	src := &HTTPSource{Base: srv.URL}

	recs := genRecords(t, schema, rand.New(rand.NewSource(5)), 1500)
	for _, r := range recs[:700] {
		if err := primary.Insert(r); err != nil {
			t.Fatal(err)
		}
	}

	f, err := NewFollower(src, FollowerOptions{
		Dir: folDir, Config: cfg,
		Poll: 2 * time.Millisecond, CheckpointEvery: 20 * time.Millisecond,
		PromoteAfter: 150 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewFollower over HTTP: %v", err)
	}
	defer f.Close()

	for _, r := range recs[700:] {
		if err := primary.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	tip := primary.WAL().LastLSN()
	waitFor(t, 30*time.Second, "HTTP catch-up", func() bool {
		if err := f.Err(); err != nil && errors.Is(err, ErrGap) {
			t.Fatalf("follower: %v", err)
		}
		return f.AppliedLSN() >= tip
	})
	assertTreesEqual(t, primary, f.Tree())
	if got := f.Metrics().LagLSN; got != 0 {
		t.Fatalf("lag lsn after quiesce = %d, want 0 (tip is known over HTTP)", got)
	}

	// Acknowledgements piggybacked on the listing poll advanced the
	// primary's retention floor, so checkpoints may truncate shipped
	// segments behind the follower.
	waitFor(t, 10*time.Second, "retention floor to advance", func() bool {
		r := primary.WAL().RetainLSN()
		return r != math.MaxUint64 && r > 0
	})
	if err := primary.Flush(); err != nil {
		t.Fatal(err)
	}

	// Local writes on the replica stay rejected.
	if err := f.Tree().Insert(recs[0]); !errors.Is(err, core.ErrReplica) {
		t.Fatalf("replica Insert err = %v, want ErrReplica", err)
	}

	// Server death → unhealthy → promotion timer.
	srv.Close()
	waitFor(t, 10*time.Second, "unhealthy after server death", func() bool { return !f.Healthy() })
	waitFor(t, 10*time.Second, "promotable after server death", f.Promotable)
	rw, err := f.Promote()
	if err != nil {
		t.Fatalf("Promote: %v", err)
	}
	assertTreesEqual(t, primary, rw)
	if err := rw.Close(); err != nil {
		t.Fatal(err)
	}
}
