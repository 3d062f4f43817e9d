package core

import (
	"context"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/dcindex/dctree/internal/cube"
	"github.com/dcindex/dctree/internal/storage"
)

// newPagedTree builds a tree on a file-backed store and loads n records.
func newPagedTree(t *testing.T, cfg Config, n int) (*Tree, *storage.PagedStore, []cube.Record, *rand.Rand) {
	t.Helper()
	st, err := storage.OpenPagedStore(filepath.Join(t.TempDir(), "index.dc"), cfg.BlockSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	s := testSchema(t)
	tree, err := New(st, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(41))
	recs := genRecords(t, s, rng, n)
	for _, r := range recs {
		if err := tree.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	return tree, st, recs, rng
}

// noViews is a store that serves no zero-copy views: embedding the
// interface hides the concrete store's ViewExtent, so a tree opened on it
// frames every non-resident node over a checked store read.
type noViews struct{ storage.Store }

// openDecodeTwin flushes tree and opens its image a second time without
// views: the checked-read reference the flat-view answers are held to.
func openDecodeTwin(t *testing.T, tree *Tree, st storage.Store) *Tree {
	t.Helper()
	if err := tree.Flush(); err != nil {
		t.Fatal(err)
	}
	twin, err := Open(noViews{st})
	if err != nil {
		t.Fatal(err)
	}
	return twin
}

// TestZeroCopyQueryEquivalence: on a flushed image, every query — single-
// and all-measures — returns identical answers over flat views and through
// the decode path, and the flat path actually serves reads.
func TestZeroCopyQueryEquivalence(t *testing.T) {
	tree, st, _, rng := newPagedTree(t, smallConfig(), 800)
	decode := openDecodeTwin(t, tree, st)
	s := tree.Schema()
	for i := 0; i < 40; i++ {
		q := randomQuery(rng, s, 0.3)
		reqs := []QueryRequest{
			{Query: q},
			{Query: q, AllMeasures: true},
		}
		for _, req := range reqs {
			decode.EvictCache()
			want, err := decode.Execute(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			tree.EvictCache()
			got, err := tree.Execute(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			if !aggMatches(got.Agg, want.Agg) {
				t.Fatalf("query %d: flat %+v != decode %+v", i, got.Agg, want.Agg)
			}
			if req.AllMeasures {
				for j := range want.AggVector {
					if !aggMatches(got.AggVector[j], want.AggVector[j]) {
						t.Fatalf("query %d measure %d: flat %+v != decode %+v",
							i, j, got.AggVector[j], want.AggVector[j])
					}
				}
			}
		}
	}
	m := tree.Metrics()
	if m.FlatNodeReads == 0 || m.DecodeFallbacks != 0 {
		t.Fatalf("flat path: %d flat reads, %d decode fallbacks", m.FlatNodeReads, m.DecodeFallbacks)
	}
	if m.MmapViews == 0 {
		t.Fatalf("no mapped views served: %+v", m)
	}
	if dm := decode.Metrics(); dm.FlatNodeReads != 0 || dm.DecodeFallbacks == 0 {
		t.Fatalf("decode path: %d flat reads, %d decode fallbacks", dm.FlatNodeReads, dm.DecodeFallbacks)
	}
}

// TestZeroCopyScanEquivalence: Scan delivers the same record multiset over
// flat views as over decoded nodes.
func TestZeroCopyScanEquivalence(t *testing.T) {
	tree, st, recs, _ := newPagedTree(t, smallConfig(), 500)
	decode := openDecodeTwin(t, tree, st)
	count := func(tree *Tree) (n int, sum float64) {
		tree.EvictCache()
		err := tree.Scan(func(r cube.Record) bool {
			n++
			sum += r.Measures[0]
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		return n, sum
	}
	wantN, wantSum := count(decode)
	gotN, gotSum := count(tree)
	if gotN != wantN || gotSum != wantSum {
		t.Fatalf("flat scan (%d, %g) != decode scan (%d, %g)", gotN, gotSum, wantN, wantSum)
	}
	if wantN != len(recs) {
		t.Fatalf("scan returned %d records, want %d", wantN, len(recs))
	}
}

// TestSnapshotFlatViewsSurviveChurn: as-of queries over flat views run
// lock-free while writers grow and checkpoint the tree — remaps happen
// mid-descent and checkpoint installs land while extents are mapped and
// pinned. Run with -race this doubles as the memory-safety stress.
//
// The snapshot is taken with dirty nodes, so it carries an overlay the
// checkpoints persist; after a reopen the rehydrated version must answer
// the same and read every node — the persisted overlay extents included —
// as a flat view, never through the decode path.
func TestSnapshotFlatViewsSurviveChurn(t *testing.T) {
	cfg := smallConfig()
	tree, st, _, rng := newPagedTree(t, cfg, 600)
	if err := tree.Flush(); err != nil {
		t.Fatal(err)
	}
	s := tree.Schema()
	for _, r := range genRecords(t, s, rng, 40) {
		if err := tree.Insert(r); err != nil {
			t.Fatal(err)
		}
	}

	snap, err := tree.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if info := tree.Versions(); len(info) != 1 || info[0].Overlay == 0 {
		t.Fatalf("snapshot captured no overlay: %+v", info)
	}
	wantCount := snap.Count()
	q := randomQuery(rng, s, 0.5)
	want, err := tree.Execute(context.Background(), QueryRequest{Query: q, AsOf: snap})
	if err != nil {
		t.Fatal(err)
	}

	extra := genRecords(t, s, rand.New(rand.NewSource(99)), 1500)
	var (
		stop atomic.Bool
		wg   sync.WaitGroup
		werr error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i, r := range extra {
			if stop.Load() {
				return
			}
			if err := tree.Insert(r); err != nil {
				werr = err
				return
			}
			// Checkpoints rewrite extents and grow the file, forcing
			// remaps under the reader's feet.
			if i%150 == 149 {
				if err := tree.Checkpoint(context.Background()); err != nil {
					werr = err
					return
				}
			}
		}
	}()

	for i := 0; i < 60; i++ {
		got, err := tree.Execute(context.Background(), QueryRequest{Query: q, AsOf: snap})
		if err != nil {
			t.Errorf("as-of query %d: %v", i, err)
			break
		}
		if !aggMatches(got.Agg, want.Agg) {
			t.Errorf("as-of query %d drifted: %+v, want %+v", i, got.Agg, want.Agg)
			break
		}
		var n int64
		if err := snap.Scan(func(cube.Record) bool { n++; return true }); err != nil {
			t.Errorf("as-of scan %d: %v", i, err)
			break
		}
		if n != wantCount {
			t.Errorf("as-of scan %d saw %d records, want %d", i, n, wantCount)
			break
		}
	}
	stop.Store(true)
	wg.Wait()
	if werr != nil {
		t.Fatalf("writer: %v", werr)
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}

	// Close checkpoints the version's manifest; the reopened handle has no
	// in-memory overlay, only extents.
	if err := tree.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(st)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	rsnap, ok := reopened.VersionByID(snap.ID())
	if !ok {
		t.Fatalf("version %d not rehydrated", snap.ID())
	}
	before := reopened.Metrics()
	got, err := reopened.Execute(context.Background(), QueryRequest{Query: q, AsOf: rsnap})
	if err != nil {
		t.Fatal(err)
	}
	if got.Agg != want.Agg {
		t.Fatalf("rehydrated as-of answer %+v, want %+v", got.Agg, want.Agg)
	}
	var n int64
	if err := rsnap.Scan(func(cube.Record) bool { n++; return true }); err != nil || n != wantCount {
		t.Fatalf("rehydrated as-of scan: %d records, err %v, want %d", n, err, wantCount)
	}
	after := reopened.Metrics()
	if after.FlatNodeReads == before.FlatNodeReads || after.DecodeFallbacks != before.DecodeFallbacks {
		t.Fatalf("rehydrated version read %d flat nodes and fell back to decode %d times, want > 0 and 0",
			after.FlatNodeReads-before.FlatNodeReads, after.DecodeFallbacks-before.DecodeFallbacks)
	}
	if err := rsnap.Release(); err != nil {
		t.Fatal(err)
	}
}
