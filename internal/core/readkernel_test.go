package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"github.com/dcindex/dctree/internal/cube"
	"github.com/dcindex/dctree/internal/hierarchy"
	"github.com/dcindex/dctree/internal/index"
	"github.com/dcindex/dctree/internal/mds"
	"github.com/dcindex/dctree/internal/storage"
	"github.com/dcindex/dctree/internal/tpcd"
)

// TestRefineMDSKeepsExactness checks that post-split refinement yields
// descriptions that are exactly the subtree's record cover lifted to the
// refined levels (Validate enforces this globally; here we watch the
// level descent directly).
func TestRefineMDSKeepsExactness(t *testing.T) {
	cfg := smallConfig()
	cfg.RefineBound = 4
	tree := newTestTree(t, cfg)
	s := tree.Schema()
	// Narrow data: one region, one brand — refinement must descend.
	for i := 0; i < 200; i++ {
		r, err := s.InternRecord([][]string{
			{"R0", "N0", fmt.Sprintf("C%d", i%3)},
			{"B0", fmt.Sprintf("P%d", i%2)},
			{fmt.Sprintf("Y%d", i%2), fmt.Sprintf("M%d", i%4)},
		}, []float64{1})
		if err != nil {
			t.Fatal(err)
		}
		if err := tree.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	root, err := tree.nodes().Get(tree.ix.Root())
	if err != nil {
		t.Fatal(err)
	}
	if root.Leaf() {
		t.Fatal("tree did not split")
	}
	// With ≤3 customers, ≤2 parts and ≤4 months, every dimension is
	// describable at leaf level within bound 4: entries must be refined
	// all the way down.
	for i, e := range root.Entries() {
		for d, ds := range e.MDS {
			if ds.Level != 0 {
				t.Fatalf("entry %d dim %d still at level %d: %v", i, d, ds.Level, e.MDS)
			}
		}
	}
	// And with refinement disabled, coarse levels persist.
	cfg2 := smallConfig()
	cfg2.RefineBound = -1
	tree2, err := New(storage.NewMemStore(cfg2.BlockSize), testSchema(t), cfg2)
	if err != nil {
		t.Fatal(err)
	}
	s2 := tree2.Schema()
	for i := 0; i < 200; i++ {
		r, _ := s2.InternRecord([][]string{
			{"R0", "N0", fmt.Sprintf("C%d", i%3)},
			{"B0", fmt.Sprintf("P%d", i%2)},
			{fmt.Sprintf("Y%d", i%2), fmt.Sprintf("M%d", i%4)},
		}, []float64{1})
		if err := tree2.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree2.Validate(); err != nil {
		t.Fatalf("Validate (no refinement): %v", err)
	}
	root2, _ := tree2.nodes().Get(tree2.ix.Root())
	coarse := false
	for _, e := range root2.Entries() {
		for _, ds := range e.MDS {
			if ds.Level != 0 {
				coarse = true
			}
		}
	}
	if root2.Leaf() {
		t.Fatal("tree2 did not split")
	}
	if !coarse {
		t.Fatal("refinement disabled but every entry reached leaf level")
	}
}

func TestAdaptToLevels(t *testing.T) {
	tree := newTestTree(t, smallConfig())
	s := tree.Schema()
	space := s.Space()
	recs := genRecords(t, s, rand.New(rand.NewSource(59)), 10)
	m := mds.FromLeaves(recs[0].Coords)

	lifted, err := mds.AdaptToLevels(space, m, []int{2, 1, hierarchy.LevelALL})
	if err != nil {
		t.Fatal(err)
	}
	if lifted[0].Level != 2 || lifted[1].Level != 1 || lifted[2].Level != hierarchy.LevelALL {
		t.Fatalf("levels after lift: %v", lifted)
	}
	// Lifting never lowers: targets below current levels are ignored.
	again, err := mds.AdaptToLevels(space, lifted, []int{0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if !again.Equal(lifted) {
		t.Fatalf("AdaptToLevels lowered levels: %v", again)
	}
	if _, err := mds.AdaptToLevels(space, m, []int{1}); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

// TestQueryAllocations holds the read path to zero allocations per query in
// every query class: on a warm heap tree (own blocks, read images), on the
// same tree checkpointed and evicted (zero-copy views of its extents), on a
// version of it (overlay frames and pinned extents), and on the tree
// bulk-loaded into a PagedStore and reopened (every node a mapped view).
func TestQueryAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds the mask arenas under the race detector")
	}
	// The benchmark's paper-mem workload at -scale 0.125, inserted one
	// record at a time so every node is a heap node.
	const records = 15000
	gen, err := tpcd.New(1, tpcd.ScaleFor(records))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	tree, err := New(storage.NewMemStore(cfg.BlockSize), gen.Schema(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range gen.Records(records) {
		if err := tree.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	classes := drawQueryClasses(t, gen, 77, 32)
	ctx := context.Background()
	run := func(form string, tree *Tree, asOf *Version) {
		for class, queries := range classes {
			for _, q := range queries { // warm up: read images, mask arenas
				if _, err := tree.Execute(ctx, QueryRequest{Query: q, AsOf: asOf}); err != nil {
					t.Fatal(err)
				}
			}
			next := 0
			allocs := testing.AllocsPerRun(len(queries)-1, func() {
				if _, err := tree.Execute(ctx, QueryRequest{Query: queries[next], AsOf: asOf}); err != nil {
					t.Fatal(err)
				}
				next++
			})
			if allocs != 0 {
				t.Errorf("%s, %s: %.0f allocations per query, want 0", form, class, allocs)
			}
		}
	}
	run("heap nodes", tree, nil)
	if err := tree.Flush(); err != nil {
		t.Fatal(err)
	}
	tree.EvictCache()
	run("flat views", tree, nil)
	if m := tree.Metrics(); m.FlatNodeReads == 0 {
		t.Fatal("the evicted tree served no flat views")
	}

	// Inserts after the checkpoint dirty the paths they take: the version
	// holds those nodes as overlay payloads, every other node as its
	// pinned extent.
	for _, r := range gen.Records(200) {
		if err := tree.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	v, err := tree.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer v.Release()
	run("version", tree, v)

	cold, ps := reopenedPagedTree(t, gen, records)
	run("mapped views", cold, nil)
	if vs := ps.ViewStats(); vs.Views == 0 || vs.Fallbacks != 0 || cold.CachedNodes() != 0 {
		t.Fatalf("the reopened tree: view stats %+v, %d cached nodes, want mapped views only", vs, cold.CachedNodes())
	}
}

// reopenedPagedTree bulk-loads records TPC-D records of gen's cube into a
// PagedStore, flushes and closes it, and reopens the file: the tree's cache
// is empty, so every node it reads is its extent viewed out of the mapping.
func reopenedPagedTree(tb testing.TB, gen *tpcd.Gen, records int) (*Tree, *storage.PagedStore) {
	tb.Helper()
	tree, ps := openPagedTree(tb, pagedImage(tb, gen.Schema(), gen.Records(records)))
	tb.Cleanup(func() {
		tree.Close()
		ps.Close()
	})
	return tree, ps
}

// pagedImage bulk-loads recs into a tree of schema on a fresh PagedStore
// file, flushes and closes it, and returns the file's path.
func pagedImage(tb testing.TB, schema *cube.Schema, recs []cube.Record) string {
	tb.Helper()
	cfg := DefaultConfig()
	path := filepath.Join(tb.TempDir(), "cold.dc")
	ps, err := storage.OpenPagedStore(path, cfg.BlockSize, 0)
	if err != nil {
		tb.Fatal(err)
	}
	tree, err := New(ps, schema, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if err := tree.BulkLoad(recs); err != nil {
		tb.Fatal(err)
	}
	if err := errors.Join(tree.Flush(), tree.Close(), ps.Close()); err != nil {
		tb.Fatal(err)
	}
	return path
}

// openPagedTree opens the tree of the PagedStore file at path, with an
// empty cache. The caller closes both.
func openPagedTree(tb testing.TB, path string) (*Tree, *storage.PagedStore) {
	tb.Helper()
	ps, err := storage.OpenPagedStore(path, DefaultConfig().BlockSize, 0)
	if err != nil {
		tb.Fatal(err)
	}
	tree, err := Open(ps)
	if err != nil {
		ps.Close()
		tb.Fatal(err)
	}
	return tree, ps
}

// coldRecords is the tree the cold-read workload of the benchmark reads at
// -scale 0.125: 37,500 TPC-D records, bulk-loaded.
const coldRecords = 37500

// BenchmarkMappedVisit is the cost of resolving one node of a cold tree:
// one treeNodes.View per op, over every node of the coldRecords tree
// reopened on a PagedStore, into one frame. Each extent is viewed once
// before the timer starts, so its CRC is behind it and the timed views are
// the steady state of a mapped visit.
func BenchmarkMappedVisit(b *testing.B) {
	gen, err := tpcd.New(1, tpcd.ScaleFor(coldRecords))
	if err != nil {
		b.Fatal(err)
	}
	tree, _ := reopenedPagedTree(b, gen, coldRecords)
	tree.mu.RLock()
	defer tree.mu.RUnlock()
	ids := make([]nodeID, 0, len(tree.table))
	for id := range tree.table {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	src := tree.nodes()
	var nv index.NodeView
	for _, id := range ids {
		if err := src.View(id, &nv); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := src.View(ids[i%len(ids)], &nv); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkColdQuery is the query mix on the tree of BenchmarkMappedVisit:
// ns per query and node visits per query, per query class.
func BenchmarkColdQuery(b *testing.B) {
	gen, err := tpcd.New(1, tpcd.ScaleFor(coldRecords))
	if err != nil {
		b.Fatal(err)
	}
	tree, _ := reopenedPagedTree(b, gen, coldRecords)
	classes := drawQueryClasses(b, gen, 77, 64)
	ctx := context.Background()
	for _, class := range queryClassNames {
		queries := classes[class]
		b.Run(class, func(b *testing.B) {
			visits := 0
			for i := 0; i < b.N; i++ {
				res, err := tree.Execute(ctx, QueryRequest{Query: queries[i%len(queries)], CollectStats: true})
				if err != nil {
					b.Fatal(err)
				}
				visits += res.Stats.NodesVisited
			}
			b.ReportMetric(float64(visits)/float64(b.N), "visits/op")
		})
	}
}

// BenchmarkColdDelete is the cold-read workload's expiry on the tree of
// BenchmarkMappedVisit: every 12.5th of its records deleted, spread evenly
// over the load order, from the image reopened with an empty cache, so the
// deletes fault their paths in out of the mapping. One op is one pass on a
// fresh copy of the image, which the pass leaves unflushed; beside ns/delete
// it reports the heap allocations and the directory posting tables the
// delete probe builds, per delete.
func BenchmarkColdDelete(b *testing.B) {
	const expiries = coldRecords * 2 / 25
	gen, err := tpcd.New(1, tpcd.ScaleFor(coldRecords))
	if err != nil {
		b.Fatal(err)
	}
	recs := gen.Records(coldRecords)
	expire := make([]cube.Record, expiries)
	for i := range expire {
		expire[i] = recs[i*len(recs)/expiries]
	}
	image, err := os.ReadFile(pagedImage(b, gen.Schema(), recs))
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "work.dc")
	var before, after runtime.MemStats
	var mallocs uint64
	var builds int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := os.WriteFile(path, image, 0o644); err != nil {
			b.Fatal(err)
		}
		tree, ps := openPagedTree(b, path)
		runtime.ReadMemStats(&before)
		b.StartTimer()
		for _, r := range expire {
			if err := tree.Delete(r); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
		builds += tree.ix.Counters().PostingBuilds
		if err := ps.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	deletes := float64(b.N * len(expire))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/deletes, "ns/delete")
	b.ReportMetric(float64(mallocs)/deletes, "allocs/delete")
	b.ReportMetric(float64(builds)/deletes, "builds/delete")
}
