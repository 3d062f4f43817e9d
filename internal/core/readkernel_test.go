package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"github.com/dcindex/dctree/internal/hierarchy"
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
// every query class, on a warm heap tree (packed rows, read images) and on
// the same tree checkpointed and evicted (zero-copy views of its extents).
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
	run := func(form string) {
		for class, queries := range classes {
			for _, q := range queries { // warm up: read images, mask arenas
				if _, err := tree.Execute(ctx, QueryRequest{Query: q}); err != nil {
					t.Fatal(err)
				}
			}
			next := 0
			allocs := testing.AllocsPerRun(len(queries)-1, func() {
				if _, err := tree.Execute(ctx, QueryRequest{Query: queries[next]}); err != nil {
					t.Fatal(err)
				}
				next++
			})
			if allocs != 0 {
				t.Errorf("%s, %s: %.0f allocations per query, want 0", form, class, allocs)
			}
		}
	}
	run("heap nodes")
	if err := tree.Flush(); err != nil {
		t.Fatal(err)
	}
	tree.EvictCache()
	run("flat views")
	if m := tree.Metrics(); m.FlatNodeReads == 0 {
		t.Fatal("the evicted tree served no flat views")
	}
}
