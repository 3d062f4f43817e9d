package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"github.com/dcindex/dctree/internal/cube"
	"github.com/dcindex/dctree/internal/hierarchy"
	"github.com/dcindex/dctree/internal/mds"
	"github.com/dcindex/dctree/internal/storage"
)

// randomSpaceMDS builds a random valid MDS over the test schema's space
// from registered leaves.
func randomSpaceMDS(rng *rand.Rand, space mds.Space, leaves [][]hierarchy.ID) mds.MDS {
	m := make(mds.MDS, len(space))
	for d, h := range space {
		if rng.Intn(7) == 0 {
			m[d] = mds.AllDim()
			continue
		}
		level := rng.Intn(h.Depth())
		// Collect the distinct ancestors available at this level first: a
		// blind rejection loop can demand more values than exist.
		distinct := map[hierarchy.ID]struct{}{}
		for _, leaf := range leaves[d] {
			anc, err := h.AncestorAt(leaf, level)
			if err != nil {
				panic(err)
			}
			distinct[anc] = struct{}{}
		}
		pool := make([]hierarchy.ID, 0, len(distinct))
		for id := range distinct {
			pool = append(pool, id)
		}
		k := 1 + rng.Intn(5)
		if k > len(pool) {
			k = len(pool)
		}
		perm := rng.Perm(len(pool))[:k]
		ids := make([]hierarchy.ID, 0, k)
		for _, p := range perm {
			ids = append(ids, pool[p])
		}
		hierarchy.SortIDs(ids)
		m[d] = mds.DimSet{Level: level, IDs: ids}
	}
	return m
}

// flatDirOf encodes entry MDSs as one directory node and frames it the way
// a read image is framed.
func flatDirOf(tree *Tree, ms ...mds.MDS) flatNode {
	dims, measures := tree.schema.Dims(), tree.schema.Measures()
	dir := &node{blocks: 1}
	for i, m := range ms {
		dir.entries = append(dir.entries, entry{MDS: m, Agg: cube.NewAggVector(measures), Child: nodeID(i + 1)})
	}
	return trustedFlatNode(1, dir.appendEncodeFlat(nil, dims, measures), dims, measures)
}

// TestMatchKernelAgainstMDSAlgebra pins the one directory matcher — the
// all-level query masks probed over an entry's wire encoding — to the
// reference mds.Overlap/mds.Contains on thousands of random (query, entry)
// pairs: unconstrained dimensions, entries finer than, level with and
// coarser than the query, and entry values registered only after the masks
// were built, which lie outside the query's snapshot.
func TestMatchKernelAgainstMDSAlgebra(t *testing.T) {
	tree := newTestTree(t, smallConfig())
	s := tree.Schema()
	space := s.Space()
	rng := rand.New(rand.NewSource(51))

	leaves := make([][]hierarchy.ID, len(space))
	for _, r := range genRecords(t, s, rng, 300) {
		for d, c := range r.Coords {
			leaves[d] = append(leaves[d], c)
		}
	}

	var finer, level, coarser, entryALL, queryALL, late int
	for i := 0; i < 3000; i++ {
		q := randomSpaceMDS(rng, space, leaves)
		m := randomSpaceMDS(rng, space, leaves)
		for d := range q {
			switch {
			case q[d].Level == hierarchy.LevelALL:
				queryALL++
			case m[d].Level == hierarchy.LevelALL:
				entryALL++
			case m[d].Level < q[d].Level:
				finer++
			case m[d].Level == q[d].Level:
				level++
			default:
				coarser++
			}
		}
		ov, err := mds.Overlap(space, q, m)
		if err != nil {
			t.Fatal(err)
		}
		cont, err := mds.Contains(space, q, m)
		if err != nil {
			t.Fatal(err)
		}
		qc, err := tree.newQueryCtx(q)
		if err != nil {
			t.Fatal(err)
		}

		// Every fourth pair, the entry also holds a value of every level
		// that no mask has a bit for. Such a value cannot make the entry
		// overlap, and an entry holding one in a constrained dimension is
		// not contained.
		if i%4 == 3 {
			fresh, err := s.InternRecord([][]string{
				{fmt.Sprintf("lateR%d", i), "N", "C"}, {fmt.Sprintf("lateB%d", i), "P"}, {fmt.Sprintf("lateY%d", i), "M"},
			}, []float64{1})
			if err != nil {
				t.Fatal(err)
			}
			m = m.Clone()
			for d, h := range space {
				if m[d].Level == hierarchy.LevelALL {
					continue
				}
				anc, err := h.AncestorAt(fresh.Coords[d], m[d].Level)
				if err != nil {
					t.Fatal(err)
				}
				m[d].IDs = append(m[d].IDs, anc) // the newest code sorts last
				if q[d].Level != hierarchy.LevelALL {
					cont = false
				}
				late++
			}
		}

		f := flatDirOf(tree, m)
		gotOv, gotCont, err := qc.matchEntryFlat(&f, 0)
		tree.putQueryCtx(qc)
		if err != nil {
			t.Fatal(err)
		}
		if gotOv != (ov > 0) {
			t.Fatalf("case %d: kernel overlap=%v, algebra=%g\nq=%v\nm=%v", i, gotOv, ov, q, m)
		}
		// Containment is only reported for overlapping entries (the query
		// path never asks otherwise).
		if gotOv && gotCont != cont {
			t.Fatalf("case %d: kernel contained=%v, algebra=%v\nq=%v\nm=%v", i, gotCont, cont, q, m)
		}
	}
	for name, n := range map[string]int{"finer": finer, "level": level, "coarser": coarser,
		"entry ALL": entryALL, "query ALL": queryALL, "late codes": late} {
		if n == 0 {
			t.Errorf("no (query, entry) dimension pair of kind %q was drawn", name)
		}
	}
}

// TestScanRowsAgainstContainsLeaves pins the leaf kernel, on both row
// carriers, to MDS.ContainsLeaves — including rows whose values were
// registered after the masks were built.
func TestScanRowsAgainstContainsLeaves(t *testing.T) {
	tree := newTestTree(t, smallConfig())
	s := tree.Schema()
	space := s.Space()
	rng := rand.New(rand.NewSource(53))
	recs := genRecords(t, s, rng, 400)
	leaves := make([][]hierarchy.ID, len(space))
	for _, r := range recs {
		for d, c := range r.Coords {
			leaves[d] = append(leaves[d], c)
		}
	}
	for i := 0; i < 300; i++ {
		q := randomSpaceMDS(rng, space, leaves)
		qc, err := tree.newQueryCtx(q)
		if err != nil {
			t.Fatal(err)
		}
		known := make([]int, len(space)) // leaf codes the masks were sized for
		for d, h := range space {
			known[d], _ = h.CountAt(0)
		}
		rows := append([]cube.Record(nil), recs[:50]...)
		if i%3 == 0 {
			rows = append(rows, genRecordsInto(t, s, rng, 5)...) // may mint new codes
		}
		leaf := &node{leaf: true, blocks: 1, dims: s.Dims(), nm: s.Measures()}
		var want cube.Agg
		wantMatched := 0
		for _, r := range rows {
			leaf.appendRecord(r)
			in, err := q.ContainsLeaves(space, r.Coords)
			if err != nil {
				t.Fatal(err)
			}
			// A value minted after the mask build is outside the snapshot.
			for d, c := range r.Coords {
				if qc.masks[d] != nil && int(c.Code()) >= known[d] {
					in = false
				}
			}
			if in {
				want.Add(r.Measures[0])
				wantMatched++
			}
		}
		flat := trustedFlatNode(1, leaf.appendEncodeFlat(nil, s.Dims(), s.Measures()), s.Dims(), s.Measures())
		for name, nv := range map[string]nodeView{"heap": {n: leaf}, "flat": {f: flat}} {
			out := cube.NewAggVector(1)
			scanned, matched := qc.scanRows(&nv, 0, out)
			if scanned != len(rows) || matched != wantMatched || out[0] != want {
				t.Fatalf("case %d (%s rows): scanned %d matched %d agg %+v, want %d %d %+v\nq=%v",
					i, name, scanned, matched, out[0], len(rows), wantMatched, want, q)
			}
		}
		tree.putQueryCtx(qc)
	}
}

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
	root, err := tree.getNode(tree.root)
	if err != nil {
		t.Fatal(err)
	}
	if root.leaf {
		t.Fatal("tree did not split")
	}
	// With ≤3 customers, ≤2 parts and ≤4 months, every dimension is
	// describable at leaf level within bound 4: entries must be refined
	// all the way down.
	for i := range root.entries {
		for d, ds := range root.entries[i].MDS {
			if ds.Level != 0 {
				t.Fatalf("entry %d dim %d still at level %d: %v", i, d, ds.Level, root.entries[i].MDS)
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
	root2, _ := tree2.getNode(tree2.root)
	coarse := false
	for i := range root2.entries {
		for _, ds := range root2.entries[i].MDS {
			if ds.Level != 0 {
				coarse = true
			}
		}
	}
	if root2.leaf {
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
	tree, classes := readBenchTree(t)
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
