package index

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/dcindex/dctree/internal/bitmap"
	"github.com/dcindex/dctree/internal/cube"
	"github.com/dcindex/dctree/internal/hierarchy"
	"github.com/dcindex/dctree/internal/mds"
	"github.com/dcindex/dctree/internal/tpcd"
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
func flatDirOf(tree *Index, ms ...mds.MDS) FlatNode {
	dims, measures := tree.schema.Dims(), tree.schema.Measures()
	dir := &Node{blocks: 1}
	for i, m := range ms {
		dir.entries = append(dir.entries, Entry{MDS: m, Agg: cube.NewAggVector(measures), Child: NodeID(i + 1)})
	}
	return flatOf(1, dir, dims, measures)
}

// TestMatchKernelAgainstMDSAlgebra pins the one directory matcher — the
// all-level query masks probed over an entry's wire encoding — to the
// reference mds.Overlap/mds.Contains on thousands of random (query, entry)
// pairs: unconstrained dimensions, entries finer than, level with and
// coarser than the query, and entry values registered only after the masks
// were built, which lie outside the query's snapshot.
func TestMatchKernelAgainstMDSAlgebra(t *testing.T) {
	tree := newTestIndex(t, smallConfig())
	s := tree.schema
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
	tree := newTestIndex(t, smallConfig())
	s := tree.schema
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
			rows = append(rows, genRecords(t, s, rng, 5)...) // may mint new codes
		}
		leaf := NewNode(0, true, s.Dims(), s.Measures())
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
		flat := flatOf(1, leaf, s.Dims(), s.Measures())
		for name, nv := range map[string]NodeView{"heap": {n: leaf}, "flat": {f: flat}} {
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

// refScanRows is the leaf kernel before the selection vector, kept as the
// reference: every row tested dimension by dimension, leaving at the first
// miss, and folded when it passes.
func refScanRows(qc *queryCtx, nv *NodeView, first int, out cube.AggVector) (rows, matched int) {
	tests := qc.rows
	if n := nv.n; n != nil {
		coords, dims, vals, nm := n.coords, n.dims, n.measures, n.nm
		rows = len(coords) / dims
	heapRows:
		for i := 0; i < rows; i++ {
			row := coords[i*dims : (i+1)*dims]
			for _, rt := range tests {
				if !rt.mask.Get(row[rt.dim].Code()) {
					continue heapRows
				}
			}
			matched++
			for j := range out {
				out[j].Add(vals[i*nm+first+j])
			}
		}
		return rows, matched
	}
	rows = nv.f.count
flatRows:
	for i := 0; i < rows; i++ {
		for _, rt := range tests {
			if !rt.mask.Get(nv.f.Coord(i, rt.dim).Code()) {
				continue flatRows
			}
		}
		matched++
		for j := range out {
			out[j].Add(nv.f.Measure(i, first+j))
		}
	}
	return rows, matched
}

// sameAggBits reports whether two aggregates are equal field by field, bit
// by bit.
func sameAggBits(a, b cube.Agg) bool {
	return math.Float64bits(a.Sum) == math.Float64bits(b.Sum) && a.Count == b.Count &&
		math.Float64bits(a.Min) == math.Float64bits(b.Min) && math.Float64bits(a.Max) == math.Float64bits(b.Max)
}

// TestScanRowsMatchesReference holds the selection-vector leaf kernel to the
// row-at-a-time reference on random masks: 0 to 4 constrained dimensions in
// any order, row codes past the mask's words, chunk edges (1, 169, 256 and
// 257 rows, and a supernode's), both row carriers, a one-measure window at
// every measure and the all-measures sink, into empty and non-empty sinks.
// Counts and every aggregate field must agree to the bit.
func TestScanRowsMatchesReference(t *testing.T) {
	const dims, nm = 4, 3
	rng := rand.New(rand.NewSource(61))
	var constrained [dims + 1]int
	for i := 0; i < 300; i++ {
		qc := &queryCtx{}
		domain := make([]int, dims)
		for d := range domain {
			domain[d] = 1 + rng.Intn(300)
		}
		for _, d := range rng.Perm(dims)[:i%(dims+1)] {
			m, density := bitmap.NewDense(domain[d]), rng.Float64()
			for c := 0; c < domain[d]; c++ {
				if rng.Float64() < density {
					m.Set(uint32(c))
				}
			}
			qc.rows = append(qc.rows, rowMask{dim: d, mask: m})
		}
		constrained[len(qc.rows)]++
		for _, n := range []int{1, 169, scanChunk, scanChunk + 1, 4*169 + 13} {
			leaf := NewNode(0, true, dims, nm)
			leaf.blocks = 1 + n/169
			for r := 0; r < n; r++ {
				rec := cube.Record{Coords: make([]hierarchy.ID, dims), Measures: make([]float64, nm)}
				for d := range rec.Coords {
					rec.Coords[d] = hierarchy.MakeID(0, uint32(rng.Intn(domain[d]+130)))
				}
				for j := range rec.Measures {
					switch rng.Intn(8) {
					case 0:
						rec.Measures[j] = math.Copysign(0, -1)
					case 1:
						rec.Measures[j] = 1
					default:
						rec.Measures[j] = rng.NormFloat64() * 1e3
					}
				}
				leaf.appendRecord(rec)
			}
			flat := flatOf(1, leaf, dims, nm)
			for carrier, nv := range map[string]NodeView{"heap": {n: leaf}, "flat": {f: flat}} {
				for first, width := range []int{1, 1, 1, nm} {
					if width == nm {
						first = 0
					}
					got, want := cube.NewAggVector(width), cube.NewAggVector(width)
					if rng.Intn(2) == 0 {
						for j := range got {
							got[j] = cube.AggOf(rng.NormFloat64())
							want[j] = got[j]
						}
					}
					rows, matched := qc.scanRows(&nv, first, got)
					wantRows, wantMatched := refScanRows(qc, &nv, first, want)
					if rows != wantRows || matched != wantMatched {
						t.Fatalf("case %d, %d %s rows: scanned %d matched %d, reference %d %d",
							i, n, carrier, rows, matched, wantRows, wantMatched)
					}
					for j := range got {
						if !sameAggBits(got[j], want[j]) {
							t.Fatalf("case %d, %d %s rows, measure %d: %+v, reference %+v",
								i, n, carrier, first+j, got[j], want[j])
						}
					}
				}
			}
		}
	}
	for k, n := range constrained {
		if n == 0 {
			t.Errorf("no case with %d constrained dimensions", k)
		}
	}
}

// refQueryMasks is the mask build before the child-list walk, kept as the
// reference: the query's own level set, every level below it filled by a
// pass over its whole father table, every level above it by lifting the
// query's values. count(d, l) is the number of values level l of dimension
// d was sized for; a code past the words that gives is skipped.
func refQueryMasks(space mds.Space, q mds.MDS, count func(d, l int) int) [][]bitmap.Dense {
	masks := make([][]bitmap.Dense, len(q))
	for d, h := range space {
		lq := q[d].Level
		if lq == hierarchy.LevelALL {
			continue
		}
		levels := make([]bitmap.Dense, h.Depth())
		for l := range levels {
			levels[l] = bitmap.NewDense(count(d, l))
		}
		for _, id := range q[d].IDs {
			levels[lq].Set(id.Code())
		}
		for l := lq - 1; l >= 0; l-- {
			parents, _ := h.ParentTable(l)
			m, up := levels[l], levels[l+1]
			for c, p := range parents {
				if c>>6 < len(m) && up.Get(p.Code()) {
					m.Set(uint32(c))
				}
			}
		}
		for l := lq + 1; l < len(levels); l++ {
			tab, m := h.AncestorTable(lq, l), levels[l]
			for _, id := range q[d].IDs {
				m.Set(tab[id.Code()].Code())
			}
		}
		masks[d] = levels
	}
	return masks
}

// checkQueryMasks builds q's masks and compares every level of every
// dimension with the reference's, bit for bit, and the record tests with
// the leaf masks: each constrained dimension once, its members counted,
// most selective first.
func checkQueryMasks(t *testing.T, ix *Index, q mds.MDS) {
	t.Helper()
	space := ix.space()
	want := refQueryMasks(space, q, func(d, l int) int { n, _ := space[d].CountAt(l); return n })
	qc, err := ix.newQueryCtx(q)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.putQueryCtx(qc)
	constrained := 0
	for d := range want {
		if (qc.masks[d] == nil) != (want[d] == nil) || len(qc.masks[d]) != len(want[d]) {
			t.Fatalf("dim %d: %d mask levels, reference %d\nq=%v", d, len(qc.masks[d]), len(want[d]), q)
		}
		for l := range want[d] {
			if !slices.Equal(qc.masks[d][l], want[d][l]) {
				t.Fatalf("dim %d level %d: mask %x, reference %x\nq=%v", d, l, qc.masks[d][l], want[d][l], q)
			}
		}
		if want[d] != nil {
			constrained++
		}
	}
	if len(qc.rows) != constrained {
		t.Fatalf("%d record tests for %d constrained dimensions", len(qc.rows), constrained)
	}
	for i, rt := range qc.rows {
		if rt.members != want[rt.dim][0].Count() {
			t.Fatalf("dim %d: %d members, reference mask holds %d", rt.dim, rt.members, want[rt.dim][0].Count())
		}
		if i > 0 && rt.members*qc.rows[i-1].domain < qc.rows[i-1].members*rt.domain {
			t.Fatalf("record tests out of selectivity order: %+v before %+v", qc.rows[i-1], rt)
		}
	}
}

// TestQueryMasksMatchReference holds the mask build to the father-table
// reference on the TPC-D cube's query classes and on random queries over
// random hierarchies: as registered, after more values are registered, as
// decoded from their encoding and as restored from registration deltas —
// and on masks sized before values registered afterwards, whose codes the
// walk must skip.
func TestQueryMasksMatchReference(t *testing.T) {
	t.Run("tpcd", func(t *testing.T) {
		gen, err := tpcd.New(1, tpcd.ScaleFor(6000))
		if err != nil {
			t.Fatal(err)
		}
		ix, _ := newBareIndex(t, gen.Schema(), DefaultConfig())
		for _, queries := range drawQueryClasses(t, gen, 5, 40) {
			for _, q := range queries {
				checkQueryMasks(t, ix, q)
			}
		}
	})

	s := testSchema(t)
	space := s.Space()
	rng := rand.New(rand.NewSource(67))
	leaves := make([][]hierarchy.ID, len(space))
	addLeaves := func(n int) {
		for _, r := range genRecords(t, s, rng, n) {
			for d, c := range r.Coords {
				leaves[d] = append(leaves[d], c)
			}
		}
	}
	addLeaves(300)
	queries := make([]mds.MDS, 400)
	for i := range queries {
		queries[i] = randomSpaceMDS(rng, space, leaves)
	}
	ix, _ := newBareIndex(t, s, DefaultConfig())
	t.Run("registered", func(t *testing.T) {
		for _, q := range queries {
			checkQueryMasks(t, ix, q)
		}
	})

	sized := make([][]int, len(space))
	for d, h := range space {
		for l := 0; l < h.Depth(); l++ {
			n, _ := h.CountAt(l)
			sized[d] = append(sized[d], n)
		}
	}
	addLeaves(300) // new values join the front of existing child lists
	t.Run("registered later", func(t *testing.T) {
		for _, q := range queries {
			checkQueryMasks(t, ix, q)
		}
	})
	t.Run("sized before registration", func(t *testing.T) {
		qc := &queryCtx{}
		count := func(d, l int) int { return sized[d][l] }
		for _, q := range queries {
			want := refQueryMasks(space, q, count)
			for d, h := range space {
				lq := q[d].Level
				if lq == hierarchy.LevelALL {
					continue
				}
				levels := make([]bitmap.Dense, h.Depth())
				for l := range levels {
					levels[l] = bitmap.NewDense(count(d, l))
				}
				members := qc.fillDown(h, levels, lq, q[d].IDs)
				for l := 0; l <= lq; l++ {
					if !slices.Equal(levels[l], want[d][l]) {
						t.Fatalf("dim %d level %d: mask %x, reference %x\nq=%v", d, l, levels[l], want[d][l], q)
					}
				}
				if members != want[d][0].Count() {
					t.Fatalf("dim %d: %d members, reference mask holds %d", d, members, want[d][0].Count())
				}
			}
		}
	})

	decoded := make([]*hierarchy.Hierarchy, len(space))
	restored := make([]*hierarchy.Hierarchy, len(space))
	for d, h := range space {
		var err error
		if decoded[d], _, err = hierarchy.DecodeHierarchy(h.AppendEncode(nil)); err != nil {
			t.Fatal(err)
		}
		names := make([]string, h.Depth())
		for l := range names {
			names[l], _ = h.LevelName(l)
		}
		restored[d] = hierarchy.MustNew(h.Name(), names...)
		for l := h.TopLevel(); l >= 0; l-- {
			ids, _ := h.ValuesAt(l)
			for _, id := range ids {
				parent, _ := h.Parent(id)
				name, _ := h.ValueName(id)
				if err := restored[d].RestoreValue(id, parent, name); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for name, hs := range map[string][]*hierarchy.Hierarchy{"decoded": decoded, "restored": restored} {
		t.Run(name, func(t *testing.T) {
			ix, _ := newBareIndex(t, cube.MustNewSchema(hs, "Price"), DefaultConfig())
			for _, q := range queries {
				checkQueryMasks(t, ix, q)
			}
		})
	}
}
