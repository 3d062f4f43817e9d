package index

import (
	"bytes"
	"errors"
	"fmt"
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
// a heap directory is framed.
func flatDirOf(tree *Index, ms ...mds.MDS) FlatNode {
	dims, measures := tree.schema.Dims(), tree.schema.Measures()
	dir := NewNode(1, false, dims, measures)
	for i, m := range ms {
		dir.appendEntry(m, make([]cube.Fixed, measures), NodeID(i+1))
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
		qc := tree.newQueryCtx(q)

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

// refMatchEntry is the directory matcher over a decoded entry MDS, kept as
// the reference: per constrained dimension, each of the entry's values
// tested against the reference mask of the entry's level.
func refMatchEntry(want [][]bitmap.Dense, q, m mds.MDS) (overlaps, contained bool) {
	contained = true
	for d, levels := range want {
		if levels == nil {
			continue
		}
		if m[d].Level == hierarchy.LevelALL {
			contained = false
			continue
		}
		in := 0
		for _, id := range m[d].IDs {
			if levels[m[d].Level].Get(id.Code()) {
				in++
			}
		}
		if in == 0 {
			return false, false
		}
		if in < len(m[d].IDs) || m[d].Level > q[d].Level {
			contained = false
		}
	}
	return true, contained
}

// flatDirWithBlob frames a one-entry directory whose entry MDS blob is
// blob, well-formed or not.
func flatDirWithBlob(t *testing.T, ix *Index, blob []byte) FlatNode {
	t.Helper()
	dims, measures := ix.schema.Dims(), ix.schema.Measures()
	all := make(mds.MDS, dims)
	for d := range all {
		all[d] = mds.AllDim()
	}
	dir := NewNode(1, false, dims, measures)
	dir.appendEntry(all, make([]cube.Fixed, measures), 1)
	copy(dir.mdsSlot(0, len(blob)), blob)
	f, err := MakeFlatNode(1, dir.flat.b, dims, measures)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestMatchEntryMatchesDecoded holds matchEntryFlat, which reads an entry's
// encoding in place, to refMatchEntry over the decoded MDS on random
// entries — some with more than 127 values in a dimension, whose count
// takes two bytes — and checks that every malformed encoding is refused
// with ErrCorrupt, in the first dimension and in the last, constrained or
// not: truncated, ALL with values, an empty value set, a count past the
// bytes or past 64 bits, a level past the hierarchy's depth, a dimension
// count that is not the schema's.
func TestMatchEntryMatchesDecoded(t *testing.T) {
	tree := newTestIndex(t, smallConfig())
	s := tree.schema
	space := s.Space()
	rng := rand.New(rand.NewSource(73))
	leaves := make([][]hierarchy.ID, len(space))
	for _, r := range genRecords(t, s, rng, 400) {
		for d, c := range r.Coords {
			leaves[d] = append(leaves[d], c)
		}
	}
	distinct := slices.Clone(leaves[0])
	hierarchy.SortIDs(distinct)
	distinct = slices.Compact(distinct)
	if len(distinct) < 128 {
		t.Fatalf("%d distinct customers, want a set of 128 or more", len(distinct))
	}

	long := 0
	for i := 0; i < 500; i++ {
		q := randomSpaceMDS(rng, space, leaves)
		ms := make([]mds.MDS, 1+rng.Intn(6))
		for e := range ms {
			ms[e] = randomSpaceMDS(rng, space, leaves)
			if rng.Intn(4) == 0 {
				ms[e][0] = mds.DimSet{Level: 0, IDs: distinct[:128+rng.Intn(len(distinct)-127)]}
				long++
			}
		}
		want := refQueryMasks(space, q, func(d, l int) int { n, _ := space[d].CountAt(l); return n })
		qc := tree.newQueryCtx(q)
		f := flatDirOf(tree, ms...)
		for e, m := range ms {
			ov, cont, err := qc.matchEntryFlat(&f, e)
			if err != nil {
				t.Fatal(err)
			}
			if wantOv, wantCont := refMatchEntry(want, q, m); ov != wantOv || cont != wantCont {
				t.Fatalf("case %d entry %d: overlaps %v contained %v, reference %v %v\nq=%v\nm=%v", i, e, ov, cont, wantOv, wantCont, q, m)
			}
		}
		tree.putQueryCtx(qc)
	}
	if long == 0 {
		t.Fatal("no entry with a two-byte count was drawn")
	}

	// A query every entry overlaps in every dimension: each constrained at
	// its top level to all of that level's values. Beside it, one leaving
	// the dimension under test unconstrained.
	whole := make(mds.MDS, len(space))
	for d, h := range space {
		ids, _ := h.ValuesAt(h.TopLevel())
		whole[d] = mds.DimSet{Level: h.TopLevel(), IDs: ids}
	}
	nation, _ := space[0].AncestorAt(leaves[0][0], 1)
	parts := slices.Clone(leaves[1][:3])
	hierarchy.SortIDs(parts)
	parts = slices.Compact(parts)
	entry := mds.MDS{{Level: 1, IDs: []hierarchy.ID{nation}}, {Level: 0, IDs: parts}, {Level: 0, IDs: leaves[2][:1]}}
	enc := entry.AppendEncode(nil)
	at := []int{1} // at[d] is where dimension d's level byte lies
	for d := 1; d < len(entry); d++ {
		at = append(at, at[d-1]+2+4*len(entry[d-1].IDs))
	}
	for _, d := range []int{0, len(entry) - 1} {
		x := at[d] // level byte; the count's one byte follows
		edit := func(f func(b []byte) []byte) []byte { return f(slices.Clone(enc)) }
		bad := map[string][]byte{
			"no level byte":    enc[:x],
			"no count":         enc[:x+1],
			"truncated value":  edit(func(b []byte) []byte { return b[:x+2+4*int(b[x+1])-1] }),
			"ALL with values":  edit(func(b []byte) []byte { b[x] = hierarchy.LevelALL; return b }),
			"empty set":        edit(func(b []byte) []byte { b[x+1] = 0; return b }),
			"count past bytes": edit(func(b []byte) []byte { b[x+1] = 127; return b }),
			"count past 64 bit": edit(func(b []byte) []byte {
				return append(append(b[:x+1:x+1], bytes.Repeat([]byte{0xff}, 10)...), b[x+2:]...)
			}),
			"level past depth": edit(func(b []byte) []byte { b[x] = byte(space[d].Depth()); return b }),
			"dims one short":   edit(func(b []byte) []byte { b[0]--; return b }),
			"dims one over":    edit(func(b []byte) []byte { b[0]++; return b }),
		}
		if d == 0 {
			bad["empty"] = nil
		}
		open := whole.Clone()
		open[d] = mds.AllDim()
		for name, blob := range bad {
			f := flatDirWithBlob(t, tree, blob)
			for qname, q := range map[string]mds.MDS{"constrained": whole, "unconstrained": open} {
				if name == "level past depth" && qname == "unconstrained" {
					continue // no mask reads the level of an unconstrained dimension
				}
				qc := tree.newQueryCtx(q)
				if _, _, err := qc.matchEntryFlat(&f, 0); !errors.Is(err, ErrCorrupt) {
					t.Errorf("dim %d %s, %s query: %v, want ErrCorrupt", d, name, qname, err)
				}
				tree.putQueryCtx(qc)
			}
		}
		// The encoding itself is well-formed, and matches.
		f := flatDirWithBlob(t, tree, enc)
		qc := tree.newQueryCtx(whole)
		if ov, _, err := qc.matchEntryFlat(&f, 0); err != nil || !ov {
			t.Fatalf("well-formed entry: overlaps %v, %v", ov, err)
		}
		tree.putQueryCtx(qc)
	}
}

// TestScanRowsAgainstContainsLeaves pins the leaf kernel to
// MDS.ContainsLeaves — including rows whose values were registered after
// the masks were built.
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
		qc := tree.newQueryCtx(q)
		known := make([]int, len(space)) // leaf codes the masks were sized for
		for d, h := range space {
			known[d], _ = h.CountAt(0)
		}
		rows := append([]cube.Record(nil), recs[:50]...)
		if i%3 == 0 {
			rows = append(rows, genRecords(t, s, rng, 5)...) // may mint new codes
		}
		leaf := NewNode(0, true, s.Dims(), s.Measures())
		var want cube.Fixed
		wantMatched := 0
		for _, r := range rows {
			coords, units := rowOf(s, r)
			leaf.appendRecord(coords, units)
			in, err := q.ContainsLeaves(space, r.Coords)
			if err != nil {
				t.Fatal(err)
			}
			// A value minted after the mask build is outside the snapshot.
			for d, c := range r.Coords {
				if qc.dims[d].levels != nil && int(c.Code()) >= known[d] {
					in = false
				}
			}
			if in {
				want.Add(units[0])
				wantMatched++
			}
		}
		nv, out := leaf.flat, make([]cube.Fixed, 1)
		scanned, matched := qc.scanRows(&nv, 0, out)
		if scanned != len(rows) || matched != wantMatched || out[0] != want {
			t.Fatalf("case %d: scanned %d matched %d agg %+v, want %d %d %+v\nq=%v",
				i, scanned, matched, out[0], len(rows), wantMatched, want, q)
		}
		tree.putQueryCtx(qc)
	}
}

// refScanRows is the leaf kernel before the selection vector, kept as the
// reference: every row tested dimension by dimension, leaving at the first
// miss, and folded when it passes.
func refScanRows(qc *queryCtx, nv *NodeView, first int, out []cube.Fixed) (rows, matched int) {
	tests := qc.rows
	rows = nv.count
flatRows:
	for i := 0; i < rows; i++ {
		for _, rt := range tests {
			if !rt.mask.Get(nv.Coord(i, rt.dim).Code()) {
				continue flatRows
			}
		}
		matched++
		for j := range out {
			out[j].Add(nv.Units(i, first+j))
		}
	}
	return rows, matched
}

// TestScanRowsMatchesReference holds the selection-vector leaf kernel to the
// row-at-a-time reference on random masks: 0 to 4 constrained dimensions in
// any order, row codes past the mask's words, chunk edges (1, 169, 256 and
// 257 rows, and a supernode's), a one-measure window at
// every measure and the all-measures sink, into empty and non-empty sinks.
// Counts and every aggregate field must agree to the bit, under each leaf
// kernel.
func TestScanRowsMatchesReference(t *testing.T) {
	forEachLeafKernel(t, scanRowsMatchesReference)
}

func scanRowsMatchesReference(t *testing.T) {
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
			leaf.setBlocks(1 + n/169)
			for r := 0; r < n; r++ {
				coords, units := make([]hierarchy.ID, dims), make([]int64, nm)
				for d := range coords {
					coords[d] = hierarchy.MakeID(0, uint32(rng.Intn(domain[d]+130)))
				}
				for j := range units {
					switch rng.Intn(8) {
					case 0:
						units[j] = -1
					case 1:
						units[j] = 1
					default:
						units[j] = rng.Int63n(1<<(8*(1+j))) - 1<<(8*(1+j)-1)
					}
				}
				leaf.appendRecord(coords, units)
			}
			nv := leaf.flat
			for first, width := range []int{1, 1, 1, nm} {
				if width == nm {
					first = 0
				}
				got, want := make([]cube.Fixed, width), make([]cube.Fixed, width)
				if rng.Intn(2) == 0 {
					for j := range got {
						got[j] = cube.FixedOf(rng.Int63n(1000))
						want[j] = got[j]
					}
				}
				rows, matched := qc.scanRows(&nv, first, got)
				wantRows, wantMatched := refScanRows(qc, &nv, first, want)
				if rows != wantRows || matched != wantMatched {
					t.Fatalf("case %d, %d rows: scanned %d matched %d, reference %d %d",
						i, n, rows, matched, wantRows, wantMatched)
				}
				for j := range got {
					if got[j] != want[j] {
						t.Fatalf("case %d, %d rows, measure %d: %+v, reference %+v",
							i, n, first+j, got[j], want[j])
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

// checkMasks requests every level of every constrained dimension of qc
// through dimMasks.mask and compares it with the reference's, bit for bit. Only the
// query's level and those below it may be built before the first request.
// The level above the query's is asked for first (one lift), then the top
// (the lifts between), then every level.
func checkMasks(t testing.TB, qc *queryCtx, want [][]bitmap.Dense, q mds.MDS) {
	t.Helper()
	for d := range want {
		dm := &qc.dims[d]
		if (dm.levels == nil) != (want[d] == nil) || len(dm.levels) != len(want[d]) {
			t.Fatalf("dim %d: %d mask levels, reference %d\nq=%v", d, len(dm.levels), len(want[d]), q)
		}
		if want[d] == nil {
			continue
		}
		if dm.lq != q[d].Level || dm.top != dm.lq {
			t.Fatalf("dim %d: query level %d, built to %d before any request; want %d", d, dm.lq, dm.top, q[d].Level)
		}
		top := len(want[d]) - 1
		order := []int{min(dm.lq+1, top), top}
		for l := 0; l <= top; l++ {
			order = append(order, l)
		}
		for _, l := range order {
			if got := dm.mask(l); !slices.Equal(got, want[d][l]) {
				t.Fatalf("dim %d level %d: mask %x, reference %x\nq=%v", d, l, got, want[d][l], q)
			}
		}
	}
}

// checkQueryMasks builds q's masks and compares every level of every
// dimension with the reference's (checkMasks), and the record tests with
// the leaf masks: each constrained dimension once, its members counted,
// most selective first.
func checkQueryMasks(t *testing.T, ix *Index, q mds.MDS) {
	t.Helper()
	space := ix.space()
	want := refQueryMasks(space, q, func(d, l int) int { n, _ := space[d].CountAt(l); return n })
	qc := ix.newQueryCtx(q)
	defer ix.putQueryCtx(qc)
	checkMasks(t, qc, want, q)
	constrained := 0
	for d := range want {
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

// checkSizedMasks builds q's masks in qc at the sizes count gives, as a
// query whose masks were sized before later registrations sees them, and
// compares the members fillDown counts and every level with the
// reference's.
func checkSizedMasks(t testing.TB, qc *queryCtx, space mds.Space, q mds.MDS, count func(d, l int) int) {
	t.Helper()
	want := refQueryMasks(space, q, count)
	qc.dims = make([]dimMasks, len(space))
	for d, h := range space {
		lq := q[d].Level
		if lq == hierarchy.LevelALL {
			continue
		}
		levels := make([]bitmap.Dense, h.Depth())
		for l := range levels {
			levels[l] = bitmap.NewDense(count(d, l))
		}
		qc.dims[d] = dimMasks{h: h, levels: levels, lq: lq, top: lq}
		if members := qc.fillDown(h, levels, lq, q[d].IDs); members != want[d][0].Count() {
			t.Fatalf("dim %d: %d members, reference mask holds %d\nq=%v", d, members, want[d][0].Count(), q)
		}
	}
	checkMasks(t, qc, want, q)
}

// TestQueryMasksMatchReference holds the mask build, every level asked for
// through mask, to the father-table reference on the TPC-D cube's query
// classes and on random queries over random hierarchies: as registered,
// after more values are registered, as decoded from their encoding and as
// restored from registration deltas — and on masks sized before values
// registered afterwards, whose codes the walk must skip. A calendar, whose
// child slices are runs of consecutive codes across word boundaries, is
// held to it the same ways, with a run that outgrows its level's words.
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
	t.Run("calendar", testCalendarMasks)

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

	sized := sizesOf(space)
	addLeaves(300) // new values join the ends of existing child slices
	t.Run("registered later", func(t *testing.T) {
		for _, q := range queries {
			checkQueryMasks(t, ix, q)
		}
	})
	t.Run("sized before registration", func(t *testing.T) {
		qc := &queryCtx{}
		for _, q := range queries {
			checkSizedMasks(t, qc, space, q, func(d, l int) int { return sized[d][l] })
		}
	})

	for name, hs := range decodedAndRestored(t, space) {
		t.Run(name, func(t *testing.T) {
			ix, _ := newBareIndex(t, cube.MustNewSchema(hs, "Price"), DefaultConfig())
			for _, q := range queries {
				checkQueryMasks(t, ix, q)
			}
		})
	}
}

// sizesOf returns each level's value count, per dimension: the sizes a
// query's masks take now.
func sizesOf(space mds.Space) [][]int {
	sized := make([][]int, len(space))
	for d, h := range space {
		for l := 0; l < h.Depth(); l++ {
			n, _ := h.CountAt(l)
			sized[d] = append(sized[d], n)
		}
	}
	return sized
}

// decodedAndRestored returns two copies of every hierarchy of space: one
// decoded from its encoding, one restored from its registration deltas.
func decodedAndRestored(t *testing.T, space mds.Space) map[string][]*hierarchy.Hierarchy {
	t.Helper()
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
	return map[string][]*hierarchy.Hierarchy{"decoded": decoded, "restored": restored}
}

// registerDays registers the days of a 30-day-month calendar in calendar
// order, from day from up to (not including) day to, and returns them.
func registerDays(t testing.TB, cal *hierarchy.Hierarchy, from, to int) []hierarchy.ID {
	t.Helper()
	var days []hierarchy.ID
	for day := from; day < to; day++ {
		month := day / 30
		id, err := cal.Register(fmt.Sprintf("Y%d", month/12), fmt.Sprintf("M%d", month), fmt.Sprintf("D%d", day))
		if err != nil {
			t.Fatal(err)
		}
		days = append(days, id)
	}
	return days
}

// testCalendarMasks holds the run fills to the reference on a calendar
// registered in its own order: a month's days and a year's months are runs
// of consecutive codes, many across a word boundary. Masks sized after
// 1,145 days (18 words, 1,152 codes) meet month 38's run of days
// 1,140–1,169, which 25 later days carry past those words.
func testCalendarMasks(t *testing.T) {
	cal := hierarchy.MustNew("Time", "Day", "Month", "Year")
	s := cube.MustNewSchema([]*hierarchy.Hierarchy{cal}, "Price")
	space := s.Space()
	leaves := [][]hierarchy.ID{registerDays(t, cal, 0, 1145)}
	rng := rand.New(rand.NewSource(71))
	queries := []mds.MDS{
		{{Level: 1, IDs: []hierarchy.ID{hierarchy.MakeID(1, 38)}}},
		{{Level: 1, IDs: []hierarchy.ID{hierarchy.MakeID(1, 2), hierarchy.MakeID(1, 37), hierarchy.MakeID(1, 38)}}},
		{{Level: 2, IDs: []hierarchy.ID{hierarchy.MakeID(2, 3)}}},
		{{Level: 2, IDs: []hierarchy.ID{hierarchy.MakeID(2, 0), hierarchy.MakeID(2, 1), hierarchy.MakeID(2, 2), hierarchy.MakeID(2, 3)}}},
	}
	for range 200 {
		queries = append(queries, randomSpaceMDS(rng, space, leaves))
	}
	ix, _ := newBareIndex(t, s, DefaultConfig())
	for _, q := range queries {
		checkQueryMasks(t, ix, q)
	}

	sized := sizesOf(space)
	registerDays(t, cal, 1145, 1170)
	if run := cal.ChildTable(1)[38]; run[0] != 1140 || run[len(run)-1] < uint32(bitmap.DenseWords(sized[0][0])*64) {
		t.Fatalf("month 38's days %d–%d do not outgrow %d days' words", run[0], run[len(run)-1], sized[0][0])
	}
	qc := &queryCtx{}
	for _, q := range queries {
		checkQueryMasks(t, ix, q)
		checkSizedMasks(t, qc, space, q, func(d, l int) int { return sized[d][l] })
	}
	for _, hs := range decodedAndRestored(t, space) {
		ix, _ := newBareIndex(t, cube.MustNewSchema(hs, "Price"), DefaultConfig())
		for _, q := range queries {
			checkQueryMasks(t, ix, q)
		}
	}
}

// FuzzQueryMasks holds the mask build, every level asked for through mask,
// to the reference on a random hierarchy of one to four levels, registered
// in random order or in calendar order (every child slice one run of
// consecutive codes, up to 70 long), and a random query over it: with the
// masks sized after the first leaves registered and the rest registered
// after, so that runs cross the words sized for their level; and through
// newQueryCtx once every leaf is registered.
func FuzzQueryMasks(f *testing.F) {
	f.Add(int64(1), uint8(2), uint16(300), false, uint8(1), uint8(5))
	f.Add(int64(2), uint8(2), uint16(1500), true, uint8(1), uint8(2))
	f.Add(int64(3), uint8(3), uint16(2000), true, uint8(3), uint8(40))
	f.Add(int64(4), uint8(0), uint16(90), false, uint8(0), uint8(9))
	f.Fuzz(func(t *testing.T, seed int64, depth uint8, leaves uint16, calendar bool, level, picks uint8) {
		rng := rand.New(rand.NewSource(seed))
		names := make([]string, 1+int(depth)%4)
		fan := make([]int, len(names)) // children per value, leaf level upward
		for l := range names {
			names[l] = fmt.Sprintf("L%d", l)
			fan[l] = 1 + rng.Intn(70)
		}
		h := hierarchy.MustNew("D", names...)
		register := func(from, to int) {
			path := make([]string, len(names))
			for i := from; i < to; i++ {
				for l, k := 0, i; l < len(names); l++ {
					if !calendar {
						k = rng.Intn(fan[l])
					}
					path[len(names)-1-l] = fmt.Sprint(k)
					if calendar {
						k /= fan[l]
					}
				}
				if _, err := h.Register(path...); err != nil {
					t.Fatal(err)
				}
			}
		}
		n := 1 + int(leaves)%2000
		first := 1 + rng.Intn(n)
		register(0, first)
		space := mds.Space{h}
		sized := sizesOf(space)
		register(first, n)

		lq := int(level) % len(names)
		ids := make([]hierarchy.ID, 0, sized[0][lq])
		for _, c := range rng.Perm(sized[0][lq])[:1+int(picks)%sized[0][lq]] {
			ids = append(ids, hierarchy.MakeID(lq, uint32(c)))
		}
		hierarchy.SortIDs(ids)
		q := mds.MDS{{Level: lq, IDs: ids}}
		checkSizedMasks(t, &queryCtx{}, space, q, func(d, l int) int { return sized[d][l] })
		ix, _ := newBareIndex(t, cube.MustNewSchema([]*hierarchy.Hierarchy{h}, "M"), DefaultConfig())
		checkQueryMasks(t, ix, q)
	})
}
