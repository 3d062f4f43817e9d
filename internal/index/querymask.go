package index

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"github.com/dcindex/dctree/internal/bitmap"
	"github.com/dcindex/dctree/internal/cube"
	"github.com/dcindex/dctree/internal/hierarchy"
	"github.com/dcindex/dctree/internal/mds"
)

// queryCtx precomputes, per constrained dimension, a membership mask for
// EVERY hierarchy level: masks[d][L] reports whether the value MakeID(L, c)
// is comparable with some query value — lies under one at or below the
// query's level, has one beneath it above that level. Masks are built once
// per query, from the query's own values: downwards by walking their child
// lists, upwards by lifting them through the composed ancestor tables. The
// build costs what the query covers, never a pass over a whole level.
// Afterwards every membership test on the descent — per directory-entry
// value at whatever level the entry is described, and per data record — is
// a single word load.
//
// The masks are word-packed bitmap.Dense bitsets (8× denser than the []bool
// they replace) carved out of two arenas owned by the queryCtx, and whole
// queryCtx values are recycled through the index's qcPool: a steady-state
// query builds its masks without allocating. Execute releases the context
// back to the pool after the descent — no goroutine may retain it past the
// query (parallel workers are joined before release).
type queryCtx struct {
	q mds.MDS
	// masks[d] is nil for unconstrained (ALL) dimensions; otherwise
	// masks[d][L] is the mask of level L, 0 ≤ L ≤ the dimension's top level.
	masks [][]bitmap.Dense
	// rows lists the constrained dimensions with their level-0 masks, most
	// selective first: all a record test needs, hoisted out of the per-node
	// and per-record loops.
	rows []rowMask
	// slab is the word arena backing every mask; lvlSlab the arena backing
	// the per-dimension level slices; work the two worklists of the
	// downward walk. All grow to the largest query seen and are reused
	// verbatim afterwards.
	slab    []uint64
	lvlSlab []bitmap.Dense
	work    [2][]uint32
}

// rowMask is the record test of one constrained dimension: members of its
// domain of leaves pass it, and members ÷ domain orders the tests.
type rowMask struct {
	dim             int
	mask            bitmap.Dense
	members, domain int
}

func (ix *Index) newQueryCtx(q mds.MDS) (*queryCtx, error) {
	space := ix.space()
	qc, _ := ix.qcPool.Get().(*queryCtx)
	if qc == nil {
		qc = &queryCtx{}
		ix.c.maskPoolMisses.Inc()
	} else {
		ix.c.maskPoolHits.Inc()
	}
	qc.q = q
	qc.rows = qc.rows[:0]
	if cap(qc.masks) < len(q) {
		qc.masks = make([][]bitmap.Dense, len(q))
	} else {
		qc.masks = qc.masks[:len(q)]
	}

	// First pass: size the arenas. CountAt is a dictionary lookup, so the
	// extra pass costs nothing next to allocating per-level masks would.
	totalWords, totalLevels := 0, 0
	for d, h := range space {
		if q[d].Level == hierarchy.LevelALL {
			qc.masks[d] = nil
			continue
		}
		totalLevels += h.Depth()
		for l := 0; l < h.Depth(); l++ {
			count, err := h.CountAt(l)
			if err != nil {
				ix.putQueryCtx(qc)
				return nil, err
			}
			totalWords += bitmap.DenseWords(count)
		}
	}
	if cap(qc.slab) < totalWords {
		qc.slab = make([]uint64, totalWords)
	} else {
		qc.slab = qc.slab[:totalWords]
		clear(qc.slab)
	}
	if cap(qc.lvlSlab) < totalLevels {
		qc.lvlSlab = make([]bitmap.Dense, totalLevels)
	} else {
		qc.lvlSlab = qc.lvlSlab[:totalLevels]
	}

	// Second pass: carve the masks, walk down from the query's values and
	// lift them up the ancestor tables.
	wOff, lOff := 0, 0
	for d, h := range space {
		lq := q[d].Level
		if lq == hierarchy.LevelALL {
			continue
		}
		levels := qc.lvlSlab[lOff : lOff+h.Depth() : lOff+h.Depth()]
		lOff += h.Depth()
		domain := 0
		for l := range levels {
			count, err := h.CountAt(l)
			if err != nil {
				ix.putQueryCtx(qc)
				return nil, err
			}
			if l == 0 {
				domain = count
			}
			w := bitmap.DenseWords(count)
			levels[l] = bitmap.Dense(qc.slab[wOff : wOff+w : wOff+w])
			wOff += w
		}
		members := qc.fillDown(h, levels, lq, q[d].IDs)
		for l := lq + 1; l < len(levels); l++ {
			tab, m := h.AncestorTable(lq, l), levels[l]
			for _, id := range q[d].IDs {
				m.Set(tab[id.Code()].Code())
			}
		}
		qc.masks[d] = levels
		qc.rows = append(qc.rows, rowMask{dim: d, mask: levels[0], members: members, domain: domain})
	}
	// The leaf kernel tests the first dimension on every row and each
	// further one on the survivors only, so the fewest survivors first.
	slices.SortStableFunc(qc.rows, func(a, b rowMask) int {
		return cmp.Compare(a.members*b.domain, b.members*a.domain)
	})
	return qc, nil
}

// fillDown sets the query's own values at level lq — distinct, as a valid
// MDS holds them — and walks down their child lists, level by level,
// setting every value under one of them. The walk reaches each of those
// values once, through the two pooled worklists, and returns how many
// leaves it set. A child code beyond the words sized for its level is
// skipped, as Dense.Get reads it.
func (qc *queryCtx) fillDown(h *hierarchy.Hierarchy, levels []bitmap.Dense, lq int, ids []hierarchy.ID) int {
	cur, nxt := qc.work[0][:0], qc.work[1][:0]
	m := levels[lq]
	for _, id := range ids {
		m.Set(id.Code())
		cur = append(cur, id.Code())
	}
	for l := lq; l > 0; l-- {
		head, next := h.ChildLinks(l)
		m, nxt = levels[l-1], nxt[:0]
		words := uint32(len(m))
		for _, p := range cur {
			for c := head[p]; c != hierarchy.NoChild; c = next[c] {
				if c>>6 < words {
					m.Set(c)
					nxt = append(nxt, c)
				}
			}
		}
		cur, nxt = nxt, cur
	}
	qc.work[0], qc.work[1] = cur, nxt
	return len(cur)
}

// putQueryCtx returns a query context's arenas to the pool. The caller must
// guarantee no descent still references it.
func (ix *Index) putQueryCtx(qc *queryCtx) {
	qc.q = nil // do not retain the caller's query MDS
	ix.qcPool.Put(qc)
}

// scanChunk is how many rows the leaf kernel selects at a time: the length
// of its selection vector, which lives on the stack.
const scanChunk = 256

// scanRows is the leaf kernel: it tests every record of a data node against
// the query and folds the measures first..first+len(out)-1 of the matching
// ones into out. The rows are read where they lie, a heap node's in its
// packed arrays, a flat node's at a fixed stride in the payload. It returns
// the number of records tested and matched.
//
// The rows are taken in chunks of scanChunk through a selection vector: the
// most selective constrained dimension is tested on every row of the chunk,
// each further one only on the rows that passed so far, and every test is
// branch-free — the row's index is written and kept by adding its mask bit.
// The survivors are folded in row order, so out ends bit-identical to a
// row-at-a-time fold.
//
// Records may carry values registered after the masks were built (inserts
// between the mask build and an as-of descent); a code beyond the mask is
// outside the range, as Dense.Get reads it, consistent with the query's
// snapshot.
func (qc *queryCtx) scanRows(nv *NodeView, first int, out cube.AggVector) (rows, matched int) {
	var sel [scanChunk]uint16
	if n := nv.n; n != nil {
		coords, dims, vals, nm := n.coords, n.dims, n.measures, n.nm
		rows = len(coords) / dims
		for base := 0; base < rows; base += scanChunk {
			chunk := coords[base*dims : min(base+scanChunk, rows)*dims]
			k := qc.selectHeap(&sel, chunk, dims)
			matched += k
			for j := range out {
				a, vs := &out[j], vals[base*nm+first+j:]
				for _, s := range sel[:k] {
					a.Add(vs[int(s)*nm])
				}
			}
		}
		return rows, matched
	}
	stride, measures := nv.f.fixedPer, 4*nv.f.dims+8*first
	rows = nv.f.count
	for base := 0; base < rows; base += scanChunk {
		chunk := nv.f.b[nv.f.fixBase+base*stride : nv.f.fixBase+min(base+scanChunk, rows)*stride]
		k := qc.selectFlat(&sel, chunk, stride)
		matched += k
		for j := range out {
			a, vs := &out[j], chunk[measures+8*j:]
			for _, s := range sel[:k] {
				a.Add(math.Float64frombits(binary.LittleEndian.Uint64(vs[int(s)*stride:])))
			}
		}
	}
	return rows, matched
}

// maskBit is the record test of one code: 1 if the mask holds it, else 0.
func maskBit(m bitmap.Dense, c uint32) int {
	if w := int(c >> 6); w < len(m) {
		return int(m[w] >> (c & 63) & 1)
	}
	return 0
}

// selectHeap fills sel with the indexes of the rows of chunk (heap
// coordinates, dims per row, at most scanChunk rows) that pass every record
// test, in row order, and returns their number.
func (qc *queryCtx) selectHeap(sel *[scanChunk]uint16, chunk []hierarchy.ID, dims int) int {
	n := len(chunk) / dims
	if len(qc.rows) == 0 {
		for i := range n {
			sel[i] = uint16(i)
		}
		return n
	}
	mask, k := qc.rows[0].mask, 0
	for i, o := 0, qc.rows[0].dim; i < n; i, o = i+1, o+dims {
		sel[uint8(k)] = uint16(i)
		k += maskBit(mask, chunk[o].Code())
	}
	for _, rt := range qc.rows[1:] {
		kept := 0
		for _, s := range sel[:k] {
			sel[uint8(kept)] = s
			kept += maskBit(rt.mask, chunk[int(s)*dims+rt.dim].Code())
		}
		k = kept
	}
	return k
}

// selectFlat is selectHeap over flat rows: stride bytes per row, the
// coordinates little-endian u32s at the front.
func (qc *queryCtx) selectFlat(sel *[scanChunk]uint16, chunk []byte, stride int) int {
	n := len(chunk) / stride
	if len(qc.rows) == 0 {
		for i := range n {
			sel[i] = uint16(i)
		}
		return n
	}
	mask, k := qc.rows[0].mask, 0
	for i, o := 0, 4*qc.rows[0].dim; i < n; i, o = i+1, o+stride {
		sel[uint8(k)] = uint16(i)
		k += maskBit(mask, binary.LittleEndian.Uint32(chunk[o:o+4])&hierarchy.MaxCode)
	}
	for _, rt := range qc.rows[1:] {
		kept := 0
		for _, s := range sel[:k] {
			sel[uint8(kept)] = s
			o := int(s)*stride + 4*rt.dim
			kept += maskBit(rt.mask, binary.LittleEndian.Uint32(chunk[o:o+4])&hierarchy.MaxCode)
		}
		k = kept
	}
	return k
}

// matchEntryFlat classifies directory entry i of a flat node against the
// query: whether the entry overlaps the range at all, and whether the range
// fully contains it. The entry's MDS is walked in its wire encoding via a
// view iterator, testing each value against the mask of the level the entry
// is described at — the same probe whether the entry is finer than, level
// with or coarser than the query; a coarser entry (or ALL) can overlap but
// never be contained. A malformed encoding surfaces as ErrCorrupt.
func (qc *queryCtx) matchEntryFlat(f *FlatNode, i int) (overlaps, contained bool, err error) {
	it, err := mds.NewViewIter(f.EntryMDS(i))
	if err != nil || it.Dims() != len(qc.masks) {
		return false, false, fmt.Errorf("%w: node %d entry %d mds", ErrCorrupt, f.id, i)
	}
	contained = true
	for d, levels := range qc.masks {
		dv, ok := it.Next()
		if !ok {
			return false, false, fmt.Errorf("%w: node %d entry %d mds dim %d", ErrCorrupt, f.id, i, d)
		}
		if levels == nil {
			continue // unconstrained dimension; still consumed above
		}
		if dv.IsALL() {
			contained = false
			continue
		}
		if dv.Level >= len(levels) {
			return false, false, fmt.Errorf("%w: node %d entry %d mds dim %d level %d", ErrCorrupt, f.id, i, d, dv.Level)
		}
		mask := levels[dv.Level]
		dimOverlap, dimContained := false, dv.Level <= qc.q[d].Level
		for j, n := 0, dv.Len(); j < n; j++ {
			if mask.Get(dv.ID(j).Code()) {
				dimOverlap = true
			} else {
				dimContained = false
			}
			if dimOverlap && !dimContained {
				break
			}
		}
		if !dimOverlap {
			return false, false, nil
		}
		if !dimContained {
			contained = false
		}
	}
	return true, contained, nil
}
