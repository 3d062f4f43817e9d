package index

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/dcindex/dctree/internal/bitmap"
	"github.com/dcindex/dctree/internal/cube"
	"github.com/dcindex/dctree/internal/hierarchy"
	"github.com/dcindex/dctree/internal/mds"
)

// queryCtx precomputes, per constrained dimension, a membership mask for
// EVERY hierarchy level: masks[d][L] reports whether the value MakeID(L, c)
// is comparable with some query value — lies under one at or below the
// query's level, has one beneath it above that level. Masks are built once
// per query: downwards by propagating the query's value set through the
// dense father tables, upwards by lifting the query's own values through
// the composed ancestor tables (O(|q[d]|) per level, never a pass over a
// whole level). Afterwards every membership test on the descent — per
// directory-entry value at whatever level the entry is described, and per
// data record — is a single word load.
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
	// rows lists the constrained dimensions with their level-0 masks: all a
	// record test needs, hoisted out of the per-node and per-record loops.
	rows []rowMask
	// slab is the word arena backing every mask; lvlSlab the arena backing
	// the per-dimension level slices. Both grow to the largest query seen
	// and are reused verbatim afterwards.
	slab    []uint64
	lvlSlab []bitmap.Dense
}

// rowMask is the record test of one constrained dimension.
type rowMask struct {
	dim  int
	mask bitmap.Dense
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

	// Second pass: carve the masks, set the query's own level, propagate it
	// down the father tables and lift it up the ancestor tables.
	wOff, lOff := 0, 0
	for d, h := range space {
		lq := q[d].Level
		if lq == hierarchy.LevelALL {
			continue
		}
		levels := qc.lvlSlab[lOff : lOff+h.Depth() : lOff+h.Depth()]
		lOff += h.Depth()
		for l := range levels {
			count, err := h.CountAt(l)
			if err != nil {
				ix.putQueryCtx(qc)
				return nil, err
			}
			w := bitmap.DenseWords(count)
			levels[l] = bitmap.Dense(qc.slab[wOff : wOff+w : wOff+w])
			wOff += w
		}
		for _, id := range q[d].IDs {
			levels[lq].Set(id.Code())
		}
		for l := lq - 1; l >= 0; l-- {
			parents, err := h.ParentTable(l)
			if err != nil {
				ix.putQueryCtx(qc)
				return nil, err
			}
			m, up := levels[l], levels[l+1]
			for c, p := range parents {
				if up.Get(p.Code()) {
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
		qc.masks[d] = levels
		qc.rows = append(qc.rows, rowMask{dim: d, mask: levels[0]})
	}
	return qc, nil
}

// putQueryCtx returns a query context's arenas to the pool. The caller must
// guarantee no descent still references it.
func (ix *Index) putQueryCtx(qc *queryCtx) {
	qc.q = nil // do not retain the caller's query MDS
	ix.qcPool.Put(qc)
}

// scanRows is the leaf kernel: it tests every record of a data node against
// the query — one mask word load per constrained dimension — and folds the
// measures first..first+len(out)-1 of the matching ones into out. The rows
// are read where they lie, a heap node's in its packed arrays, a flat
// node's at a fixed stride in the payload. It returns the number of records
// tested and matched.
//
// Records may carry values registered after the masks were built (inserts
// between the mask build and an as-of descent); Dense.Get treats codes
// beyond the mask as outside the range, consistent with the query's
// snapshot.
func (qc *queryCtx) scanRows(nv *NodeView, first int, out cube.AggVector) (rows, matched int) {
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
	b, stride, measures := nv.f.b[nv.f.fixBase:], nv.f.fixedPer, 4*nv.f.dims+8*first
	rows = nv.f.count
flatRows:
	for i := 0; i < rows; i++ {
		row := b[i*stride : (i+1)*stride]
		for _, rt := range tests {
			if !rt.mask.Get(binary.LittleEndian.Uint32(row[4*rt.dim:]) & hierarchy.MaxCode) {
				continue flatRows
			}
		}
		matched++
		for j := range out {
			out[j].Add(math.Float64frombits(binary.LittleEndian.Uint64(row[measures+8*j:])))
		}
	}
	return rows, matched
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
