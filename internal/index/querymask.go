package index

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"unsafe"

	"github.com/dcindex/dctree/internal/bitmap"
	"github.com/dcindex/dctree/internal/cube"
	"github.com/dcindex/dctree/internal/hierarchy"
	"github.com/dcindex/dctree/internal/mds"
)

// queryCtx holds, per constrained dimension, a membership mask for every
// hierarchy level: level L's mask reports whether the value MakeID(L, c) is
// comparable with some query value — lies under one at or below the
// query's level, has one beneath it above that level. A query builds only
// the masks it reads. Its own level and every level below it, which the
// record tests and most entries read, are built with the context, down the
// query's own child slices; a level above the query's is lifted from the
// level below the first time an entry described there asks for it
// (dimMasks.mask). The build costs what the query covers, never a pass over
// a whole level. Afterwards every membership test on the descent — per
// directory-entry value at whatever level the entry is described, and per
// data record — is a single word load.
//
// The masks are word-packed bitmap.Dense bitsets carved out of two arenas
// owned by the queryCtx, and whole queryCtx values are recycled through
// the index's qcPool: a steady-state query builds its masks without
// allocating. Execute releases the context back to the pool after the
// descent — nothing may retain it past the query.
type queryCtx struct {
	// dims holds each schema dimension's masks; an unconstrained (ALL)
	// dimension's levels are nil.
	dims []dimMasks
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
	// frames are the serial descent's view frames, one per depth; passes
	// the leaf kernel's pass table, and widths the code widths it was
	// built for (passesOf).
	frames []NodeView
	passes []leafPass
	widths []byte
}

// dimMasks is one dimension's masks: levels[L] is level L's, for every
// level of the hierarchy, and those up to top are built — the query's level
// lq, and above it those lifted so far.
type dimMasks struct {
	h       *hierarchy.Hierarchy
	levels  []bitmap.Dense
	lq, top int
}

// rowMask is the record test of one constrained dimension: members of its
// domain of leaves pass it, and members ÷ domain orders the tests.
type rowMask struct {
	dim             int
	mask            bitmap.Dense
	members, domain int
}

func (ix *Index) newQueryCtx(q mds.MDS) *queryCtx {
	space := ix.space()
	qc, _ := ix.qcPool.Get().(*queryCtx)
	if qc == nil {
		qc = &queryCtx{}
		ix.c.maskPoolMisses.Inc()
	} else {
		ix.c.maskPoolHits.Inc()
	}
	qc.rows, qc.widths = qc.rows[:0], qc.widths[:0]
	if cap(qc.dims) < len(q) {
		qc.dims = make([]dimMasks, len(q))
	} else {
		qc.dims = qc.dims[:len(q)]
	}

	// First pass: size the arenas. CountAt is a dictionary lookup, so the
	// extra pass costs nothing next to allocating per-level masks would;
	// every level below a hierarchy's depth is in range, so it cannot fail.
	totalWords, totalLevels := 0, 0
	for d, h := range space {
		if q[d].Level == hierarchy.LevelALL {
			continue
		}
		totalLevels += h.Depth()
		for l := 0; l < h.Depth(); l++ {
			count, _ := h.CountAt(l)
			totalWords += bitmap.DenseWords(count)
		}
	}
	if cap(qc.slab) < totalWords {
		qc.slab = make([]uint64, totalWords)
	} else {
		qc.slab = qc.slab[:totalWords]
	}
	if cap(qc.lvlSlab) < totalLevels {
		qc.lvlSlab = make([]bitmap.Dense, totalLevels)
	} else {
		qc.lvlSlab = qc.lvlSlab[:totalLevels]
	}

	// Second pass: carve the masks, clear the query's level and those
	// below it, and walk down from the query's values. A level above is
	// cleared when it is lifted.
	wOff, lOff := 0, 0
	for d, h := range space {
		lq := q[d].Level
		if lq == hierarchy.LevelALL {
			qc.dims[d] = dimMasks{}
			continue
		}
		levels := qc.lvlSlab[lOff : lOff+h.Depth() : lOff+h.Depth()]
		lOff += h.Depth()
		start, built, domain := wOff, 0, 0
		for l := range levels {
			count, _ := h.CountAt(l)
			if l == 0 {
				domain = count
			}
			w := bitmap.DenseWords(count)
			levels[l] = bitmap.Dense(qc.slab[wOff : wOff+w : wOff+w])
			wOff += w
			if l == lq {
				built = wOff
			}
		}
		clear(qc.slab[start:built])
		qc.dims[d] = dimMasks{h: h, levels: levels, lq: lq, top: lq}
		members := qc.fillDown(h, levels, lq, q[d].IDs)
		qc.rows = append(qc.rows, rowMask{dim: d, mask: levels[0], members: members, domain: domain})
	}
	// The leaf kernel tests the first dimension on every row and each
	// further one on the survivors only, so the fewest survivors first.
	slices.SortStableFunc(qc.rows, func(a, b rowMask) int {
		return cmp.Compare(a.members*b.domain, b.members*a.domain)
	})
	return qc
}

// fillDown sets the query's own values at level lq — distinct, as a valid
// MDS holds them — and walks down their child slices, level by level,
// setting every value under one of them, and returns how many leaves it
// set. The query's codes are set a word at a time, and a child slice of
// consecutive codes — every slice of a dimension registered in its natural
// order, a calendar's — as one run. A level's values feed the next step
// through the two pooled worklists; the leaf step keeps none. A child code
// beyond the words sized for its level is skipped, as Dense.Get reads it.
func (qc *queryCtx) fillDown(h *hierarchy.Hierarchy, levels []bitmap.Dense, lq int, ids []hierarchy.ID) int {
	setCodes(levels[lq], ids)
	if lq == 0 {
		return len(ids)
	}
	cur, nxt := qc.work[0][:0], qc.work[1][:0]
	for _, id := range ids {
		cur = append(cur, id.Code())
	}
	members := 0
	for l := lq; l > 0; l-- {
		kids, m := h.ChildTable(l), levels[l-1]
		nxt = nxt[:0]
		limit := uint32(len(m)) << 6
		for _, p := range cur {
			cs := kids[p]
			if n := len(cs); n > 0 && cs[n-1] >= limit {
				k, _ := slices.BinarySearch(cs, limit)
				cs = cs[:k]
			}
			switch n := len(cs); {
			case n == 0:
				continue
			case cs[n-1]-cs[0] == uint32(n-1):
				m.SetRange(cs[0], cs[n-1]+1)
			default:
				for _, c := range cs {
					m.Set(c)
				}
			}
			if l == 1 {
				members += len(cs)
			} else {
				nxt = append(nxt, cs...)
			}
		}
		cur, nxt = nxt, cur
	}
	qc.work[0], qc.work[1] = cur, nxt
	return members
}

// setCodes sets the codes of ids in m a word at a time: the bits of a run
// of ids in one word are gathered before one store.
func setCodes(m bitmap.Dense, ids []hierarchy.ID) {
	w, word := -1, uint64(0)
	for _, id := range ids {
		c := id.Code()
		if int(c>>6) != w {
			if w >= 0 {
				m[w] |= word
			}
			w, word = int(c>>6), 0
		}
		word |= 1 << (c & 63)
	}
	if w >= 0 {
		m[w] |= word
	}
}

// mask returns the mask of level l, lifting the levels above the query's
// up to l first if nothing has asked for them yet. l must be below the
// hierarchy's depth.
func (dm *dimMasks) mask(l int) bitmap.Dense {
	if l > dm.top {
		dm.lift(l)
	}
	return dm.levels[l]
}

// lift builds the levels above top up to l, each from the one below it:
// the father of every member, read from the father table, a father just
// set skipped — the members of an ascending run share theirs. Every member
// is an ancestor of a query value, registered before the masks were
// sized, and so is its father.
func (dm *dimMasks) lift(l int) {
	for ; dm.top < l; dm.top++ {
		below, m := dm.levels[dm.top], dm.levels[dm.top+1]
		clear(m)
		parents, last := dm.h.AncestorTable(dm.top, dm.top+1), ^uint32(0)
		for w, word := range below {
			for ; word != 0; word &= word - 1 {
				if p := parents[w<<6|bits.TrailingZeros64(word)].Code(); p != last {
					m.Set(p)
					last = p
				}
			}
		}
	}
}

// putQueryCtx returns a query context's arenas to the pool. The caller must
// guarantee no descent still references it.
func (ix *Index) putQueryCtx(qc *queryCtx) {
	// Do not retain the last walk's heap nodes and payloads: a frame may
	// frame a mapping its store unmaps at close.
	clear(qc.frames)
	ix.qcPool.Put(qc)
}

// scanChunk is how many rows the leaf kernel selects at a time: the length
// of its selection vector, which lives on the stack. It is above the rows
// of any one-block data node at the default block size — the narrowest
// row, one 1-byte code and one 1-byte measure, is 2 bytes, 2,027 to a
// block (TestOneBlockDataNodeIsOneSelection) — so such a node is one
// selection; only a multi-block node is taken in chunks.
const scanChunk = 2048

// rowIndexes is 0..scanChunk-1: the row indexes a first pass reads.
var rowIndexes = func() (t [scanChunk]uint16) {
	for i := range t {
		t[i] = uint16(i)
	}
	return t
}()

// leafAVX2 selects the leaf kernel's AVX2 routine, chosen once at start-up
// from CPUID (leafkernel_amd64.go); elsewhere the passes are Go loops.
// Tests switch it to hold the two to the same answers.
var leafAVX2 = avx2Supported

// LeafKernel names the leaf kernel this process runs: "avx2", where the CPU
// and OS support it on amd64, else "go". The two return the same rows; a
// query's leaf cost differs between hosts that differ here.
func LeafKernel() string {
	if leafAVX2 {
		return "avx2"
	}
	return "go"
}

// scanRows is the leaf kernel: it tests every record of a data node against
// the query and folds the units of measures first..first+len(out)-1 of the
// matching ones into out. The rows are read where they lie, at a fixed
// stride in the node's encoding — a heap node's own block, a mapped extent or a payload.
// It returns the number of records tested and matched.
//
// The rows are taken through a selection vector, a node of up to scanChunk
// rows whole and a longer one in chunks of scanChunk. Each constrained
// dimension is one pass of the pass table (passesOf): the most selective
// is tested on every row, each further one only on the rows that passed so
// far, and every test is branch-free — the row's index is written and kept
// by adding its mask bit. The survivors are folded in row order. A chunk
// is sliced with the pad behind its rows, so that every load of its last
// row stays inside it. Under leafAVX2 one call of
// selectAVX2 runs every pass of a chunk, tail rows included; otherwise Go
// loops do, selecting the same rows.
//
// Records may carry values registered after the masks were built (inserts
// between the mask build and an as-of descent); a code beyond the mask is
// outside the range, as Dense.Get reads it, consistent with the query's
// snapshot.
func (qc *queryCtx) scanRows(f *FlatNode, first int, out []cube.Fixed) (rows, matched int) {
	var sel [scanChunk]uint16
	stride, passes := f.stride, qc.passesOf(f)
	rows = f.count
	for base := 0; base < rows; base += scanChunk {
		n := min(scanChunk, rows-base)
		chunk := f.b[f.fixBase+base*stride : f.fixBase+(base+n)*stride+leafPad]
		k := selectFlat(&sel, chunk, n, stride, passes)
		matched += k
		for j := range out {
			at, _ := f.column(f.dims + first + j)
			a, vs, w := &out[j], chunk[at-f.fixBase:], f.widths()[f.dims+first+j]
			for _, s := range sel[:k] {
				a.Add(loadUnits(vs[int(s)*stride:], w))
			}
		}
	}
	return rows, matched
}

// leafPass is one record test as the leaf kernel runs it: the level-0 mask
// of a constrained dimension, the offset of the dimension's code in a row,
// and the mask that cuts a 4-byte load there to the code. selectAVX2 reads
// a table of them at the field offsets go_asm.h gives it.
type leafPass struct {
	mask  bitmap.Dense
	off   int
	width uint32
}

// passesOf returns the pass table of the rows of f, in qc.rows' order:
// each tested dimension's mask, where its code lies in a row and the mask
// that cuts the code's width. The table is the queryCtx's, built again
// only for a node whose widths differ from the last one's: most nodes of a
// tree share theirs.
func (qc *queryCtx) passesOf(f *FlatNode) []leafPass {
	if string(f.widths()) == string(qc.widths) {
		return qc.passes
	}
	qc.widths = append(qc.widths[:0], f.widths()...)
	qc.passes = qc.passes[:0]
	for _, rt := range qc.rows {
		off, cut := f.column(rt.dim)
		qc.passes = append(qc.passes, leafPass{mask: rt.mask, off: off - f.fixBase, width: cut})
	}
	return qc.passes
}

// maskBit is the record test of one code: 1 if the mask holds it, else 0.
func maskBit(m bitmap.Dense, c uint32) int {
	if w := int(c >> 6); w < len(m) {
		return int(m[w] >> (c & 63) & 1)
	}
	return 0
}

// selectFlat fills sel with the indexes of the n rows of chunk (stride
// bytes per row, at most scanChunk rows, then at least leafPad bytes) that
// pass every pass of the table, in row order, and returns their number. A
// code lies where its pass puts it: one 4-byte load, which the measures
// behind the codes or the pad keep inside the chunk, cut by its width's
// mask.
func selectFlat(sel *[scanChunk]uint16, chunk []byte, n, stride int, passes []leafPass) int {
	if len(passes) == 0 || n == 0 {
		return copy(sel[:n], rowIndexes[:n])
	}
	if leafAVX2 {
		return selectAVX2(sel, n, unsafe.Pointer(unsafe.SliceData(chunk)), stride, passes)
	}
	k := selectFlatAll(sel, chunk[passes[0].off:], n, stride, passes[0].width, passes[0].mask)
	for _, p := range passes[1:] {
		k = selectFlatKept(sel, chunk[p.off:], k, stride, p.width, p.mask)
	}
	return k
}

// selectFlatAll and selectFlatKept are selectFlat's Go loops over one
// pass, whose codes start chunk at the given stride and are cut by width:
// the first over all n rows, the second over the k kept so far. Each is a
// function of its own, kept out of line: inlined into selectFlat, the
// loops ran out of registers and spilled the count on every row, a tenth
// slower.
//
//go:noinline
func selectFlatAll(sel *[scanChunk]uint16, chunk []byte, n, stride int, width uint32, mask bitmap.Dense) int {
	k := 0
	for i, o := 0, 0; i < n; i, o = i+1, o+stride {
		sel[k&(scanChunk-1)] = uint16(i)
		k += maskBit(mask, binary.LittleEndian.Uint32(chunk[o:o+4])&width)
	}
	return k
}

//go:noinline
func selectFlatKept(sel *[scanChunk]uint16, chunk []byte, k, stride int, width uint32, mask bitmap.Dense) int {
	kept := 0
	for _, s := range sel[:k] {
		sel[kept&(scanChunk-1)] = s
		o := int(s) * stride
		kept += maskBit(mask, binary.LittleEndian.Uint32(chunk[o:o+4])&width)
	}
	return kept
}

// matchEntryFlat classifies directory entry i of a flat node against the
// query: whether the entry overlaps the range at all, and whether the range
// fully contains it. The entry's MDS is read in its wire encoding, in place
// (mds.AppendEncode's layout), and each constrained dimension's values are
// tested against the mask of the level the entry is described at, the same
// probe whether the entry is finer than, level with or coarser than the
// query. A dimension overlaps if it holds a member and is contained if all
// its values are members at or below the query's level; a coarser entry
// (or ALL) can overlap but never be contained. While containment is still
// possible the values are counted, one word load and no branch per value;
// once an earlier dimension or a level above the query's has refuted it,
// the first member ends the dimension. A malformed encoding surfaces as
// ErrCorrupt: truncated, a dimension count that is not the schema's, ALL
// with values, an empty value set, a count past the bytes, a constrained
// dimension's level past its hierarchy's depth. Like any matcher that stops
// at the first dimension without overlap, it checks the dimensions up to
// that one.
func (qc *queryCtx) matchEntryFlat(f *FlatNode, i int) (overlaps, contained bool, err error) {
	b := f.EntryMDS(i)
	if len(b) == 0 || int(b[0]) != len(qc.dims) {
		return false, false, fmt.Errorf("%w: node %d entry %d mds", ErrCorrupt, f.id, i)
	}
	contained = true
	for d, off := 0, 1; d < len(qc.dims); d++ {
		// A level byte, a uvarint count (one byte below 128) and count IDs;
		// ALL, and only ALL, has none.
		if off+1 >= len(b) {
			return false, false, fmt.Errorf("%w: node %d entry %d mds dim %d", ErrCorrupt, f.id, i, d)
		}
		level, count, n := int(b[off]), uint64(b[off+1]), 1
		if count >= 0x80 {
			count, n = binary.Uvarint(b[off+1:])
		}
		off += 1 + n
		if n <= 0 || (level == hierarchy.LevelALL) != (count == 0) || count > uint64(len(b)-off)/4 {
			return false, false, fmt.Errorf("%w: node %d entry %d mds dim %d", ErrCorrupt, f.id, i, d)
		}
		ids := b[off : off+4*int(count)]
		off += len(ids)
		dm := &qc.dims[d]
		switch {
		case dm.levels == nil:
			continue // unconstrained dimension; still checked above
		case level == hierarchy.LevelALL:
			contained = false
			continue
		case level >= len(dm.levels):
			return false, false, fmt.Errorf("%w: node %d entry %d mds dim %d level %d", ErrCorrupt, f.id, i, d, level)
		}
		mask := dm.mask(level)
		if !contained || level > dm.lq {
			// Containment is refuted: only overlap is open, and the
			// first member decides it.
			if !anyMember(mask, ids) {
				return false, false, nil
			}
			contained = false
			continue
		}
		hits := 0
		for o := 0; o < len(ids); o += 4 {
			hits += maskBit(mask, binary.LittleEndian.Uint32(ids[o:])&hierarchy.MaxCode)
		}
		if hits == 0 {
			return false, false, nil
		}
		contained = hits == int(count)
	}
	return true, contained, nil
}

// anyMember reports whether the mask holds one of ids' codes (4-byte IDs,
// little-endian), stopping at the first it holds.
func anyMember(mask bitmap.Dense, ids []byte) bool {
	for o := 0; o < len(ids); o += 4 {
		if maskBit(mask, binary.LittleEndian.Uint32(ids[o:])&hierarchy.MaxCode) != 0 {
			return true
		}
	}
	return false
}
