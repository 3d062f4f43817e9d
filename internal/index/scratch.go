package index

import (
	"encoding/binary"
	"slices"

	"github.com/dcindex/dctree/internal/cube"
	"github.com/dcindex/dctree/internal/hierarchy"
	"github.com/dcindex/dctree/internal/mds"
)

// writeScratch is the tree's one set of write-path buffers: the record
// context of the mutation in flight and the workspace of the split,
// refinement and cover-repair arithmetic. Every mutation (Insert, Delete,
// BulkLoad) runs under the host's exclusive hold, so one scratch per tree
// is never shared; readers never touch it.
//
// Ownership rule: an MDS that lives in the scratch is valid only until the
// next kernel call that uses the same buffer. Whatever the tree keeps — an
// entry's MDS, the covers a split hands to the parent, the root MDS — is
// copied out (setMDS, appendEntry, Clone) before the scratch is used again.
//
// A directory entry's MDS is read where it lies or decoded into one of two
// arenas, by what must stay valid beside it: edit holds the one MDS an
// insert or a delete is changing, or the describing MDS of the node a split
// divides; entry the entry a pass over a node's entries reads, or every
// entry of a node at once (entryMDSs).
type writeScratch struct {
	rc recContext

	contain []uint64   // choose-subtree's mask of the entries containing the record
	probe   [][]uint64 // the delete probe's masks, one per depth below the root
	post    postingScratch

	topMDS  mds.MDS        // (ALL,…,ALL): the root's relevant levels, read-only
	topWire []byte         // topMDS's wire encoding
	edit    mdsArena       // the entry MDS being changed, or a split node's
	entry   mdsArena       // the entry or entries a pass reads
	agg     []cube.Fixed   // an entry's aggregates being changed
	levels  []int          // per-dimension member levels (memberLevels)
	own     []int          // an MDS's relevant levels (levelsOf, wireLevels)
	gone    []int          // the dimensions a delete repair drops a value in
	dimIDs  []hierarchy.ID // one entry's values in one dimension (dimOf)
	top     []int          // every dimension's top named level (bulk load floor)
	members []mds.MDS      // member list of a k-way cover
	rowIDs  []hierarchy.ID // a data node's coordinates, decoded
	rowDims []mds.DimSet   // the singleton sets of a data node's records
	cover   mds.CoverBuf   // node covers: delete-repair fallback, bulk load
	codes   codeSet        // a subtree's description being marked
	desc    []hierarchy.ID // one node description in one dimension
	refined [][]hierarchy.ID
	split   splitScratch
}

func newWriteScratch(schema *cube.Schema) *writeScratch {
	space := schema.Space()
	ws := &writeScratch{
		topMDS:  mds.Top(len(space)),
		codes:   newCodeSet(),
		levels:  make([]int, len(space)),
		own:     make([]int, len(space)),
		top:     make([]int, len(space)),
		refined: make([][]hierarchy.ID, len(space)),
	}
	ws.rc.anc = make([][]hierarchy.ID, len(space))
	ws.rc.units = make([]int64, schema.Measures())
	ws.agg = make([]cube.Fixed, schema.Measures())
	ws.topWire = ws.topMDS.AppendEncode(nil)
	for d, h := range space {
		ws.top[d] = h.TopLevel()
		ws.rc.anc[d] = make([]hierarchy.ID, h.Depth())
	}
	ws.split.init(len(space))
	return ws
}

// recContext is the per-mutation derived state: the record, its measures
// in units, and its ancestor at every hierarchy level of every dimension
// (anc[d][l]). The ancestors are the hot currency of the descent — the
// postings lookups of choose-subtree and the delete probe, the cost
// function, the incremental MDS updates and the delete repair consult them
// — so they are walked exactly once per mutation, into the tree's write
// scratch.
type recContext struct {
	rec   cube.Record
	units []int64
	anc   [][]hierarchy.ID
}

// recContext loads the write scratch's record context for rec, whose
// measures must be exact counts of units of their scales
// (cube.Schema.Units).
func (ix *Index) recContext(rec cube.Record) (*recContext, error) {
	rc := &ix.ws.rc
	rc.rec = rec
	for j, x := range rec.Measures {
		u, err := ix.schema.Units(j, x)
		if err != nil {
			return nil, err
		}
		rc.units[j] = u
	}
	for d, h := range ix.space() {
		levels := rc.anc[d]
		cur := rec.Coords[d]
		levels[0] = cur
		for l := 1; l < len(levels); l++ {
			p, err := h.Parent(cur)
			if err != nil {
				return nil, err
			}
			cur = p
			levels[l] = cur
		}
	}
	return rc, nil
}

// cover folds the record into m in place: per dimension, the record's
// ancestor at m's relevant level is inserted into the sorted value set if
// missing. Equivalent to mds.Cover(m, recMDS) — levels are preserved
// because Cover takes the maximum member level — but without re-unioning
// the untouched values.
func (rc *recContext) cover(m mds.MDS) {
	for d := range m {
		ds := &m[d]
		if ds.Level == hierarchy.LevelALL {
			continue
		}
		anc := rc.anc[d][ds.Level]
		ids := ds.IDs
		lo, hi := 0, len(ids)
		for lo < hi {
			mid := (lo + hi) / 2
			if ids[mid] < anc {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo < len(ids) && ids[lo] == anc {
			continue
		}
		ids = append(ids, 0)
		copy(ids[lo+1:], ids[lo:])
		ids[lo] = anc
		ds.IDs = ids
	}
}

// mdsArena is storage that MDS wire encodings CheckTable passed decode
// into, reused from decode to decode: one decodes an encoding in place of
// what the arena held, add one behind the MDSs it holds, which stay valid.
type mdsArena struct {
	dims []mds.DimSet
	ids  []hierarchy.ID
}

func (a *mdsArena) one(b []byte) mds.MDS {
	a.reset()
	return a.add(b)
}

func (a *mdsArena) reset() { a.dims, a.ids = a.dims[:0], a.ids[:0] }

func (a *mdsArena) add(b []byte) mds.MDS {
	m, _, _ := mds.AppendDecode(b, &a.dims, &a.ids)
	return m
}

// entryMDSs lists the MDSs of n's entries in the scratch's member buffer.
// A data node stores none: its records' singleton MDSs are synthesized over
// its coordinates, decoded into the scratch's row buffer.
func (ws *writeScratch) entryMDSs(n *Node) []mds.MDS {
	ws.members = ws.members[:0]
	f, dims := &n.flat, n.dims
	if !n.leaf {
		ws.entry.reset()
		for i := 0; i < f.count; i++ {
			ws.members = append(ws.members, ws.entry.add(f.EntryMDS(i)))
		}
		return ws.members
	}
	ws.rowIDs = slices.Grow(ws.rowIDs[:0], f.count*dims)[:f.count*dims]
	ws.rowDims = slices.Grow(ws.rowDims[:0], f.count*dims)[:f.count*dims]
	for i, k := 0, 0; i < f.count; i, k = i+1, k+dims {
		ids, sets := ws.rowIDs[k:k+dims], ws.rowDims[k:k+dims:k+dims]
		f.row(i, ids, nil)
		for d := range sets {
			sets[d] = mds.DimSet{IDs: ids[d : d+1 : d+1]}
		}
		ws.members = append(ws.members, sets)
	}
	return ws.members
}

// memberLevels loads into the scratch's level vector, per dimension, the
// coarsest level among n's members — 0 for a data node's rows — which is the
// level their cover takes at no floor (LevelALL is the largest level tag).
// A directory whose postings are valid answers from each dimension's ALL
// mask and level bits; any other reads its entries' levels where they lie.
func (ws *writeScratch) memberLevels(n *Node) []int {
	clear(ws.levels)
	if p := n.post; p != nil && p.valid {
		for d := range p.dims {
			ws.levels[d] = p.dims[d].coarsest()
		}
		return ws.levels
	}
	for i := 0; !n.leaf && i < n.flat.count; i++ {
		b, o := n.flat.EntryMDS(i), 1
		for d := range ws.levels {
			level, count, at := nextSet(b, o)
			ws.levels[d], o = max(ws.levels[d], level), at+4*count
		}
	}
	return ws.levels
}

// levelsOf loads m's relevant levels into the scratch's own-level vector.
func (ws *writeScratch) levelsOf(m mds.MDS) []int {
	for d := range m {
		ws.own[d] = m[d].Level
	}
	return ws.own
}

// wireLevels loads the relevant levels of the MDS an entry's wire encoding
// holds into the scratch's own-level vector, read where they lie.
func (ws *writeScratch) wireLevels(b []byte) []int {
	for d, o := 0, 1; d < len(ws.own); d++ {
		level, count, at := nextSet(b, o)
		ws.own[d], o = level, at+4*count
	}
	return ws.own
}

// dimOf decodes dimension d of directory entry i of f into the scratch's
// value buffer.
func (ws *writeScratch) dimOf(f *FlatNode, i, d int) mds.DimSet {
	b := f.EntryMDS(i)
	level, count, at := nextSet(b, 1)
	for ; d > 0; d-- {
		level, count, at = nextSet(b, at+4*count)
	}
	ws.dimIDs = ws.dimIDs[:0]
	for k := range count {
		ws.dimIDs = append(ws.dimIDs, hierarchy.ID(binary.LittleEndian.Uint32(b[at+4*k:])))
	}
	if level == hierarchy.LevelALL {
		ws.dimIDs = append(ws.dimIDs, hierarchy.ALL)
	}
	return mds.DimSet{Level: level, IDs: ws.dimIDs}
}
