package index

import (
	"github.com/dcindex/dctree/internal/cube"
	"github.com/dcindex/dctree/internal/hierarchy"
	"github.com/dcindex/dctree/internal/mds"
)

// writeScratch is the tree's one set of write-path buffers: the record
// context of the mutation in flight, the choose-subtree weight table and
// the workspace of the split, refinement and cover-repair arithmetic. Every
// mutation (Insert, Delete, BulkLoad) runs under the host's exclusive hold,
// so one scratch per tree is never shared; readers never touch it.
//
// Ownership rule: an MDS that lives in the scratch is valid only until the
// next kernel call that uses the same buffer. Whatever the tree keeps — an
// entry's MDS, the MDSs a split hands to the parent — is copied out
// (packMDS, storeMDS) before the scratch is used again.
type writeScratch struct {
	rc recContext

	// weights[L] is the choose-subtree cost of one new value at hierarchy
	// level L: levelWeight^L, or 1 under Config.FlatChooseSubtree.
	weights [hierarchy.MaxLevel + 1]float64

	topMDS  mds.MDS        // (ALL,…,ALL): the root's relevant levels, read-only
	levels  []int          // per-dimension level vector (cover floors, member levels)
	top     []int          // every dimension's top named level (bulk load floor)
	members []mds.MDS      // member list of a k-way cover
	rowDims []mds.DimSet   // the singleton sets of a data node's records
	cover   mds.CoverBuf   // node covers: delete-repair fallback, bulk load
	desc    []hierarchy.ID // one node description in one dimension
	refined [][]hierarchy.ID
	split   splitScratch
}

func newWriteScratch(schema *cube.Schema, cfg *Config) *writeScratch {
	space := schema.Space()
	ws := &writeScratch{
		topMDS:  mds.Top(len(space)),
		levels:  make([]int, len(space)),
		top:     make([]int, len(space)),
		refined: make([][]hierarchy.ID, len(space)),
	}
	weight := float64(levelWeight)
	if cfg.FlatChooseSubtree {
		weight = 1 // ablation: hierarchy-blind enlargement
	}
	for l := range ws.weights {
		ws.weights[l] = pow(weight, l)
	}
	ws.rc.anc = make([][]hierarchy.ID, len(space))
	ws.rc.agg = make(cube.AggVector, schema.Measures())
	for d, h := range space {
		ws.top[d] = h.TopLevel()
		ws.rc.anc[d] = make([]hierarchy.ID, h.Depth())
	}
	ws.split.init(len(space))
	return ws
}

// recContext is the per-mutation derived state: the record, its aggregate,
// and its ancestor at every hierarchy level of every dimension
// (anc[d][l]). The ancestors are the hot currency of the descent — the
// choose-subtree cost function, the incremental MDS updates and the delete
// path's containment test consult them per entry — so they are walked
// exactly once per mutation, into the tree's write scratch.
type recContext struct {
	rec cube.Record
	agg cube.AggVector
	anc [][]hierarchy.ID
}

// recContext loads the write scratch's record context for rec.
func (ix *Index) recContext(rec cube.Record) (*recContext, error) {
	rc := &ix.ws.rc
	rc.rec = rec
	for j, x := range rec.Measures {
		rc.agg[j] = cube.AggOf(x)
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

// contains reports whether m contains the record: per dimension, the
// record's ancestor at m's relevant level is among m's values
// (mds.Contains against the record's leaf MDS, without building it).
func (rc *recContext) contains(m mds.MDS) bool {
	for d := range m {
		ds := &m[d]
		if ds.Level != hierarchy.LevelALL && !idMember(ds.IDs, rc.anc[d][ds.Level]) {
			return false
		}
	}
	return true
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

// packMDS copies an MDS out of the scratch into two allocations (the
// dimension sets and one array for all values). The value sets are
// capacity-capped, so a later in-place insertion reallocates that set alone.
func packMDS(m mds.MDS) mds.MDS {
	out := make(mds.MDS, len(m))
	ids := make([]hierarchy.ID, 0, m.Size())
	for d := range m {
		start := len(ids)
		ids = append(ids, m[d].IDs...)
		out[d] = mds.DimSet{Level: m[d].Level, IDs: ids[start:len(ids):len(ids)]}
	}
	return out
}

// storeMDS overwrites dst, an MDS the tree owns, with src, reusing dst's
// value-set storage.
func storeMDS(dst, src mds.MDS) {
	for d := range src {
		dst[d].Level = src[d].Level
		dst[d].IDs = append(dst[d].IDs[:0], src[d].IDs...)
	}
}

// entryMDSs lists the MDSs of n's entries in the scratch's member buffer.
// A data node stores none: its records' singleton MDSs are synthesized over
// the node's own coordinates.
func (ws *writeScratch) entryMDSs(n *Node) []mds.MDS {
	ws.members = ws.members[:0]
	if n.leaf {
		ws.rowDims = ws.rowDims[:0]
		for k, id := range n.coords {
			ws.rowDims = append(ws.rowDims, mds.DimSet{Level: id.Level(), IDs: n.coords[k : k+1 : k+1]})
		}
		for i, d := 0, n.dims; i < n.Count(); i++ {
			ws.members = append(ws.members, ws.rowDims[i*d:(i+1)*d:(i+1)*d])
		}
		return ws.members
	}
	for i := range n.entries {
		ws.members = append(ws.members, n.entries[i].MDS)
	}
	return ws.members
}

// memberLevels loads into the scratch's level vector, per dimension, the
// coarsest level among n's members — 0 for a data node's rows — which is the
// level their cover takes at no floor (LevelALL is the largest level tag).
func (ws *writeScratch) memberLevels(n *Node) []int {
	clear(ws.levels)
	for i := range n.entries {
		for d, ds := range n.entries[i].MDS {
			ws.levels[d] = max(ws.levels[d], ds.Level)
		}
	}
	return ws.levels
}

// levelsOf loads m's relevant levels into the scratch's level vector.
func (ws *writeScratch) levelsOf(m mds.MDS) []int {
	for d := range m {
		ws.levels[d] = m[d].Level
	}
	return ws.levels
}
