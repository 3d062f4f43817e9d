package index

import (
	"fmt"

	"github.com/dcindex/dctree/internal/cube"
	"github.com/dcindex/dctree/internal/hierarchy"
	"github.com/dcindex/dctree/internal/mds"
)

// insertResult reports the outcome of an insertion into a subtree to the
// parent level. When split is true the child node was divided in two: the
// original node id kept the first group, newID holds the second, and the
// exact covers/aggregates of both are returned so the parent can replace
// its entry (incremental updates are not sufficient after a split, because
// splitting can lower the relevant level of a dimension, §3.2).
type insertResult struct {
	split   bool
	newID   NodeID
	origMDS mds.MDS
	newMDS  mds.MDS
	origAgg cube.AggVector
	newAgg  cube.AggVector
}

// Insert adds one data record to the tree, maintaining all directory MDSs
// and materialized aggregates on the insertion path (Fig. 4). The record's
// coordinates must be leaf-level IDs registered in the schema's dimension
// hierarchies (use cube.Schema.InternRecord to produce them); the host
// validates records that arrive from outside (cube.Schema.ValidateRecord).
func (ix *Index) Insert(rec cube.Record) error {
	rc, err := ix.recContext(rec)
	if err != nil {
		return err
	}

	// The root's relevant levels are always (ALL,…,ALL): it describes the
	// whole cube, so its first split refines some dimension to the top
	// named level (the paper's initial MDS, §3.2).
	res, err := ix.insertInto(ix.root, ix.ws.topMDS, rc)
	if err != nil {
		return err
	}
	if res.split {
		// The root was split: grow the tree by one level (the only way a
		// DC-tree gains height).
		ix.c.rootSplits.Inc()
		newRoot := ix.store.New(false)
		newRoot.entries = []Entry{
			{MDS: res.origMDS, Agg: res.origAgg, Child: ix.root},
			{MDS: res.newMDS, Agg: res.newAgg, Child: res.newID},
		}
		ix.root = newRoot.id
		ix.height++
		if ix.rootMDS, err = mds.Cover(ix.space(), res.origMDS, res.newMDS); err != nil {
			return err
		}
	} else {
		rc.cover(ix.rootMDS)
	}
	ix.count++
	return nil
}

// insertInto inserts the record into the subtree rooted at id, whose
// describing MDS is nodeMDS (the parent entry's MDS, or Top for the root).
func (ix *Index) insertInto(id NodeID, nodeMDS mds.MDS, rc *recContext) (insertResult, error) {
	n, err := ix.store.Get(id)
	if err != nil {
		return insertResult{}, err
	}
	ix.markDirty(n)

	if n.leaf {
		n.appendRecord(rc.rec)
		if !n.overflowing(&ix.cfg) {
			return insertResult{}, nil
		}
		return ix.splitNode(n, nodeMDS)
	}

	// Directory node (Fig. 4): update the chosen entry's measure value and
	// MDS, then descend.
	idx, err := ix.chooseSubtree(n, rc)
	if err != nil {
		return insertResult{}, err
	}
	e := &n.entries[idx]
	rc.cover(e.MDS)
	ix.boundMDS(e.MDS)
	e.Agg.Merge(rc.agg)

	res, err := ix.insertInto(e.Child, e.MDS, rc)
	if err != nil {
		return insertResult{}, err
	}
	if !res.split {
		return insertResult{}, nil
	}

	// The child was split: refresh this entry with the exact cover of the
	// first group and add a new son for the second (Fig. 4 "Insert new
	// son"). Re-resolve the entry pointer: the recursion cannot have
	// mutated this node, but the compiler cannot know that.
	e = &n.entries[idx]
	e.MDS = res.origMDS
	e.Agg = res.origAgg
	n.entries = append(n.entries, Entry{MDS: res.newMDS, Agg: res.newAgg, Child: res.newID})
	if !n.overflowing(&ix.cfg) {
		return insertResult{}, nil
	}
	return ix.splitNode(n, nodeMDS)
}

// chooseSubtree selects the directory entry to follow for a record
// (the choose_subtree of Fig. 4). Like the X-tree's, it minimizes the
// enlargement the record causes — but enlargement of an MDS must respect
// the concept hierarchies: adding a value that forces a NEW coarse-level
// value (a new region) fragments the tree's partitioning far more than
// adding one fine value under an already-covered coarse value (a new
// customer inside a covered nation). The cost of following an entry is
// therefore the weighted count of new attribute values per hierarchy
// level, with geometrically dominant weights toward coarse levels, so the
// comparison is effectively lexicographic coarse-level-first. Cost 0 means
// the entry already contains the record; among equal costs the smaller
// volume, then the smaller MDS size win (most specific subtree).
func (ix *Index) chooseSubtree(n *Node, rc *recContext) (int, error) {
	if len(n.entries) == 0 {
		return 0, fmt.Errorf("%w: empty directory node %d", ErrCorrupt, n.id)
	}
	best := -1
	var bestCost, bestVol float64
	var bestSize int
	for i := range n.entries {
		e := &n.entries[i]
		// An entry whose cost passes the best one seen cannot win: the
		// evaluation stops there, and its volume and size are never needed.
		cost, within := ix.enlargementCost(e.MDS, rc, bestCost, best >= 0)
		if !within {
			continue
		}
		vol := e.MDS.Volume()
		size := e.MDS.Size()
		better := best == -1 ||
			cost < bestCost ||
			(cost == bestCost && vol < bestVol) ||
			(cost == bestCost && vol == bestVol && size < bestSize)
		if better {
			best, bestCost, bestVol, bestSize = i, cost, vol, size
		}
	}
	return best, nil
}

// levelWeight is the per-hierarchy-level base of the enlargement cost:
// one new value at level L costs levelWeight^L, so a single coarse-level
// addition outweighs any realistic number of finer ones.
const levelWeight = 1 << 16

// enlargementCost measures how badly the record enlarges an entry MDS: for
// every dimension, one unit of cost levelWeight^L for each hierarchy level
// L (from the entry's relevant level up to the level below ALL) at which
// the record's ancestor is not yet among the entry's values. A record fully
// contained in the entry costs 0.
//
// With bounded set, the sum is abandoned as soon as it exceeds bound — every
// term is positive, so the final cost could only be larger — and within is
// false.
func (ix *Index) enlargementCost(entryMDS mds.MDS, rc *recContext, bound float64, bounded bool) (cost float64, within bool) {
	weights := &ix.ws.weights
	for d, h := range ix.space() {
		ds := &entryMDS[d]
		if ds.Level == hierarchy.LevelALL {
			continue // ALL covers everything at no new values
		}
		// Fast path: membership at the entry's own level is a binary
		// search over the sorted value set, and covers the common case of
		// a record routed into a subtree that already describes it.
		anc := rc.anc[d]
		if idMember(ds.IDs, anc[ds.Level]) {
			continue
		}
		cost += weights[ds.Level]
		if bounded && cost > bound {
			return cost, false
		}
		for level := ds.Level + 1; level <= h.TopLevel(); level++ {
			if liftedMember(h.AncestorTable(ds.Level, level), ds.IDs, anc[level]) {
				break // monotone: covered here means covered above too
			}
			cost += weights[level]
			if bounded && cost > bound {
				return cost, false
			}
		}
	}
	return cost, true
}

// liftedMember reports whether any of ids, lifted through the ancestor
// table tab, equals anc.
func liftedMember(tab, ids []hierarchy.ID, anc hierarchy.ID) bool {
	for _, v := range ids {
		if tab[v.Code()] == anc {
			return true
		}
	}
	return false
}

// pow is a small positive-integer power for float64; it fills the
// choose-subtree weight table.
func pow(base float64, exp int) float64 {
	v := 1.0
	for i := 0; i < exp; i++ {
		v *= base
	}
	return v
}

// idMember reports membership in a sorted ID slice via binary search.
func idMember(ids []hierarchy.ID, id hierarchy.ID) bool {
	lo, hi := 0, len(ids)
	for lo < hi {
		mid := (lo + hi) / 2
		if ids[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(ids) && ids[lo] == id
}
