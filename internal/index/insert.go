package index

import (
	"fmt"
	"math/bits"

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
	res, err := ix.insertInto(ix.head.Root, ix.ws.topMDS, rc)
	if err != nil {
		return err
	}
	if res.split {
		// The root was split: grow the tree by one level (the only way a
		// DC-tree gains height).
		ix.c.rootSplits.Inc()
		newRoot := ix.store.New(false)
		newRoot.entries = []Entry{
			{MDS: res.origMDS, Agg: res.origAgg, Child: ix.head.Root},
			{MDS: res.newMDS, Agg: res.newAgg, Child: res.newID},
		}
		newRoot.blocks = ix.nodeBlocks(newRoot)
		ix.head.Root = newRoot.id
		ix.head.Height++
		if ix.head.RootMDS, err = mds.Cover(ix.space(), res.origMDS, res.newMDS); err != nil {
			return err
		}
	} else {
		rc.cover(ix.head.RootMDS)
	}
	ix.head.Count++
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
		if ix.nodeBlocks(n) <= n.blocks {
			return insertResult{}, nil
		}
		return ix.splitNode(n, nodeMDS)
	}

	// Directory node (Fig. 4): update the chosen entry's measure value and
	// MDS, then descend. A containing entry's cover is itself, but it is
	// still bounded: a bulk-loaded entry may hold more values than the bound.
	idx, contained, err := ix.chooseSubtree(n, rc)
	if err != nil {
		return insertResult{}, err
	}
	e := &n.entries[idx]
	if !contained {
		rc.cover(e.MDS)
		n.invalidatePostings()
	}
	if ix.boundMDS(e.MDS) {
		n.invalidatePostings()
	}
	e.Agg.Merge(rc.agg)

	res, err := ix.insertInto(e.Child, e.MDS, rc)
	if err != nil {
		return insertResult{}, err
	}
	if res.split {
		// The child was split: refresh this entry with the exact cover of
		// the first group and add a new son for the second (Fig. 4 "Insert
		// new son"). Re-resolve the entry pointer: the recursion cannot
		// have mutated this node, but the compiler cannot know that.
		e = &n.entries[idx]
		e.MDS = res.origMDS
		e.Agg = res.origAgg
		n.entries = append(n.entries, Entry{MDS: res.newMDS, Agg: res.newAgg, Child: res.newID})
		n.invalidatePostings()
	} else if contained {
		return insertResult{}, nil
	}
	// An entry was added or grew: the node may overflow its blocks.
	if ix.nodeBlocks(n) <= n.blocks {
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
//
// Nearly every call has an entry of cost 0, so containment is asked first,
// of the node's postings: one lookup per dimension and level in use gives
// the mask of the containing entries, whose bits are walked in ascending
// order — the order, and so the first-index tie-break, of a scan of every
// entry. Every weight is positive, so cost 0 is exactly containment, and
// the costs are summed only when no entry contains the record. contained
// reports which of the two decided.
func (ix *Index) chooseSubtree(n *Node, rc *recContext) (best int, contained bool, err error) {
	if len(n.entries) == 0 {
		return 0, false, fmt.Errorf("%w: empty directory node %d", ErrCorrupt, n.id)
	}
	best = -1
	var bestVol float64
	var bestSize int
	for w, word := range ix.postings(n).containing(rc.anc, &ix.ws.contain) {
		for ; word != 0; word &= word - 1 {
			i := w*64 + bits.TrailingZeros64(word)
			m := n.entries[i].MDS
			vol, size := m.Volume(), m.Size()
			if best == -1 || vol < bestVol || (vol == bestVol && size < bestSize) {
				best, bestVol, bestSize = i, vol, size
			}
		}
	}
	if best >= 0 {
		return best, true, nil
	}

	var bestCost float64
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
	return best, false, nil
}

// levelWeight is the per-hierarchy-level base of the enlargement cost:
// one new value at level L costs levelWeight^L, so a single coarse-level
// addition outweighs any realistic number of finer ones.
const levelWeight = 1 << 16

// levelWeights[L] is levelWeight^L, the cost of one new value at hierarchy
// level L.
var levelWeights = func() (w [hierarchy.MaxLevel + 1]float64) {
	v := 1.0
	for l := range w {
		w[l] = v
		v *= levelWeight
	}
	return w
}()

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
	for d, h := range ix.space() {
		ds := &entryMDS[d]
		if ds.Level == hierarchy.LevelALL {
			continue // ALL covers everything at no new values
		}
		// Membership at the entry's own level: the dimension costs
		// nothing, and no coarser level needs a look.
		anc := rc.anc[d]
		if idMember(ds.IDs, anc[ds.Level]) {
			continue
		}
		cost += levelWeights[ds.Level]
		if bounded && cost > bound {
			return cost, false
		}
		for level := ds.Level + 1; level <= h.TopLevel(); level++ {
			if liftedMember(h.AncestorTable(ds.Level, level), ds.IDs, anc[level]) {
				break // monotone: covered here means covered above too
			}
			cost += levelWeights[level]
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

// scanMax is the longest set idMember scans instead of searching, in the
// cost pass and underAny: 2 × the default RefineBound,
// the most values boundMDS leaves in an inserted entry's dimension. Longer
// sets are the root MDS, bulk-loaded entries and trees without the bound
// (RefineBound -1).
const scanMax = 16

// idMember reports membership in a sorted ID slice. It serves the
// enlargement-cost pass and underAny over stale postings; the containment
// passes of choose-subtree and the delete probe ask the postings instead. A
// short set is scanned whole, counting the values below id without a
// branch on the data — cheaper than a binary search's mispredicted
// halvings; the count is id's position if it is there.
func idMember(ids []hierarchy.ID, id hierarchy.ID) bool {
	if len(ids) <= scanMax {
		below := 0
		for _, v := range ids {
			// IDs are 32 bits: the 64-bit difference wraps exactly when v < id.
			below += int((uint64(v) - uint64(id)) >> 63)
		}
		return below < len(ids) && ids[below] == id
	}
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
