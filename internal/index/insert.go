package index

import (
	"fmt"
	"math/bits"

	"github.com/dcindex/dctree/internal/cube"
	"github.com/dcindex/dctree/internal/hierarchy"
	"github.com/dcindex/dctree/internal/mds"
)

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
	if err := ix.admit(rc.units); err != nil {
		return err
	}

	// The root's relevant levels are always (ALL,…,ALL): it describes the
	// whole cube, so its first split refines some dimension to the top
	// named level (the paper's initial MDS, §3.2).
	pair, err := ix.insertInto(ix.head.Root, ix.ws.topWire, rc)
	if err != nil {
		return err
	}
	if pair != nil {
		// The root was split: the pair of entries that describe its halves
		// is the new root, one level up (the only way a DC-tree gains
		// height).
		ix.c.rootSplits.Inc()
		newRoot := ix.store.New(false)
		newRoot.frame(pair.flat.b, pair.Count())
		newRoot.setBlocks(ix.nodeBlocks(newRoot))
		ix.head.Root = newRoot.id
		ix.head.Height++
		if ix.head.RootMDS, err = mds.Cover(ix.space(), ix.ws.entryMDSs(pair)...); err != nil {
			return err
		}
	} else {
		rc.cover(ix.head.RootMDS)
	}
	ix.head.Count++
	return nil
}

// admit refuses, before any byte changes, a record whose units could take
// a sum out of int64 once it joins the tree: every sum the tree stores or
// a query folds is over at most the tree's count values, each at most the
// largest magnitude the tree holds or the record's. That magnitude (span)
// is read off the root's aggregates when unknown — after a delete — and
// raised by each record admitted, so it is a function of the tree's
// content alone: a replica and a replay decide as the primary did.
func (ix *Index) admit(units []int64) error {
	if len(ix.span) == 0 {
		root, err := ix.store.Get(ix.head.Root)
		if err != nil {
			return err
		}
		for j := range units {
			a := root.fold(j)
			ix.span = append(ix.span, max(absUnits(a.Min), absUnits(a.Max)))
		}
	}
	for j, u := range units {
		if err := admitSpan(j, ix.head.Count+1, max(ix.span[j], absUnits(u))); err != nil {
			return err
		}
	}
	for j, u := range units {
		ix.span[j] = max(ix.span[j], absUnits(u))
	}
	return nil
}

// admitSpan refuses count values of measure j of up to span units each
// unless count × span < 2^63.
func admitSpan(j int, count int64, span uint64) error {
	if hi, lo := bits.Mul64(uint64(count), span); hi != 0 || lo >= 1<<63 {
		return fmt.Errorf("%w: %d values of up to %d units could take measure %d's sums out of int64",
			cube.ErrMeasureValue, count, span, j)
	}
	return nil
}

// absUnits returns |u|.
func absUnits(u int64) uint64 { return magnitude(u) + uint64(u)>>63 }

// insertInto inserts the record into the subtree rooted at id, whose
// describing MDS is nodeMDS, in its wire encoding: the parent entry's, in
// the parent's block, which no write changes until the subtree's insert
// returns, or Top's for the root. When the subtree's root splits, it
// returns the pair of entries that describe the halves (splitNode).
func (ix *Index) insertInto(id NodeID, nodeMDS []byte, rc *recContext) (pair *Node, err error) {
	n, err := ix.store.Get(id)
	if err != nil {
		return nil, err
	}
	ix.store.MarkDirty(n.id)

	if n.leaf {
		n.appendRecord(rc.rec.Coords, rc.units)
		if ix.nodeBlocks(n) <= n.Blocks() {
			return nil, nil
		}
		return ix.splitNode(n, ix.ws.edit.one(nodeMDS))
	}

	// Directory node (Fig. 4): update the chosen entry's measure value and
	// MDS, then descend. A containing entry's cover is itself, but it is
	// still bounded: a bulk-loaded entry may hold more values than the bound.
	// Its counts are read where they lie; only an entry that changes is
	// decoded, and spliced back.
	idx, contained, err := ix.chooseSubtree(n, rc)
	if err != nil {
		return nil, err
	}
	_, _, most := shapeOf(n.flat.EntryMDS(idx))
	if bound := 2 * ix.cfg.RefineBound; !contained || bound > 0 && most > bound {
		m := ix.ws.edit.one(n.flat.EntryMDS(idx))
		if !contained {
			rc.cover(m)
		}
		ix.boundMDS(m)
		n.setMDS(idx, m)
		n.invalidatePostings()
	}
	v := n.flat.aggs(idx, ix.ws.agg)
	for j, u := range rc.units {
		v[j].Add(u)
	}
	n.setAgg(idx, v)

	if pair, err = ix.insertInto(n.flat.Child(idx), n.flat.EntryMDS(idx), rc); err != nil {
		return nil, err
	}
	if pair != nil {
		// The child was split: this entry takes the pair's first, the exact
		// cover of the first group, and the second is a new son (Fig. 4
		// "Insert new son").
		blob := pair.flat.EntryMDS(0)
		copy(n.mdsSlot(idx, len(blob)), blob)
		n.setAgg(idx, pair.flat.aggs(0, ix.ws.agg))
		n.copyEntry(&pair.flat, 1)
		n.invalidatePostings()
	} else if contained {
		return nil, nil
	}
	// An entry was added or grew: the node may overflow its blocks.
	if ix.nodeBlocks(n) <= n.Blocks() {
		return nil, nil
	}
	return ix.splitNode(n, ix.ws.edit.one(nodeMDS))
}

// shapeOf returns the volume and the size of the MDS an entry's wire
// encoding holds, as MDS.Volume and MDS.Size compute them, and the most
// values a dimension of it holds below ALL, read where it lies.
func shapeOf(b []byte) (vol float64, size, most int) {
	vol = 1
	for d, o := 0, 1; d < int(b[0]); d++ {
		_, count, at := nextSet(b, o)
		o = at + 4*count
		most = max(most, count)
		count = max(1, count) // ALL holds one value, ALL
		vol *= float64(count)
		size += count
	}
	return vol, size, most
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
	f := &n.flat
	if f.count == 0 {
		return 0, false, fmt.Errorf("%w: empty directory node %d", ErrCorrupt, n.id)
	}
	best = -1
	var bestVol float64
	var bestSize int
	for w, word := range ix.postings(n).containing(rc.anc, &ix.ws.contain) {
		for ; word != 0; word &= word - 1 {
			i := w*64 + bits.TrailingZeros64(word)
			// The first containing entry is measured only when a second
			// one contends with it; an MDS's size is never 0.
			if best == -1 {
				best = i
				continue
			}
			if bestSize == 0 {
				bestVol, bestSize, _ = shapeOf(f.EntryMDS(best))
			}
			if vol, size, _ := shapeOf(f.EntryMDS(i)); vol < bestVol || (vol == bestVol && size < bestSize) {
				best, bestVol, bestSize = i, vol, size
			}
		}
	}
	if best >= 0 {
		return best, true, nil
	}

	var bestCost float64
	for i := 0; i < f.count; i++ {
		m := ix.ws.entry.one(f.EntryMDS(i))
		// An entry whose cost passes the best one seen cannot win: the
		// evaluation stops there, and its volume and size are never needed.
		cost, within := ix.enlargementCost(m, rc, bestCost, best >= 0)
		if !within {
			continue
		}
		vol, size := m.Volume(), m.Size()
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
