package index

import (
	"math/bits"
	"slices"

	"github.com/dcindex/dctree/internal/cube"
	"github.com/dcindex/dctree/internal/hierarchy"
	"github.com/dcindex/dctree/internal/mds"
)

// Delete removes one data record matching rec exactly (same coordinates
// and same measure values). If several identical records exist, one of
// them is removed. It returns ErrNotFound when no matching record exists.
//
// Deletion is the natural completion of the paper's "fully dynamic"
// design: directory MDSs and materialized aggregates on the deletion path
// are repaired exactly (MIN/MAX cannot be maintained incrementally under
// removal), empty nodes are unlinked, oversized supernodes shrink back,
// and a root with a single directory entry is collapsed.
//
// The MDS repair is incremental. Every entry's MDS is the exact
// description of its subtree at the entry's levels (Validate), and only
// the removed record left the subtree, so the exact cover after the delete
// differs from the MDS at most by the record's own ancestors: per
// dimension, the ancestor at the entry's level leaves the MDS when no
// remaining member of the child lies under it (repairCover). Where the
// exact cover would change a level instead — a child member coarser than
// the entry, or a root MDS whose levels are not its entries' coarsest — the
// cover is rebuilt by mds.CoverInto. Either way the MDS equals CoverInto's,
// bit for bit.
func (ix *Index) Delete(rec cube.Record) error {
	rc, err := ix.recContext(rec)
	if err != nil {
		return err
	}
	for len(ix.ws.probe) < ix.head.Height {
		ix.ws.probe = append(ix.ws.probe, nil)
	}
	root, err := ix.deleteFrom(ix.head.Root, rc, 0)
	if err != nil {
		return err
	}
	if root == nil {
		return ErrNotFound
	}
	ix.head.Count--

	// Collapse trivial roots: a directory root with one entry hands the
	// root role to its only child.
	collapsed := false
	for !root.leaf && root.Count() == 1 {
		child := root.flat.Child(0)
		if err := ix.store.Drop(root.id); err != nil {
			return err
		}
		if root, err = ix.store.Get(child); err != nil {
			return err
		}
		ix.head.Root = child
		ix.head.Height--
		collapsed = true
	}

	// Repair the root MDS: the cover of the root's entries, at no floor.
	if root.Count() == 0 {
		ix.head.RootMDS = mds.Top(ix.schema.Dims())
		return nil
	}
	if !collapsed {
		if ok, gone := ix.repairCover(ix.ws.levelsOf(ix.head.RootMDS), root, rc, false); ok {
			dropGone(ix.head.RootMDS, rc, gone)
			return nil
		}
	}
	ix.c.repairFallbacks.Inc()
	cover, err := mds.CoverInto(&ix.ws.cover, ix.space(), nil, ix.ws.entryMDSs(root))
	if err != nil {
		return err
	}
	ix.head.RootMDS = cover.Clone()
	return nil
}

// deleteFrom removes the record from the subtree at id, depth levels below
// the root, and returns the node it edited there, or nil when the record is
// not in the subtree. It probes every entry that contains the record —
// entries may overlap, so several probes can be necessary — in ascending
// order, as the node's postings list them, and once the record is found
// repairs the entry's MDS and aggregate to the child's exact state. The
// mask of a level lives in the scratch's buffer for its depth, since the
// probes below load their own.
//
// The postings stay valid unless the node's entries changed as postings
// see them: an entry left, the repair dropped a value from an entry's MDS,
// or it fell back to CoverInto. An aggregate-only repair, the usual one,
// leaves them valid.
func (ix *Index) deleteFrom(id NodeID, rc *recContext, depth int) (*Node, error) {
	n, err := ix.store.Get(id)
	if err != nil {
		return nil, err
	}

	if n.leaf {
		i := n.findRow(rc.rec)
		if i < 0 {
			return nil, nil
		}
		n.removeRecord(i)
		ix.shrink(n)
		ix.store.MarkDirty(n.id)
		return n, nil
	}

	for w, word := range ix.postings(n).containing(rc.anc, &ix.ws.probe[depth]) {
		for ; word != 0; word &= word - 1 {
			i := w*64 + bits.TrailingZeros64(word)
			child, err := ix.deleteFrom(n.flat.Child(i), rc, depth+1)
			if err != nil {
				return nil, err
			}
			if child == nil {
				continue
			}
			if child.Count() == 0 {
				if err := ix.store.Drop(child.id); err != nil {
					return nil, err
				}
				n.removeEntry(i)
				n.invalidatePostings()
			} else {
				// Repair the entry at its own relevant levels, read where
				// they lie: the exact child cover lifted to them is the
				// minimal describing MDS there. It is decoded only to change.
				ws := ix.ws
				levels := ws.wireLevels(n.flat.EntryMDS(i))
				ok, gone := ix.repairCover(levels, child, rc, true)
				if !ok {
					ix.c.repairFallbacks.Inc()
					m, err := mds.CoverInto(&ws.cover, ix.space(), levels, ws.entryMDSs(child))
					if err != nil {
						return nil, err
					}
					n.setMDS(i, m)
				} else if len(gone) > 0 {
					m := ws.edit.one(n.flat.EntryMDS(i))
					dropGone(m, rc, gone)
					n.setMDS(i, m)
				}
				if !ok || len(gone) > 0 {
					n.invalidatePostings()
				}
				v := n.flat.aggs(i, ws.agg)
				if child.leaf {
					child.repairAggregate(v, rc.rec.Measures)
				} else {
					child.refoldEntries(v)
				}
				n.setAgg(i, v)
			}
			ix.shrink(n)
			ix.store.MarkDirty(n.id)
			return n, nil
		}
	}
	return nil, nil
}

// findRow returns the index of a data node's first row holding exactly
// rec's coordinates and measures, or -1. A row is compared in full only
// when its first coordinate matches. Measures compare as floats, as ==
// does: a NaN finds no row, and 0 finds a row of −0.
func (n *Node) findRow(rec cube.Record) int {
	f := &n.flat
	o, cut := f.column(0)
	b, stride, first := f.b, f.stride, rec.Coords[0]
rows:
	for ; o < len(b); o += stride {
		if loadCode(b[o:], cut) != first {
			continue
		}
		p := o
		for d, w := range f.widths() {
			if loadCode(b[p:], widthMask(w)) != rec.Coords[d] {
				continue rows
			}
			p += int(w)
		}
		for j, x := range rec.Measures {
			if measureAt(b, p+8*j) != x {
				continue rows
			}
		}
		return (o - f.fixBase) / stride
	}
	return -1
}

// repairCover tells how m — the exact cover of node n's members at m's
// levels, given as levels, before the record of rc left n's subtree —
// becomes the cover after. It reports ok, and lists in gone the dimensions
// whose value, the record's ancestor at m's level, leaves m (dropGone); or
// !ok when the cover would move a level, which is mds.CoverInto's to
// compute. An entry's repair (floor) keeps the entry's levels as the floor:
// a member coarser than m raises it. The root MDS's (no floor) takes its
// entries' coarsest levels, so any other level moves.
func (ix *Index) repairCover(levels []int, n *Node, rc *recContext, floor bool) (ok bool, gone []int) {
	members := ix.ws.memberLevels(n)
	for d, level := range levels {
		if members[d] > level || (!floor && members[d] != level) {
			return false, nil
		}
	}
	gone = ix.ws.gone[:0]
	for d, level := range levels {
		if level != hierarchy.LevelALL && !ix.underAny(n, d, level, rc.anc[d][level]) {
			gone = append(gone, d)
		}
	}
	ix.ws.gone = gone
	return true, gone
}

// dropGone deletes from m, in each dimension of gone, the record's ancestor
// at m's level.
func dropGone(m mds.MDS, rc *recContext, gone []int) {
	for _, d := range gone {
		m[d].IDs = removeID(m[d].IDs, rc.anc[d][m[d].Level])
	}
}

// underAny reports whether any member of n lies under anc, a value at the
// given level of dimension d, which no member is coarser than: a data
// node's rows by a column scan through the ancestor table, a directory's
// entries by a search of the sets at anc's level and a lift of the finer.
// A directory whose postings are valid answers the search with one lookup,
// and lifts only when its levels show a set finer than anc's.
func (ix *Index) underAny(n *Node, d, level int, anc hierarchy.ID) bool {
	h := ix.space()[d]
	if n.leaf {
		o, cut := n.flat.column(d)
		b, stride := n.flat.b, n.flat.stride
		if level == 0 {
			for ; o < len(b); o += stride {
				if loadCode(b[o:], cut) == anc {
					return true
				}
			}
			return false
		}
		tab := h.AncestorTable(0, level)
		for ; o < len(b); o += stride {
			if tab[loadCode(b[o:], cut)] == anc {
				return true
			}
		}
		return false
	}
	indexed := n.post != nil && n.post.valid
	if indexed {
		pd := &n.post.dims[d]
		if pd.find(anc) >= 0 {
			return true
		}
		if pd.levels&(1<<level-1) == 0 {
			return false // no set finer than anc's to lift
		}
	}
	for i := 0; i < n.flat.count; i++ {
		ds := ix.ws.dimOf(&n.flat, i, d)
		if ds.Level == level {
			if !indexed && idMember(ds.IDs, anc) {
				return true
			}
		} else if liftedMember(h.AncestorTable(ds.Level, level), ds.IDs, anc) {
			return true
		}
	}
	return false
}

// removeID deletes id from the sorted set ids, in place, if it is there.
func removeID(ids []hierarchy.ID, id hierarchy.ID) []hierarchy.ID {
	if i, ok := slices.BinarySearch(ids, id); ok {
		return slices.Delete(ids, i, i+1)
	}
	return ids
}

// shrink lets a supernode give blocks back once its occupancy allows. A
// one-block node has none to give, and is not sized.
func (ix *Index) shrink(n *Node) {
	if n.Blocks() > 1 {
		n.setBlocks(min(n.Blocks(), ix.nodeBlocks(n)))
	}
}
