package index

import (
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
	root, err := ix.deleteFrom(ix.head.Root, rc)
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
	for !root.leaf && len(root.entries) == 1 {
		child := root.entries[0].Child
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
	switch {
	case root.Count() == 0:
		ix.head.RootMDS = mds.Top(ix.schema.Dims())
	case collapsed || !ix.repairCover(ix.head.RootMDS, root, rc, false):
		ix.c.repairFallbacks.Inc()
		cover, err := mds.CoverInto(&ix.ws.cover, ix.space(), nil, ix.ws.entryMDSs(root))
		if err != nil {
			return err
		}
		storeMDS(ix.head.RootMDS, cover)
	}
	return nil
}

// deleteFrom removes the record from the subtree at id and returns the
// node it edited there, or nil when the record is not in the subtree. It
// probes every entry whose MDS contains the record (entries may overlap,
// so several probes can be necessary) and, once the record is found,
// repairs the entry's MDS and aggregate to the child's exact state.
func (ix *Index) deleteFrom(id NodeID, rc *recContext) (*Node, error) {
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
		ix.markDirty(n)
		return n, nil
	}

	for i := range n.entries {
		e := &n.entries[i]
		if !rc.contains(e.MDS) {
			continue
		}
		child, err := ix.deleteFrom(e.Child, rc)
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
			n.entries = append(n.entries[:i], n.entries[i+1:]...)
			n.invalidatePostings()
		} else {
			// Repair the entry at its own relevant levels: the exact
			// child cover lifted to the entry's levels is the minimal
			// describing MDS there.
			if !ix.repairCover(e.MDS, child, rc, true) {
				ix.c.repairFallbacks.Inc()
				ws := ix.ws
				cover, err := mds.CoverInto(&ws.cover, ix.space(), ws.levelsOf(e.MDS), ws.entryMDSs(child))
				if err != nil {
					return nil, err
				}
				storeMDS(e.MDS, cover)
			}
			n.invalidatePostings()
			if child.leaf {
				child.repairAggregate(e.Agg, rc.rec.Measures)
			} else {
				child.aggregateInto(e.Agg)
			}
		}
		ix.shrink(n)
		ix.markDirty(n)
		return n, nil
	}
	return nil, nil
}

// findRow returns the index of a data node's first row holding exactly
// rec's coordinates and measures, or -1. A row is compared in full only
// when its first coordinate matches.
func (n *Node) findRow(rec cube.Record) int {
	first := rec.Coords[0]
	for i, k := 0, 0; k < len(n.coords); i, k = i+1, k+n.dims {
		if n.coords[k] == first && slices.Equal(n.Row(i), rec.Coords) && slices.Equal(n.RowMeasures(i), rec.Measures) {
			return i
		}
	}
	return -1
}

// repairCover brings m — the exact cover of node n's members at m's levels
// before the record of rc left n's subtree — to the cover after, in place,
// and reports true; it reports false, having changed nothing, when the
// cover would move a level, which is mds.CoverInto's to compute. An entry's
// repair (floor) keeps the entry's levels as the floor: a member coarser
// than m raises it. The root MDS's (no floor) takes its entries' coarsest
// levels, so any other level moves.
func (ix *Index) repairCover(m mds.MDS, n *Node, rc *recContext, floor bool) bool {
	levels := ix.ws.memberLevels(n)
	for d := range m {
		if levels[d] > m[d].Level || (!floor && levels[d] != m[d].Level) {
			return false
		}
	}
	for d := range m {
		level := m[d].Level
		if level == hierarchy.LevelALL {
			continue
		}
		anc := rc.anc[d][level]
		if !ix.underAny(n, d, level, anc) {
			m[d].IDs = removeID(m[d].IDs, anc)
		}
	}
	return true
}

// underAny reports whether any member of n lies under anc, a value at the
// given level of dimension d, which no member is coarser than: a data
// node's rows by a column scan through the ancestor table, a directory's
// entries by a search of the sets at anc's level and a lift of the finer.
func (ix *Index) underAny(n *Node, d, level int, anc hierarchy.ID) bool {
	h := ix.space()[d]
	if n.leaf {
		if level == 0 {
			for k := d; k < len(n.coords); k += n.dims {
				if n.coords[k] == anc {
					return true
				}
			}
			return false
		}
		tab := h.AncestorTable(0, level)
		for k := d; k < len(n.coords); k += n.dims {
			if tab[n.coords[k].Code()] == anc {
				return true
			}
		}
		return false
	}
	for i := range n.entries {
		ds := &n.entries[i].MDS[d]
		if ds.Level == level {
			if idMember(ds.IDs, anc) {
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

// shrink lets a supernode give blocks back once its occupancy allows.
func (ix *Index) shrink(n *Node) {
	n.blocks = min(n.blocks, ix.nodeBlocks(n))
}
