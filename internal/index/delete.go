package index

import (
	"slices"

	"github.com/dcindex/dctree/internal/cube"
	"github.com/dcindex/dctree/internal/mds"
)

// Delete removes one data record matching rec exactly (same coordinates
// and same measure values). If several identical records exist, one of
// them is removed. It returns ErrNotFound when no matching record exists.
//
// Deletion is the natural completion of the paper's "fully dynamic"
// design: directory MDSs and materialized aggregates on the deletion path
// are recomputed exactly (MIN/MAX cannot be maintained incrementally under
// removal), empty nodes are unlinked, oversized supernodes shrink back,
// and a root with a single directory entry is collapsed.
func (ix *Index) Delete(rec cube.Record) error {
	rc, err := ix.recContext(rec)
	if err != nil {
		return err
	}
	found, err := ix.deleteFrom(ix.root, rc)
	if err != nil {
		return err
	}
	if !found {
		return ErrNotFound
	}
	ix.count--

	// Collapse trivial roots: a directory root with one entry hands the
	// root role to its only child.
	for {
		root, err := ix.store.Get(ix.root)
		if err != nil {
			return err
		}
		if root.leaf || len(root.entries) != 1 {
			break
		}
		child := root.entries[0].Child
		if err := ix.store.Drop(root.id); err != nil {
			return err
		}
		ix.root = child
		ix.height--
	}

	// Refresh the root MDS exactly.
	root, err := ix.store.Get(ix.root)
	if err != nil {
		return err
	}
	if root.Count() == 0 {
		ix.rootMDS = mds.Top(ix.schema.Dims())
	} else {
		cover, err := mds.CoverInto(&ix.ws.cover, ix.space(), nil, ix.ws.entryMDSs(root))
		if err != nil {
			return err
		}
		storeMDS(ix.rootMDS, cover)
	}
	return nil
}

// deleteFrom removes the record from the subtree at id. It probes every
// entry whose MDS contains the record (entries may overlap, so several
// probes can be necessary) and, once the record is found, repairs the
// entry's MDS and aggregate from the child's exact state.
func (ix *Index) deleteFrom(id NodeID, rc *recContext) (bool, error) {
	n, err := ix.store.Get(id)
	if err != nil {
		return false, err
	}

	if n.leaf {
		for i := 0; i < n.Count(); i++ {
			if slices.Equal(n.Row(i), rc.rec.Coords) && slices.Equal(n.RowMeasures(i), rc.rec.Measures) {
				n.removeRecord(i)
				n.shrink(&ix.cfg)
				ix.markDirty(n)
				return true, nil
			}
		}
		return false, nil
	}

	for i := range n.entries {
		e := &n.entries[i]
		if !rc.contains(e.MDS) {
			continue
		}
		found, err := ix.deleteFrom(e.Child, rc)
		if err != nil {
			return false, err
		}
		if !found {
			continue
		}
		child, err := ix.store.Get(e.Child)
		if err != nil {
			return false, err
		}
		if child.Count() == 0 {
			if err := ix.store.Drop(child.id); err != nil {
				return false, err
			}
			n.entries = append(n.entries[:i], n.entries[i+1:]...)
		} else {
			// Repair the entry at its own relevant levels: the exact
			// child cover lifted to the entry's levels is the minimal
			// describing MDS there.
			ws := ix.ws
			cover, err := mds.CoverInto(&ws.cover, ix.space(), ws.levelsOf(e.MDS), ws.entryMDSs(child))
			if err != nil {
				return false, err
			}
			storeMDS(e.MDS, cover)
			e.Agg = child.aggregate(ix.schema.Measures())
		}
		n.shrink(&ix.cfg)
		ix.markDirty(n)
		return true, nil
	}
	return false, nil
}

// shrink lets a supernode give blocks back once its occupancy allows.
func (n *Node) shrink(cfg *Config) {
	want := blocksForEntries(n.Count(), n.leaf, cfg)
	if want < n.blocks {
		n.blocks = want
	}
}
