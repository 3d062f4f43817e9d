package core

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
func (t *Tree) Delete(rec cube.Record) error {
	if t.replica {
		return ErrReplica
	}
	if err := t.schema.ValidateRecord(rec); err != nil {
		return err
	}
	t.mu.Lock()
	lsn, err := t.deleteLocked(rec, true)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return t.waitDurable(lsn)
}

// deleteLocked applies one delete under the tree write lock, appending the
// logical record after the mutation when log is true (see insertLocked).
func (t *Tree) deleteLocked(rec cube.Record, log bool) (uint64, error) {
	rc, err := t.recContext(rec)
	if err != nil {
		return 0, err
	}
	found, err := t.deleteFrom(t.root, rc)
	if err != nil {
		return 0, err
	}
	if !found {
		t.metrics.deleteMisses.Inc()
		return 0, ErrNotFound
	}
	t.count--
	t.metrics.deletes.Inc()

	// Collapse trivial roots: a directory root with one entry hands the
	// root role to its only child.
	for {
		root, err := t.getNode(t.root)
		if err != nil {
			return 0, err
		}
		if root.leaf || len(root.entries) != 1 {
			break
		}
		child := root.entries[0].Child
		if err := t.dropNode(root.id); err != nil {
			return 0, err
		}
		t.root = child
		t.height--
	}

	// Refresh the root MDS exactly.
	root, err := t.getNode(t.root)
	if err != nil {
		return 0, err
	}
	if root.count() == 0 {
		t.rootMDS = mds.Top(t.schema.Dims())
	} else {
		cover, err := mds.CoverInto(&t.ws.cover, t.space(), nil, t.ws.entryMDSs(root))
		if err != nil {
			return 0, err
		}
		storeMDS(t.rootMDS, cover)
	}
	if !log {
		return 0, nil
	}
	return t.logMutation(walOpDelete, rec)
}

// deleteFrom removes the record from the subtree at id. It probes every
// entry whose MDS contains the record (entries may overlap, so several
// probes can be necessary) and, once the record is found, repairs the
// entry's MDS and aggregate from the child's exact state.
func (t *Tree) deleteFrom(id nodeID, rc *recContext) (bool, error) {
	n, err := t.getNode(id)
	if err != nil {
		return false, err
	}

	if n.leaf {
		for i := 0; i < n.count(); i++ {
			if slices.Equal(n.row(i), rc.rec.Coords) && slices.Equal(n.rowMeasures(i), rc.rec.Measures) {
				n.removeRecord(i)
				n.shrink(&t.cfg)
				t.markDirty(n)
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
		found, err := t.deleteFrom(e.Child, rc)
		if err != nil {
			return false, err
		}
		if !found {
			continue
		}
		child, err := t.getNode(e.Child)
		if err != nil {
			return false, err
		}
		if child.count() == 0 {
			if err := t.dropNode(child.id); err != nil {
				return false, err
			}
			n.entries = append(n.entries[:i], n.entries[i+1:]...)
		} else {
			// Repair the entry at its own relevant levels: the exact
			// child cover lifted to the entry's levels is the minimal
			// describing MDS there.
			ws := t.ws
			cover, err := mds.CoverInto(&ws.cover, t.space(), ws.levelsOf(e.MDS), ws.entryMDSs(child))
			if err != nil {
				return false, err
			}
			storeMDS(e.MDS, cover)
			e.Agg = child.aggregate(t.schema.Measures())
		}
		n.shrink(&t.cfg)
		t.markDirty(n)
		return true, nil
	}
	return false, nil
}

// shrink lets a supernode give blocks back once its occupancy allows.
func (n *node) shrink(cfg *Config) {
	want := blocksForEntries(n.count(), n.leaf, cfg)
	if want < n.blocks {
		n.blocks = want
	}
}
