package core

import (
	"context"

	"github.com/dcindex/dctree/internal/cube"
)

// QueryStats describes the work one range query performed.
type QueryStats struct {
	// NodesVisited counts nodes read during the descent.
	NodesVisited int
	// EntriesScanned counts directory and data entries examined.
	EntriesScanned int
	// EntriesPruned counts directory entries discarded without descending
	// because their MDS does not overlap the query range.
	EntriesPruned int
	// MaterializedHits counts directory entries fully contained in the
	// query range whose materialized aggregate answered their subtree
	// without descending — the DC-tree's core advantage.
	MaterializedHits int
	// RecordsMatched counts data records that individually matched.
	RecordsMatched int
}

// add accumulates another query's (or worker's) counters.
func (s *QueryStats) add(o QueryStats) {
	s.NodesVisited += o.NodesVisited
	s.EntriesScanned += o.EntriesScanned
	s.EntriesPruned += o.EntriesPruned
	s.MaterializedHits += o.MaterializedHits
	s.RecordsMatched += o.RecordsMatched
}

// nodeSource resolves node IDs for one query walk. The live tree resolves
// against its table and shared cache (under the tree read lock); a Version
// resolves against its captured overlay and pinned extents (no tree lock).
// The descent code is identical either way — only the resolver differs.
//
// getView is the read-only resolution: cached nodes come back as heap
// nodes, clean extents as zero-copy flatNode views. getNode always
// materializes a heap node (the write path and the scan/export helpers
// that need one).
type nodeSource interface {
	getNode(id nodeID) (*node, error)
	getView(id nodeID) (nodeView, error)
}

// nodeView is what a read-only descent walks: exactly one of a heap node
// (n != nil) or a flat in-place view (f.valid()).
type nodeView struct {
	n *node
	f flatNode
}

// descent carries the per-goroutine state of one range-query walk: the
// node resolver (live tree or pinned version), the shared read-only query
// context, the cancellation context with its poll countdown, and the work
// counters. Parallel queries give every worker its own descent over the
// same queryCtx.
type descent struct {
	src   nodeSource
	qc    *queryCtx
	ctx   context.Context
	check int // node visits until the next ctx poll
	st    QueryStats
}

// visit accounts one node and polls the context every ctxCheckInterval
// visits, so even a full scan of a large tree notices cancellation within
// a bounded amount of work.
func (d *descent) visit() error {
	d.st.NodesVisited++
	d.check--
	if d.check <= 0 {
		d.check = ctxCheckInterval
		if err := d.ctx.Err(); err != nil {
			return err
		}
	}
	return nil
}

// queryNodeAll is queryNode generalized to every measure of the schema.
func (t *Tree) queryNodeAll(id nodeID, d *descent, result cube.AggVector) error {
	nv, err := d.src.getView(id)
	if err != nil {
		return err
	}
	if err := d.visit(); err != nil {
		return err
	}
	if nv.n == nil {
		f := &nv.f
		if f.leaf {
			for i := 0; i < f.count; i++ {
				d.st.EntriesScanned++
				if d.qc.recordInRangeFlat(f, i) {
					for j := 0; j < f.measures; j++ {
						result[j].Add(f.measure(i, j))
					}
					d.st.RecordsMatched++
				}
			}
			return nil
		}
		for i := 0; i < f.count; i++ {
			d.st.EntriesScanned++
			overlaps, contained, err := d.qc.matchEntryFlat(t, f, i)
			if err != nil {
				return err
			}
			if !overlaps {
				d.st.EntriesPruned++
				continue
			}
			if t.cfg.Materialize && contained {
				f.mergeAggInto(i, result)
				d.st.MaterializedHits++
				continue
			}
			if err := t.queryNodeAll(f.child(i), d, result); err != nil {
				return err
			}
		}
		return nil
	}

	n := nv.n
	if n.leaf {
		for i := range n.entries {
			e := &n.entries[i]
			d.st.EntriesScanned++
			if d.qc.recordInRange(e.Rec.Coords) {
				result.AddRecord(e.Rec.Measures)
				d.st.RecordsMatched++
			}
		}
		return nil
	}
	for i := range n.entries {
		e := &n.entries[i]
		d.st.EntriesScanned++
		overlaps, contained, err := d.qc.matchEntry(t, e.MDS)
		if err != nil {
			return err
		}
		if !overlaps {
			d.st.EntriesPruned++
			continue
		}
		if t.cfg.Materialize && contained {
			result.Merge(e.Agg)
			d.st.MaterializedHits++
			continue
		}
		if err := t.queryNodeAll(e.Child, d, result); err != nil {
			return err
		}
	}
	return nil
}

// queryNode is the recursive range-query of Fig. 7. For every entry the
// query MDS and the entry MDS are made level-comparable (Overlap and
// Contains adapt internally); entries without overlap are pruned, entries
// fully contained in the range contribute their materialized aggregate,
// and partially overlapping directory entries are descended into.
func (t *Tree) queryNode(id nodeID, d *descent, measure int, result *cube.Agg) error {
	nv, err := d.src.getView(id)
	if err != nil {
		return err
	}
	if err := d.visit(); err != nil {
		return err
	}
	if nv.n == nil {
		f := &nv.f
		if f.leaf {
			for i := 0; i < f.count; i++ {
				d.st.EntriesScanned++
				if d.qc.recordInRangeFlat(f, i) {
					result.Add(f.measure(i, measure))
					d.st.RecordsMatched++
				}
			}
			return nil
		}
		for i := 0; i < f.count; i++ {
			d.st.EntriesScanned++
			overlaps, contained, err := d.qc.matchEntryFlat(t, f, i)
			if err != nil {
				return err
			}
			if !overlaps {
				d.st.EntriesPruned++
				continue
			}
			if t.cfg.Materialize && contained {
				result.Merge(f.agg(i, measure))
				d.st.MaterializedHits++
				continue
			}
			if err := t.queryNode(f.child(i), d, measure, result); err != nil {
				return err
			}
		}
		return nil
	}

	n := nv.n
	if n.leaf {
		for i := range n.entries {
			e := &n.entries[i]
			d.st.EntriesScanned++
			if d.qc.recordInRange(e.Rec.Coords) {
				result.Add(e.Rec.Measures[measure])
				d.st.RecordsMatched++
			}
		}
		return nil
	}

	for i := range n.entries {
		e := &n.entries[i]
		d.st.EntriesScanned++
		overlaps, contained, err := d.qc.matchEntry(t, e.MDS)
		if err != nil {
			return err
		}
		if !overlaps {
			d.st.EntriesPruned++
			continue
		}
		if t.cfg.Materialize && contained {
			result.Merge(e.Agg[measure])
			d.st.MaterializedHits++
			continue
		}
		if err := t.queryNode(e.Child, d, measure, result); err != nil {
			return err
		}
	}
	return nil
}

// Scan streams every data record to fn in unspecified order; fn returning
// false stops the scan. Used by tools, tests, and the export path.
func (t *Tree) Scan(fn func(cube.Record) bool) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	_, err := t.scanNode(t, t.root, fn)
	return err
}

func (t *Tree) scanNode(src nodeSource, id nodeID, fn func(cube.Record) bool) (bool, error) {
	nv, err := src.getView(id)
	if err != nil {
		return false, err
	}
	if nv.n == nil {
		f := &nv.f
		if f.leaf {
			for i := 0; i < f.count; i++ {
				if !fn(f.record(i)) {
					return false, nil
				}
			}
			return true, nil
		}
		for i := 0; i < f.count; i++ {
			cont, err := t.scanNode(src, f.child(i), fn)
			if err != nil || !cont {
				return cont, err
			}
		}
		return true, nil
	}

	n := nv.n
	if n.leaf {
		for i := range n.entries {
			if !fn(n.entries[i].Rec.Clone()) {
				return false, nil
			}
		}
		return true, nil
	}
	for i := range n.entries {
		cont, err := t.scanNode(src, n.entries[i].Child, fn)
		if err != nil || !cont {
			return cont, err
		}
	}
	return true, nil
}
