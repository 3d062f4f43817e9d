package index

import (
	"context"
	"errors"

	"github.com/dcindex/dctree/internal/cube"
	"github.com/dcindex/dctree/internal/hierarchy"
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

// NodeView is what a read-only descent walks: a FlatNode — a mapped
// extent, an overlay payload or a heap node's own block — so that one
// matcher serves every directory and one leaf kernel every data node. The
// descent owns its views: one frame per depth of the walk, which a Source
// fills in place (Source.View), so a visit copies no view through its
// returns.
type NodeView = FlatNode

// descent carries the state of one range-query walk: the node resolver
// (live tree or pinned version), the read-only query context, the
// cancellation context with its poll countdown and the work counters.
type descent struct {
	src   Source
	qc    *queryCtx
	ctx   context.Context
	check int // node visits until the next ctx poll
	st    QueryStats

	// first is the measure the aggregate sink's first element accumulates:
	// a walk aggregates into out[j] the measure first+j, so a single-measure
	// query is a one-element window of the vector. (The sink is a parameter
	// of the walk, not a field: the resolver and the context are reached
	// through interfaces, and a field beside them would be moved to the
	// heap with them.)
	first int

	// frames holds the view of the node visited at each depth of the walk,
	// filled in place by the Source; depth is the current one. The walk
	// borrows the pooled queryCtx's frames.
	frames []NodeView
	depth  int
}

// visit accounts one node and polls the context every CtxCheckInterval
// visits, so even a full scan of a large tree notices cancellation within
// a bounded amount of work.
func (d *descent) visit() error {
	d.st.NodesVisited++
	d.check--
	if d.check <= 0 {
		d.check = CtxCheckInterval
		if err := d.ctx.Err(); err != nil {
			return err
		}
	}
	return nil
}

// visitNode is the range query of Fig. 7 on one node. A data node's records
// are tested by scanRows. For every directory entry the query and the entry
// MDS are compared level by level through the query masks: entries without
// overlap are pruned, entries fully contained in the range contribute their
// materialized aggregate, and partially overlapping entries are descended
// into by recursion. Aggregates are folded into out.
func (d *descent) visitNode(id NodeID, out cube.AggVector) error {
	if d.depth == len(d.frames) {
		d.frames = append(d.frames, NodeView{})
	}
	f := &d.frames[d.depth]
	if err := d.src.View(id, f); err != nil {
		return err
	}
	if err := d.visit(); err != nil {
		return err
	}
	if f.leaf {
		rows, matched := d.qc.scanRows(f, d.first, out)
		d.st.EntriesScanned += rows
		d.st.RecordsMatched += matched
		return nil
	}
	for i := 0; i < f.count; i++ {
		d.st.EntriesScanned++
		overlaps, contained, err := d.qc.matchEntryFlat(f, i)
		if err != nil {
			return err
		}
		if !overlaps {
			d.st.EntriesPruned++
			continue
		}
		if contained {
			for j := range out {
				out[j].Merge(f.Agg(i, d.first+j))
			}
			d.st.MaterializedHits++
			continue
		}
		d.depth++
		err = d.visitNode(f.Child(i), out)
		d.depth--
		if err != nil {
			return err
		}
	}
	return nil
}

// Scan streams every data record below root to fn in unspecified order,
// resolving nodes through src; fn returning false stops the scan. Used by
// tools, tests, and the export path.
func (ix *Index) Scan(src Source, root NodeID, fn func(cube.Record) bool) error {
	dims, measures := ix.schema.Dims(), ix.schema.Measures()
	err := walk(src, root, func(nv *NodeView, _ int) error {
		leaf, count, _, _ := nv.shape()
		for i := 0; leaf && i < count; i++ {
			rec := cube.Record{Coords: make([]hierarchy.ID, dims), Measures: make([]float64, measures)}
			nv.row(i, rec)
			if !fn(rec) {
				return errStop
			}
		}
		return nil
	})
	if errors.Is(err, errStop) {
		return nil
	}
	return err
}

// errStop is how a visit ends a walk early without failing it; errSkip
// keeps it from descending below the node just visited.
var errStop, errSkip = errors.New("stop"), errors.New("skip")

// walk is the read-only walk of Scan, LevelStats and Fit: it
// visits root and every node below it, a parent before its children, each
// one viewed through src into the frame of its level. A visit's error other
// than errSkip ends the walk.
func walk(src Source, root NodeID, visit func(nv *NodeView, level int) error) error {
	var frames []NodeView
	var node func(id NodeID, level int) error
	node = func(id NodeID, level int) error {
		if level == len(frames) {
			frames = append(frames, NodeView{})
		}
		nv := &frames[level]
		if err := src.View(id, nv); err != nil {
			return err
		}
		if err := visit(nv, level); err == errSkip {
			return nil
		} else if err != nil {
			return err
		}
		leaf, count, _, _ := nv.shape()
		for i := 0; !leaf && i < count; i++ {
			if err := node(nv.Child(i), level+1); err != nil {
				return err
			}
		}
		return nil
	}
	return node(root, 0)
}
