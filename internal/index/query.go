package index

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

// NodeView is what a read-only descent walks. A directory is always a
// FlatNode — a mapped extent, an overlay payload, or a heap node's read
// image — so one matcher serves them all; a data node is either a FlatNode
// (rows at a fixed stride in the payload) or the heap node n with its
// packed rows.
//
// The descent owns its views: one frame per depth of a serial walk, one per
// parallel worker, which a Source fills in place (Source.View), so a visit
// copies no view through its returns.
type NodeView struct {
	n *Node
	f FlatNode
}

// Frame fills nv with payload b framed where it lies, after MakeFlatNode's
// constant-time check.
func (nv *NodeView) Frame(id NodeID, b []byte, dims, measures int) error {
	nv.n = nil
	return nv.f.frame(id, b, dims, measures)
}

// FrameTrusted fills nv with payload b framed where it lies, unchecked: a
// flat encoding this process produced (Index.Encode).
func (nv *NodeView) FrameTrusted(id NodeID, b []byte, dims, measures int) {
	nv.n = nil
	nv.f.trust(id, b, dims, measures)
}

// CheckTable runs FlatNode.CheckTable on a framed node: the eager check, for
// a payload framed over a checked read, which no later visit shares.
func (nv *NodeView) CheckTable() error {
	if nv.n != nil {
		return nil
	}
	return nv.f.CheckTable()
}

// descent carries the per-goroutine state of one range-query walk: the
// node resolver (live tree or pinned version), the shared read-only query
// context, the cancellation context with its poll countdown and the work
// counters. Parallel queries give every worker its own descent over the
// same queryCtx.
type descent struct {
	src         Source
	qc          *queryCtx
	ctx         context.Context
	check       int // node visits until the next ctx poll
	materialize bool
	st          QueryStats

	// first is the measure the aggregate sink's first element accumulates:
	// a walk aggregates into out[j] the measure first+j, so a single-measure
	// query is a one-element window of the vector. (The sink is a parameter
	// of the walk, not a field: the resolver and the context are reached
	// through interfaces, and a field beside them would be moved to the
	// heap with them.)
	first int

	// A parallel worker (q != nil) does not recurse into a partially
	// overlapping child: it offers the child to the shared queue and keeps
	// it on its own stack when the queue is not hungry.
	q     *stealQueue
	w     int
	stack []NodeID

	// frames holds the view of the node visited at each depth of the walk,
	// filled in place by the Source; depth is the current one. A serial
	// walk borrows the pooled queryCtx's frames, a parallel worker, which
	// never recurses, grows its own to one.
	frames []NodeView
	depth  int
}

// newDescent prepares a walk of src for q.
func (ix *Index) newDescent(ctx context.Context, src Source, qc *queryCtx, q Query) descent {
	d := descent{src: src, qc: qc, ctx: ctx, check: CtxCheckInterval, materialize: ix.cfg.Materialize}
	if !q.AllMeasures {
		d.first = q.Measure
	}
	return d
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
// into — by recursion on a serial walk, through the worker's stack and the
// shared queue on a parallel one. Aggregates are folded into out.
func (d *descent) visitNode(id NodeID, out cube.AggVector) error {
	if d.depth == len(d.frames) {
		d.frames = append(d.frames, NodeView{})
	}
	nv := &d.frames[d.depth]
	if err := d.src.View(id, nv); err != nil {
		return err
	}
	if err := d.visit(); err != nil {
		return err
	}
	f := &nv.f
	if nv.n != nil || f.leaf {
		rows, matched := d.qc.scanRows(nv, d.first, out)
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
		if contained && d.materialize {
			for j := range out {
				out[j].Merge(f.Agg(i, d.first+j))
			}
			d.st.MaterializedHits++
			continue
		}
		child := f.Child(i)
		switch {
		case d.q == nil:
			d.depth++
			err := d.visitNode(child, out)
			d.depth--
			if err != nil {
				return err
			}
		case !d.q.trySpawn(child, d.w):
			d.stack = append(d.stack, child)
		}
	}
	return nil
}

// Scan streams every data record below root to fn in unspecified order,
// resolving nodes through src; fn returning false stops the scan. Used by
// tools, tests, and the export path.
func (ix *Index) Scan(src Source, root NodeID, fn func(cube.Record) bool) error {
	sc := scan{src: src, fn: fn}
	_, err := sc.node(root, 0)
	return err
}

// scan is one Scan call: the resolver, the sink, and the view frame of each
// depth, grown once per call.
type scan struct {
	src    Source
	fn     func(cube.Record) bool
	frames []NodeView
}

func (sc *scan) node(id NodeID, depth int) (bool, error) {
	if depth == len(sc.frames) {
		sc.frames = append(sc.frames, NodeView{})
	}
	nv := &sc.frames[depth]
	if err := sc.src.View(id, nv); err != nil {
		return false, err
	}
	f := &nv.f
	switch {
	case nv.n != nil:
		for i := 0; i < nv.n.Count(); i++ {
			if !sc.fn(cube.Record{Coords: nv.n.Row(i), Measures: nv.n.RowMeasures(i)}.Clone()) {
				return false, nil
			}
		}
	case f.leaf:
		for i := 0; i < f.count; i++ {
			if !sc.fn(f.Record(i)) {
				return false, nil
			}
		}
	default:
		for i := 0; i < f.count; i++ {
			cont, err := sc.node(f.Child(i), depth+1)
			if err != nil || !cont {
				return cont, err
			}
		}
	}
	return true, nil
}
