package index

import (
	"context"
	"fmt"

	"github.com/dcindex/dctree/internal/cube"
	"github.com/dcindex/dctree/internal/mds"
)

// Query describes one range query. The zero value of the optional fields
// selects the simplest form: first measure, serial descent.
type Query struct {
	// MDS is the range, one DimSet per dimension of the schema (use
	// mds.AllDim() for unconstrained dimensions).
	MDS mds.MDS
	// Measure selects the measure to aggregate (ignored when AllMeasures
	// is set).
	Measure int
	// AllMeasures aggregates every measure of the schema in one descent;
	// the result is returned in Result.AggVector.
	AllMeasures bool
	// Parallel ≥ 1 fans the descent out over that many worker goroutines;
	// ≤ 0 runs the classic serial descent.
	Parallel int
}

// Result is the outcome of Execute.
type Result struct {
	// Agg is the aggregate of the requested measure (single-measure form).
	Agg cube.Agg
	// AggVector holds one aggregate per measure (AllMeasures form).
	AggVector cube.AggVector
	// Stats reports the work performed. On error it holds the work done up
	// to the failure.
	Stats QueryStats
}

// CtxCheckInterval is how many node visits pass between context polls on
// the descent: frequent enough that cancellation lands within microseconds
// on any realistic tree, rare enough to stay invisible in profiles.
const CtxCheckInterval = 64

// CheckQuery validates a query against the schema: the measure index and
// the shape of the range. A host that must take a lock or pin a version to
// obtain its Source checks first, so a malformed query costs neither.
func (ix *Index) CheckQuery(q Query) error {
	if !q.AllMeasures && (q.Measure < 0 || q.Measure >= ix.schema.Measures()) {
		return fmt.Errorf("%w: %d", ErrBadMeasure, q.Measure)
	}
	if err := q.MDS.Validate(ix.space()); err != nil {
		return fmt.Errorf("%w: %v", ErrBadQuery, err)
	}
	return nil
}

// Execute answers a general range query (Fig. 7) that CheckQuery accepted:
// q.MDS selects, per dimension, a set of attribute values at one hierarchy
// level, and the chosen measure (or every measure) is aggregated over the
// data records in the selected subcube. The walk starts at root and
// resolves every node through src — the live tree under the host's shared
// hold, or a frozen version of it.
//
// ctx cancellation and deadlines are honored during the descent: the loop
// polls the context every CtxCheckInterval node visits (and every parallel
// worker polls its own slice of the tree), returning ctx.Err() promptly
// for long scans over large trees.
func (ix *Index) Execute(ctx context.Context, src Source, root NodeID, q Query) (Result, error) {
	var res Result
	qc, err := ix.newQueryCtx(q.MDS)
	if err != nil {
		return res, err
	}
	// The context and its mask arenas go back to the pool once the descent
	// is done; executeParallel joins every worker before returning, so no
	// goroutine holds qc past this function.
	defer ix.putQueryCtx(qc)
	if q.Parallel > 0 {
		return ix.executeParallel(ctx, qc, q, src, root)
	}

	// The sink of a single-measure query is a one-element window that stays
	// on the stack; only the all-measures vector is handed to the caller.
	var one [1]cube.Agg
	out := cube.AggVector(one[:])
	if q.AllMeasures {
		res.AggVector = cube.NewAggVector(ix.schema.Measures())
		out = res.AggVector
	}
	d := ix.newDescent(ctx, src, qc, q)
	if err := d.visitNode(root, out); err != nil {
		return Result{Stats: d.st}, err
	}
	res.Agg, res.Stats = one[0], d.st
	return res, nil
}
