package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/dcindex/dctree/internal/cube"
	"github.com/dcindex/dctree/internal/mds"
)

// QueryRequest describes one range query for Execute. The zero value of
// the optional fields selects the simplest form: first measure, serial
// descent, no stats in the result.
type QueryRequest struct {
	// Query is the range, one DimSet per dimension of the schema (use
	// mds.AllDim() for unconstrained dimensions).
	Query mds.MDS
	// Measure selects the measure to aggregate (ignored when AllMeasures
	// is set).
	Measure int
	// AllMeasures aggregates every measure of the schema in one descent;
	// the result is returned in QueryResult.AggVector.
	AllMeasures bool
	// Parallel ≥ 1 fans the descent out over that many worker goroutines;
	// ≤ 0 runs the classic serial descent.
	Parallel int
	// CollectStats returns the work counters in QueryResult.Stats. The
	// counters are always maintained internally (they feed Tree.Metrics);
	// the flag only controls whether the caller gets a copy.
	CollectStats bool
	// AsOf pins the query to an MVCC version (Tree.Snapshot): nodes resolve
	// through the version's captured translation table and copy-on-write
	// overlay, and the descent runs WITHOUT the tree lock — concurrent
	// inserts, deletes and checkpoints neither block nor affect the result.
	// The version must come from this tree and must not be released while
	// the query runs. Nil queries the live tree.
	AsOf *Version
}

// QueryResult is the outcome of Execute.
type QueryResult struct {
	// Agg is the aggregate of the requested measure (single-measure form).
	Agg cube.Agg
	// AggVector holds one aggregate per measure (AllMeasures form).
	AggVector cube.AggVector
	// Stats reports the work performed, if requested. On error it holds
	// the work done up to the failure.
	Stats QueryStats
	// Elapsed is the wall-clock duration of the query.
	Elapsed time.Duration
}

// ctxCheckInterval is how many node visits pass between context polls on
// the descent: frequent enough that cancellation lands within microseconds
// on any realistic tree, rare enough to stay invisible in profiles.
const ctxCheckInterval = 64

// Execute answers a general range query (Fig. 7): req.Query selects, per
// dimension, a set of attribute values at one hierarchy level, and the
// chosen measure (or every measure) is aggregated over the data records in
// the selected subcube. It validates the request, runs the serial or
// parallel descent, and records the query's latency and work counters
// exactly once in the tree's metrics.
//
// ctx cancellation and deadlines are honored during the descent: the loop
// polls the context every ctxCheckInterval node visits (and every parallel
// worker polls its own slice of the tree), returning ctx.Err() promptly
// for long scans over large trees. A nil ctx is treated as
// context.Background().
func (t *Tree) Execute(ctx context.Context, req QueryRequest) (QueryResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	res, err := t.execute(ctx, req)
	res.Elapsed = time.Since(start)

	m := &t.metrics
	m.queries.Inc()
	m.queryLatency.Observe(res.Elapsed)
	switch {
	case err == nil:
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		m.queryCancels.Inc()
	default:
		m.queryErrors.Inc()
	}
	st := res.Stats
	m.qNodesVisited.Add(int64(st.NodesVisited))
	m.qEntriesScanned.Add(int64(st.EntriesScanned))
	m.qEntriesPruned.Add(int64(st.EntriesPruned))
	m.qMaterializedHits.Add(int64(st.MaterializedHits))
	m.qRecordsMatched.Add(int64(st.RecordsMatched))

	if h := t.slowHook.Load(); h != nil && res.Elapsed >= h.threshold {
		m.slowQueries.Inc()
		if h.fn != nil {
			h.fn(SlowQueryEvent{
				Query:   req.Query.Clone(),
				Elapsed: res.Elapsed,
				Stats:   st,
			})
		}
	}
	if !req.CollectStats {
		res.Stats = QueryStats{}
	}
	return res, err
}

// execute validates and runs the query; Execute wraps it with the
// once-per-query accounting.
func (t *Tree) execute(ctx context.Context, req QueryRequest) (QueryResult, error) {
	var res QueryResult
	if !req.AllMeasures && (req.Measure < 0 || req.Measure >= t.schema.Measures()) {
		return res, fmt.Errorf("%w: %d", ErrBadMeasure, req.Measure)
	}
	if err := req.Query.Validate(t.space()); err != nil {
		return res, fmt.Errorf("%w: %v", ErrBadQuery, err)
	}
	// An already-canceled context never starts the descent; afterwards the
	// descent polls every ctxCheckInterval node visits.
	if err := ctx.Err(); err != nil {
		return res, err
	}

	// Pick the node resolver and root. Live queries hold the tree read lock
	// for the descent; as-of queries pin their version (so Release cannot
	// drop the extents mid-walk) and run entirely without the tree lock —
	// the version's table and overlay are immutable, the query masks only
	// read the grow-only hierarchies, and the version's node cache is
	// internally synchronized.
	var src nodeSource
	var root nodeID
	if v := req.AsOf; v != nil {
		if v.t != t {
			return res, ErrVersionForeign
		}
		if err := v.acquire(); err != nil {
			return res, err
		}
		defer v.unref()
		t.metrics.asOfQueries.Inc()
		src, root = v, v.root
	} else {
		t.mu.RLock()
		defer t.mu.RUnlock()
		src, root = t, t.root
	}

	qc, err := t.newQueryCtx(req.Query)
	if err != nil {
		return res, err
	}
	// The context and its mask arenas go back to the pool once the descent
	// is done; executeParallel joins every worker before returning, so no
	// goroutine holds qc past this function.
	defer t.putQueryCtx(qc)
	if req.Parallel > 0 {
		return t.executeParallel(ctx, qc, req, src, root)
	}

	// The sink of a single-measure query is a one-element window that stays
	// on the stack; only the all-measures vector is handed to the caller.
	var one [1]cube.Agg
	out := cube.AggVector(one[:])
	if req.AllMeasures {
		res.AggVector = cube.NewAggVector(t.schema.Measures())
		out = res.AggVector
	}
	d := t.newDescent(ctx, src, qc, req)
	if err := d.visitNode(root, out); err != nil {
		return QueryResult{Stats: d.st}, err
	}
	res.Agg, res.Stats = one[0], d.st
	return res, nil
}
