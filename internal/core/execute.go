package core

import (
	"context"
	"errors"
	"time"

	"github.com/dcindex/dctree/internal/cube"
	"github.com/dcindex/dctree/internal/index"
	"github.com/dcindex/dctree/internal/mds"
)

// QueryStats describes the work one range query performed; LevelStat
// aggregates node statistics for one level of the tree.
type (
	QueryStats = index.QueryStats
	LevelStat  = index.LevelStat
)

// QueryRequest describes one range query for Execute. The zero value of
// the optional fields selects the simplest form: first measure, no stats
// in the result.
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

// Execute answers a general range query (Fig. 7): req.Query selects, per
// dimension, a set of attribute values at one hierarchy level, and the
// chosen measure (or every measure) is aggregated over the data records in
// the selected subcube. The index validates the request and runs the
// descent; Execute picks what it walks — the live tree
// under the read lock, or a pinned version — and records the query's
// latency and work counters exactly once in the tree's metrics.
//
// ctx cancellation and deadlines are honored during the descent, which
// polls the context every few dozen node visits and returns ctx.Err()
// promptly for long scans over large trees. A nil ctx is treated as
// context.Background().
func (t *Tree) Execute(ctx context.Context, req QueryRequest) (QueryResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	r, err := t.execute(ctx, req)
	res := QueryResult{Agg: r.Agg, AggVector: r.AggVector, Stats: r.Stats, Elapsed: time.Since(start)}

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

// execute runs the query over the live tree or the pinned version; Execute
// wraps it with the once-per-query accounting.
func (t *Tree) execute(ctx context.Context, req QueryRequest) (index.Result, error) {
	q := index.Query{MDS: req.Query, Measure: req.Measure, AllMeasures: req.AllMeasures}
	if err := t.ix.CheckQuery(q); err != nil {
		return index.Result{}, err
	}
	// An already-canceled context never starts the descent; afterwards the
	// descent polls it as it goes.
	if err := ctx.Err(); err != nil {
		return index.Result{}, err
	}

	// Live queries hold the tree read lock for the descent; as-of queries
	// pin their version (so Release cannot drop the extents mid-walk) and
	// run entirely without the tree lock — the version's table and overlay
	// are immutable, the query masks only read the grow-only hierarchies,
	// and a version caches no nodes.
	if v := req.AsOf; v != nil {
		if v.t != t {
			return index.Result{}, ErrVersionForeign
		}
		if err := v.acquire(); err != nil {
			return index.Result{}, err
		}
		defer v.unref()
		t.metrics.asOfQueries.Inc()
		return t.ix.Execute(ctx, v.nodes(), v.head.Root, q)
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.ix.Execute(ctx, t.nodes(), t.ix.Root(), q)
}

// Scan streams every data record to fn in unspecified order; fn returning
// false stops the scan. Used by tools, tests, and the export path.
func (t *Tree) Scan(fn func(cube.Record) bool) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.ix.Scan(t.nodes(), t.ix.Root(), fn)
}
