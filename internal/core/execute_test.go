package core

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/dcindex/dctree/internal/cube"
	"github.com/dcindex/dctree/internal/index"
	"github.com/dcindex/dctree/internal/mds"
	"github.com/dcindex/dctree/internal/storage"
)

// buildExecuteTree loads a tree big enough that queries traverse several
// levels and splits of every kind have happened.
func buildExecuteTree(t *testing.T, n int) (*Tree, []cube.Record, *rand.Rand) {
	t.Helper()
	tree := newTestTree(t, smallConfig())
	rng := rand.New(rand.NewSource(7))
	recs := genRecords(t, tree.Schema(), rng, n)
	for _, r := range recs {
		if err := tree.Insert(r); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	return tree, recs, rng
}

// TestExecuteFormsAgree checks that the request forms answer alike: the
// single-measure descent matches a brute-force scan, the all-measures
// descent carries the same aggregate and work counters, and the parallel
// descent reaches the same answer with the same pruning decisions.
func TestExecuteFormsAgree(t *testing.T) {
	tree, recs, rng := buildExecuteTree(t, 1500)
	ctx := context.Background()

	for i := 0; i < 40; i++ {
		q := randomQuery(rng, tree.Schema(), 0.2)
		want := bruteAgg(t, tree.Schema(), recs, q, 0)

		res, err := tree.Execute(ctx, QueryRequest{Query: q, Measure: 0, CollectStats: true})
		if err != nil {
			t.Fatalf("Execute: %v", err)
		}
		if !aggMatches(res.Agg, want) {
			t.Fatalf("query %d: Execute agg %+v != brute %+v", i, res.Agg, want)
		}
		if res.Elapsed <= 0 {
			t.Fatalf("query %d: Elapsed not set", i)
		}

		// AllMeasures: measure 0 of the vector must equal the scalar path.
		all, err := tree.Execute(ctx, QueryRequest{Query: q, AllMeasures: true, CollectStats: true})
		if err != nil {
			t.Fatalf("Execute all measures: %v", err)
		}
		if len(all.AggVector) != tree.Schema().Measures() || all.AggVector[0] != res.Agg {
			t.Fatalf("query %d: all-measures %+v != Execute agg %+v", i, all.AggVector, res.Agg)
		}
		if all.Stats != res.Stats {
			t.Fatalf("query %d: all-measures stats %+v != serial stats %+v", i, all.Stats, res.Stats)
		}

		// Parallel: same answer, and the merged worker stats must equal the
		// serial stats exactly (same pruning decisions, different order).
		for _, workers := range []int{1, 3, 4} {
			pres, err := tree.Execute(ctx, QueryRequest{Query: q, Measure: 0, Parallel: workers, CollectStats: true})
			if err != nil {
				t.Fatalf("Execute parallel=%d: %v", workers, err)
			}
			if !aggMatches(pres.Agg, want) {
				t.Fatalf("query %d parallel=%d: agg %+v != brute %+v", i, workers, pres.Agg, want)
			}
			if pres.Stats != res.Stats {
				t.Fatalf("query %d parallel=%d: stats %+v != serial %+v", i, workers, pres.Stats, res.Stats)
			}
		}
	}
}

// TestExecuteStatsGating: stats are returned only when requested.
func TestExecuteStatsGating(t *testing.T) {
	tree, _, rng := buildExecuteTree(t, 300)
	q := randomQuery(rng, tree.Schema(), 0.3)
	res, err := tree.Execute(context.Background(), QueryRequest{Query: q})
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if res.Stats != (QueryStats{}) {
		t.Fatalf("stats leaked without CollectStats: %+v", res.Stats)
	}
}

// TestExecuteValidation: bad requests fail with the typed errors before
// touching the tree.
func TestExecuteValidation(t *testing.T) {
	tree, _, rng := buildExecuteTree(t, 100)
	q := randomQuery(rng, tree.Schema(), 0.3)

	if _, err := tree.Execute(context.Background(), QueryRequest{Query: q, Measure: 7}); !errors.Is(err, ErrBadMeasure) {
		t.Fatalf("bad measure: got %v, want ErrBadMeasure", err)
	}
	if _, err := tree.Execute(context.Background(), QueryRequest{Query: q[:1]}); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("short query: got %v, want ErrBadQuery", err)
	}
	errs := tree.Metrics().QueryErrors
	if errs < 2 {
		t.Fatalf("QueryErrors = %d, want ≥ 2", errs)
	}
}

// TestExecuteCancellation: a canceled context aborts the descent with
// context.Canceled, on both the serial and the parallel path, and the
// abort is counted as a cancellation, not an error.
func TestExecuteCancellation(t *testing.T) {
	tree, _, rng := buildExecuteTree(t, 2000)
	q := mds.Top(tree.Schema().Dims()) // full scan: maximum work

	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	before := tree.Metrics()
	for _, workers := range []int{0, 4} {
		res, err := tree.Execute(ctx, QueryRequest{Query: q, Parallel: workers, CollectStats: true})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("parallel=%d: got %v, want context.Canceled", workers, err)
		}
		// The poll runs every index.CtxCheckInterval visits, so an aborted full
		// scan must have stopped well short of the whole tree.
		full, ferr := tree.Execute(context.Background(), QueryRequest{Query: q, CollectStats: true})
		if ferr != nil {
			t.Fatalf("full scan: %v", ferr)
		}
		if res.Stats.NodesVisited >= full.Stats.NodesVisited {
			t.Fatalf("parallel=%d: canceled scan visited %d of %d nodes",
				workers, res.Stats.NodesVisited, full.Stats.NodesVisited)
		}
	}
	m := tree.Metrics()
	if got := m.QueryCancels - before.QueryCancels; got != 2 {
		t.Fatalf("QueryCancels delta = %d, want 2", got)
	}
	if m.QueryErrors != before.QueryErrors {
		t.Fatalf("cancellation counted as error: %d -> %d", before.QueryErrors, m.QueryErrors)
	}

	// Deadline form: an already-expired deadline reports DeadlineExceeded.
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	if _, err := tree.Execute(dctx, QueryRequest{Query: q}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline: got %v, want context.DeadlineExceeded", err)
	}

	// Wrappers still work unchanged on a live context afterwards.
	if _, err := rangeAgg(tree, randomQuery(rng, tree.Schema(), 0.2), 0); err != nil {
		t.Fatalf("RangeAgg after cancellations: %v", err)
	}
}

// countdownCtx reports cancellation only after its Err method has been
// consulted fuse times — a deterministic probe for the in-descent poll.
type countdownCtx struct {
	context.Context
	calls, fuse int
}

func (c *countdownCtx) Err() error {
	c.calls++
	if c.calls > c.fuse {
		return context.Canceled
	}
	return nil
}

// TestExecuteCancellationMidDescent forces a descent long enough that the
// periodic context poll — not the upfront check — aborts it.
func TestExecuteCancellationMidDescent(t *testing.T) {
	cfg := smallConfig()
	cfg.Materialize = false // force full descents: no aggregate shortcuts
	tree := newTestTree(t, cfg)
	rng := rand.New(rand.NewSource(3))
	for _, r := range genRecords(t, tree.Schema(), rng, 2000) {
		if err := tree.Insert(r); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	q := mds.Top(tree.Schema().Dims())

	full, err := tree.Execute(context.Background(), QueryRequest{Query: q, CollectStats: true})
	if err != nil {
		t.Fatalf("full scan: %v", err)
	}
	if full.Stats.NodesVisited <= 2*index.CtxCheckInterval {
		t.Fatalf("tree too small to exercise the poll: %d nodes", full.Stats.NodesVisited)
	}

	// Fuse 1: the upfront check passes, the first in-descent poll (at node
	// visit index.CtxCheckInterval) cancels.
	ctx := &countdownCtx{Context: context.Background(), fuse: 1}
	res, err := tree.Execute(ctx, QueryRequest{Query: q, CollectStats: true})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if res.Stats.NodesVisited != index.CtxCheckInterval {
		t.Fatalf("canceled at %d node visits, want exactly %d", res.Stats.NodesVisited, index.CtxCheckInterval)
	}
}

// TestMetricsWorkload runs a known workload and checks that the metrics
// snapshot reflects it consistently.
func TestMetricsWorkload(t *testing.T) {
	tree, recs, rng := buildExecuteTree(t, 1200)

	const nq = 25
	for i := 0; i < nq; i++ {
		if _, err := rangeAgg(tree, randomQuery(rng, tree.Schema(), 0.2), 0); err != nil {
			t.Fatalf("RangeAgg: %v", err)
		}
	}
	if err := tree.Delete(recs[0]); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if err := tree.Delete(recs[0]); !errors.Is(err, ErrNotFound) {
		t.Fatalf("second Delete: got %v, want ErrNotFound", err)
	}

	m := tree.Metrics()
	if m.Inserts != 1200 {
		t.Fatalf("Inserts = %d, want 1200", m.Inserts)
	}
	if m.Deletes != 1 || m.DeleteMisses != 1 {
		t.Fatalf("Deletes = %d, DeleteMisses = %d, want 1, 1", m.Deletes, m.DeleteMisses)
	}
	if m.Records != 1199 {
		t.Fatalf("Records = %d, want 1199", m.Records)
	}
	if m.Queries != nq {
		t.Fatalf("Queries = %d, want %d", m.Queries, nq)
	}
	if m.QueryLatency.Count != nq {
		t.Fatalf("QueryLatency.Count = %d, want %d", m.QueryLatency.Count, nq)
	}
	if m.InsertLatency.Count != 1200 {
		t.Fatalf("InsertLatency.Count = %d, want 1200", m.InsertLatency.Count)
	}
	// 1200 records under smallConfig must have split many times and grown
	// the root at least twice.
	if m.SplitsHierarchy+m.SplitsForced == 0 {
		t.Fatal("no splits recorded")
	}
	if m.RootSplits < 2 || int64(m.Height) != m.RootSplits+1 {
		t.Fatalf("RootSplits = %d, Height = %d; want Height = RootSplits+1 ≥ 3", m.RootSplits, m.Height)
	}
	if m.QueryEntriesScanned == 0 || m.QueryNodesVisited == 0 {
		t.Fatalf("query work not recorded: %+v", m)
	}
	if m.MaterializedHitRatio <= 0 || m.MaterializedHitRatio > 1 {
		t.Fatalf("MaterializedHitRatio = %g, want (0, 1]", m.MaterializedHitRatio)
	}
	if m.PrunedEntryRatio < 0 || m.PrunedEntryRatio > 1 {
		t.Fatalf("PrunedEntryRatio = %g out of range", m.PrunedEntryRatio)
	}
	wantRatio := float64(m.QueryMaterializedHits) / float64(m.QueryEntriesScanned)
	if m.MaterializedHitRatio != wantRatio {
		t.Fatalf("MaterializedHitRatio = %g, want %g", m.MaterializedHitRatio, wantRatio)
	}

	// The Prometheus rendering carries the headline families.
	var buf bytes.Buffer
	if err := m.WriteProm(&buf); err != nil {
		t.Fatalf("WriteProm: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"dctree_inserts_total 1200",
		"dctree_queries_total 25",
		`dctree_splits_total{kind="hierarchy"}`,
		`dctree_supernode_events_total{kind="created"}`,
		"dctree_materialized_hit_ratio ",
		"dctree_query_duration_seconds_bucket{le=",
		"dctree_query_duration_seconds_count 25",
		"dctree_store_pool_hit_ratio ",
		"# TYPE dctree_query_duration_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteProm output missing %q", want)
		}
	}
}

// TestMetricsPagedStoreHitRatio checks the buffer-pool hit ratio surfaces
// through Tree.Metrics when the tree sits on a PagedStore.
func TestMetricsPagedStoreHitRatio(t *testing.T) {
	cfg := smallConfig()
	store, err := storage.OpenPagedStore(filepath.Join(t.TempDir(), "m.dc"), cfg.BlockSize, 1<<20)
	if err != nil {
		t.Fatalf("OpenPagedStore: %v", err)
	}
	defer store.Close()
	schema := testSchema(t)
	tree, err := New(store, schema, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rng := rand.New(rand.NewSource(11))
	for _, r := range genRecords(t, schema, rng, 400) {
		if err := tree.Insert(r); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	if err := tree.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	tree.EvictCache()
	for i := 0; i < 10; i++ {
		if _, err := rangeAgg(tree, randomQuery(rng, schema, 0.3), 0); err != nil {
			t.Fatalf("RangeAgg: %v", err)
		}
		tree.EvictCache()
	}
	m := tree.Metrics()
	if m.Store.Reads == 0 || m.Store.Hits+m.Store.Misses != m.Store.Reads {
		t.Fatalf("store probes inconsistent: %+v", m.Store)
	}
	if m.StoreHitRatio <= 0 || m.StoreHitRatio > 1 {
		t.Fatalf("StoreHitRatio = %g, want (0, 1]", m.StoreHitRatio)
	}
	want := float64(m.Store.Hits) / float64(m.Store.Hits+m.Store.Misses)
	if m.StoreHitRatio != want {
		t.Fatalf("StoreHitRatio = %g, want %g", m.StoreHitRatio, want)
	}
}

// TestSlowQueryHook: a zero threshold fires on every query with the query
// MDS and its stats; removal stops the callbacks but past counts remain.
func TestSlowQueryHook(t *testing.T) {
	tree, _, rng := buildExecuteTree(t, 500)

	var events []SlowQueryEvent
	tree.SetSlowQueryHook(0, func(ev SlowQueryEvent) { events = append(events, ev) })

	q := randomQuery(rng, tree.Schema(), 0.3)
	res, err := tree.Execute(context.Background(), QueryRequest{Query: q, CollectStats: true})
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	st := res.Stats
	if len(events) != 1 {
		t.Fatalf("hook fired %d times, want 1", len(events))
	}
	ev := events[0]
	if ev.Stats != st {
		t.Fatalf("event stats %+v != query stats %+v", ev.Stats, st)
	}
	if ev.Elapsed <= 0 {
		t.Fatal("event Elapsed not set")
	}
	if len(ev.Query) != len(q) {
		t.Fatalf("event query has %d dims, want %d", len(ev.Query), len(q))
	}

	// A threshold far above any test query never fires but the counter path
	// stays consistent; a negative threshold removes the hook entirely.
	tree.SetSlowQueryHook(time.Hour, func(ev SlowQueryEvent) { events = append(events, ev) })
	if _, err := rangeAgg(tree, q, 0); err != nil {
		t.Fatalf("RangeAgg: %v", err)
	}
	tree.SetSlowQueryHook(-1, nil)
	if _, err := rangeAgg(tree, q, 0); err != nil {
		t.Fatalf("RangeAgg: %v", err)
	}
	if len(events) != 1 {
		t.Fatalf("hook fired %d times after threshold/removal, want 1", len(events))
	}
	if got := tree.Metrics().SlowQueries; got != 1 {
		t.Fatalf("SlowQueries = %d, want 1", got)
	}
}

// TestExecuteConcurrentWithMetrics hammers Execute from several goroutines
// (serial and parallel descents, plus Metrics snapshots) to give the race
// detector surface over the whole observability path.
func TestExecuteConcurrentWithMetrics(t *testing.T) {
	tree, _, _ := buildExecuteTree(t, 800)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 30; i++ {
				q := randomQuery(rng, tree.Schema(), 0.2)
				var err error
				switch g % 4 {
				case 0:
					_, err = rangeAgg(tree, q, 0)
				case 1:
					_, err = tree.Execute(context.Background(), QueryRequest{Query: q, Parallel: 2})
				case 2:
					_, err = tree.Execute(context.Background(), QueryRequest{Query: q, AllMeasures: true})
				default:
					_ = tree.Metrics()
				}
				if err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatalf("worker: %v", err)
		}
	}
}
