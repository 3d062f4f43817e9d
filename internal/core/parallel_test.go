package core

import (
	"context"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dcindex/dctree/internal/mds"
	"github.com/dcindex/dctree/internal/storage"
	"github.com/dcindex/dctree/internal/tpcd"
)

func TestParallelQueryMatchesSequential(t *testing.T) {
	tree := newTestTree(t, smallConfig())
	s := tree.Schema()
	rng := rand.New(rand.NewSource(211))
	recs := genRecords(t, s, rng, 3000)
	for _, r := range recs {
		if err := tree.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		q := randomQuery(rng, s, []float64{0.01, 0.05, 0.25, 0.6}[i%4])
		want, err := rangeAgg(tree, q, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 8} {
			res, err := tree.Execute(context.Background(), QueryRequest{Query: q, Parallel: workers})
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			got := res.Agg
			if got.Count != want.Count || !floatClose(got.Sum, want.Sum) ||
				(want.Count > 0 && (got.Min != want.Min || got.Max != want.Max)) {
				t.Fatalf("workers=%d query %d: parallel %+v != sequential %+v", workers, i, got, want)
			}
		}
	}
	// Validation errors surface.
	if _, err := tree.Execute(context.Background(), QueryRequest{Query: tree.RootMDS(), Measure: 9, Parallel: 2}); err == nil {
		t.Fatal("bad measure accepted")
	}
}

// latencyStore charges every extent read a fixed latency: the paper's
// disk-resident cost model, where a node fault is one block read.
// Embedding the interface hides the store's extent views, so every node a
// cold query visits is one charged Read. The latency is switchable so the
// tree is built at memory speed.
type latencyStore struct {
	storage.Store
	delay atomic.Int64 // nanoseconds added per Read
}

func (s *latencyStore) Read(id storage.PageID) ([]byte, int, error) {
	if d := s.delay.Load(); d > 0 {
		time.Sleep(time.Duration(d))
	}
	return s.Store.Read(id)
}

// TestParallelColdReadsOverlap holds parallel descent to what it is for:
// node faults overlap across workers. Every clean node is evicted before
// each query and each fault costs 500 µs, so four workers must answer a
// 25 % query more than twice as fast as one, whatever the core count, and
// with the same aggregate.
func TestParallelColdReadsOverlap(t *testing.T) {
	const records, queries, delay = 20000, 5, 500 * time.Microsecond
	gen, err := tpcd.New(1, tpcd.ScaleFor(records))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	ls := &latencyStore{Store: storage.NewMemStore(cfg.BlockSize)}
	tree, err := New(ls, gen.Schema(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range gen.Records(records) {
		if err := tree.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.Flush(); err != nil {
		t.Fatal(err)
	}
	qg := gen.Queries(78)
	qs := make([]mds.MDS, queries)
	for i := range qs {
		q, err := qg.Query(0.25)
		if err != nil {
			t.Fatal(err)
		}
		qs[i] = q.MDS
	}
	// cold answers every query with every node faulted from the store and
	// returns the wall time the queries took.
	cold := func(workers int) (time.Duration, []QueryResult) {
		var elapsed time.Duration
		res := make([]QueryResult, len(qs))
		for i, q := range qs {
			tree.EvictCache()
			ls.delay.Store(int64(delay))
			start := time.Now()
			r, err := tree.Execute(context.Background(), QueryRequest{Query: q, Parallel: workers})
			elapsed += time.Since(start)
			ls.delay.Store(0)
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			res[i] = r
		}
		return elapsed, res
	}
	one, want := cold(1)
	four, got := cold(4)
	for i := range qs {
		if !aggMatches(got[i].Agg, want[i].Agg) {
			t.Fatalf("query %d: 4 workers %+v != 1 worker %+v", i, got[i].Agg, want[i].Agg)
		}
	}
	speedup := float64(one) / float64(four)
	t.Logf("cold queries: 1 worker %v, 4 workers %v (%.2fx)", one, four, speedup)
	if speedup <= 2 {
		t.Fatalf("4 workers answered cold queries %.2fx as fast as 1, want > 2x", speedup)
	}
}

func TestParallelQueryEmptyAndTinyTrees(t *testing.T) {
	tree := newTestTree(t, smallConfig())
	s := tree.Schema()
	res, err := tree.Execute(context.Background(), QueryRequest{Query: tree.RootMDS(), Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Agg.IsEmpty() {
		t.Fatalf("empty tree agg = %+v", res.Agg)
	}
	rng := rand.New(rand.NewSource(213))
	recs := genRecords(t, s, rng, 5) // root is still a leaf
	for _, r := range recs {
		tree.Insert(r)
	}
	res, err = tree.Execute(context.Background(), QueryRequest{Query: tree.RootMDS(), Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Agg.Count != 5 {
		t.Fatalf("leaf-root parallel count = %d", res.Agg.Count)
	}
}
