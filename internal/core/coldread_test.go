package core

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dcindex/dctree/internal/mds"
	"github.com/dcindex/dctree/internal/storage"
	"github.com/dcindex/dctree/internal/tpcd"
)

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

// TestParallelColdReadsOverlap holds the read path to what concurrent
// readers need: their node faults overlap. The cache is evicted once —
// readers never fill it, so every node a query visits stays one 500 µs
// Read — and four goroutines issuing serial queries must answer a batch of
// 25 % queries more than twice as fast as one goroutine issuing the same
// queries, whatever the core count, and with the same aggregates.
func TestParallelColdReadsOverlap(t *testing.T) {
	const records, queries, readers, delay = 20000, 8, 4, 500 * time.Microsecond
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
	tree.EvictCache()
	// cold answers the batch over the given number of goroutines, goroutine
	// g taking every goroutines-th query from g, and returns the wall time
	// the batch took.
	cold := func(goroutines int) (time.Duration, []QueryResult) {
		res := make([]QueryResult, len(qs))
		errs := make([]error, len(qs))
		var wg sync.WaitGroup
		ls.delay.Store(int64(delay))
		start := time.Now()
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := g; i < len(qs); i += goroutines {
					res[i], errs[i] = tree.Execute(context.Background(), QueryRequest{Query: qs[i]})
				}
			}(g)
		}
		wg.Wait()
		elapsed := time.Since(start)
		ls.delay.Store(0)
		if err := errors.Join(errs...); err != nil {
			t.Fatalf("%d readers: %v", goroutines, err)
		}
		if n := tree.CachedNodes(); n != 0 {
			t.Fatalf("%d readers cached %d nodes", goroutines, n)
		}
		return elapsed, res
	}
	one, want := cold(1)
	four, got := cold(readers)
	for i := range qs {
		if !aggMatches(got[i].Agg, want[i].Agg) {
			t.Fatalf("query %d: %d readers %+v != 1 reader %+v", i, readers, got[i].Agg, want[i].Agg)
		}
	}
	speedup := float64(one) / float64(four)
	t.Logf("cold batch: 1 reader %v, %d readers %v (%.2fx)", one, readers, four, speedup)
	if speedup <= 2 {
		t.Fatalf("%d readers answered the cold batch %.2fx as fast as 1, want > 2x", readers, speedup)
	}
}

// TestWritersProceedDuringVersionCheck: an as-of Validate holds the
// version's reference, not the tree lock. On a cold 20k-record tree whose
// every node read costs 500 µs, 20 inserts all return while one check of a
// version is still reading, and the check passes; the version's LevelStats
// are the tree's at the snapshot.
func TestWritersProceedDuringVersionCheck(t *testing.T) {
	const records, inserts, delay = 20000, 20, 500 * time.Microsecond
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
	// Interned up front: the inserts register no value while the check
	// reads the dictionaries.
	recs := gen.Records(records + inserts)
	for _, r := range recs[:records] {
		if err := tree.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.Flush(); err != nil {
		t.Fatal(err)
	}
	v, err := tree.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	want, err := tree.LevelStats()
	if err != nil {
		t.Fatal(err)
	}
	tree.EvictCache()
	ls.delay.Store(int64(delay))
	checked := make(chan error, 1)
	start := time.Now()
	go func() { checked <- v.Validate() }()
	for _, r := range recs[records:] {
		if err := tree.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	wrote := time.Since(start)
	select {
	case err := <-checked:
		t.Fatalf("the version check returned (%v) before %d inserts did", err, inserts)
	default:
	}
	if err := <-checked; err != nil {
		t.Fatalf("version check: %v", err)
	}
	t.Logf("%d inserts returned after %v, the version check after %v", inserts, wrote, time.Since(start))
	ls.delay.Store(0)
	got, err := v.LevelStats()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("version LevelStats %+v, tree's at the snapshot %+v", got, want)
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := v.Release(); err != nil {
		t.Fatal(err)
	}
}
