package bench

import (
	"context"
	"fmt"
	"testing"
	"time"

	"github.com/dcindex/dctree/internal/core"
	"github.com/dcindex/dctree/internal/storage"
	"github.com/dcindex/dctree/internal/tpcd"
)

// readPathTreeSize is the data-set size the read-path benchmarks index.
const readPathTreeSize = 30000

// buildReadPathTree loads a TPC-D-style tree onto the given store.
func buildReadPathTree(tb testing.TB, st storage.Store) (*core.Tree, *tpcd.Gen) {
	tb.Helper()
	cfg := core.DefaultConfig()
	gen, err := tpcd.New(1, tpcd.ScaleFor(readPathTreeSize))
	if err != nil {
		tb.Fatal(err)
	}
	tree, err := core.New(st, gen.Schema(), cfg)
	if err != nil {
		tb.Fatal(err)
	}
	for _, r := range gen.Records(readPathTreeSize) {
		if err := tree.Insert(r); err != nil {
			tb.Fatal(err)
		}
	}
	return tree, gen
}

// benchQueries pre-generates a fixed query workload so every benchmark
// iteration (and every worker count) sees identical work.
func benchQueries(tb testing.TB, gen *tpcd.Gen, selectivity float64, n int) []tpcd.Query {
	tb.Helper()
	qg := gen.Queries(77)
	qs := make([]tpcd.Query, n)
	for i := range qs {
		var err error
		qs[i], err = qg.Query(selectivity)
		if err != nil {
			tb.Fatal(err)
		}
	}
	return qs
}

// BenchmarkParallelScaling measures one range query fanned over a worker
// pool, sweeping the worker count.
//
// The hot variant runs over a warm in-memory cache and is CPU-bound: on a
// single-core host it cannot scale and measures pure pool overhead. The cold
// variant evicts the node cache before every query and charges each node
// fault a fixed latency — the paper's disk-bound cost model — so worker
// counts scale by overlapping faults even on one core.
func BenchmarkParallelScaling(b *testing.B) {
	ds := &latencyStore{Store: storage.NewMemStore(core.DefaultConfig().BlockSize)}
	tree, gen := buildReadPathTree(b, ds)
	if err := tree.Flush(); err != nil {
		b.Fatal(err)
	}
	qs := benchQueries(b, gen, 0.25, 32)
	for _, variant := range []struct {
		name  string
		delay time.Duration
		cold  bool
	}{
		{"hot", 0, false},
		{"cold-100us", 100 * time.Microsecond, true},
	} {
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/workers=%d", variant.name, workers), func(b *testing.B) {
				ds.delay.Store(int64(variant.delay))
				defer ds.delay.Store(0)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if variant.cold {
						b.StopTimer()
						tree.EvictCache()
						b.StartTimer()
					}
					q := qs[i%len(qs)]
					if _, err := tree.Execute(context.Background(), core.QueryRequest{Query: q.MDS, Parallel: workers}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
