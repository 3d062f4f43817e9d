// Benchmarks regenerating every figure of the DC-tree paper's evaluation
// (§5) as testing.B benchmarks. Each figure also has a table-producing
// driver in internal/bench, runnable via cmd/dcbench; the benchmarks here
// measure the same quantities in benchstat-friendly form.
//
//	go test -bench=. -benchmem .
//
// Fixture sizes are laptop-friendly; the paper's 100k–300k sweep runs via
// `go run ./cmd/dcbench -n 100000,200000,300000`.
package dctree_test

import (
	"context"
	"sync"
	"testing"

	"github.com/dcindex/dctree/internal/bitmap"
	"github.com/dcindex/dctree/internal/core"
	"github.com/dcindex/dctree/internal/cube"
	"github.com/dcindex/dctree/internal/seqscan"
	"github.com/dcindex/dctree/internal/storage"
	"github.com/dcindex/dctree/internal/tpcd"
	"github.com/dcindex/dctree/internal/xtree"
)

const benchRecords = 20000

// fixture lazily builds the three systems over one TPC-D data set, shared
// by all query benchmarks.
type fixture struct {
	once sync.Once
	err  error

	gen    *tpcd.Gen
	recs   []cube.Record
	points []xtree.Point
	dc     *core.Tree
	xt     *xtree.Tree
	scan   *seqscan.Store

	queries map[float64][]tpcd.Query
}

var fx fixture

func (f *fixture) build(b *testing.B) {
	f.once.Do(func() {
		gen, err := tpcd.New(1, tpcd.DefaultScale())
		if err != nil {
			f.err = err
			return
		}
		f.gen = gen
		f.recs = gen.Records(benchRecords)

		cfg := core.DefaultConfig()
		dc, err := core.New(storage.NewMemStore(cfg.BlockSize), gen.Schema(), cfg)
		if err != nil {
			f.err = err
			return
		}
		xt, err := xtree.New(gen.XDims(), xtree.DefaultConfig())
		if err != nil {
			f.err = err
			return
		}
		scan := seqscan.New(gen.Schema())
		f.points = make([]xtree.Point, len(f.recs))
		for i, r := range f.recs {
			p, err := gen.XPoint(r)
			if err != nil {
				f.err = err
				return
			}
			f.points[i] = p
			if err := dc.Insert(r); err != nil {
				f.err = err
				return
			}
			if err := xt.Insert(p, r.Measures[0]); err != nil {
				f.err = err
				return
			}
			if err := scan.Insert(r); err != nil {
				f.err = err
				return
			}
		}
		f.dc, f.xt, f.scan = dc, xt, scan

		f.queries = make(map[float64][]tpcd.Query)
		for _, sel := range []float64{0.01, 0.05, 0.25} {
			qg := gen.Queries(int64(sel * 10000))
			qs := make([]tpcd.Query, 64)
			for i := range qs {
				qs[i], err = qg.Query(sel)
				if err != nil {
					f.err = err
					return
				}
			}
			f.queries[sel] = qs
		}
	})
	if f.err != nil {
		b.Fatal(f.err)
	}
}

// BenchmarkFig11aInsertDCTree measures the DC-tree's single-record insert
// (the dominant series of Fig. 11(a); the X-tree counterpart is below).
func BenchmarkFig11aInsertDCTree(b *testing.B) {
	gen, err := tpcd.New(2, tpcd.DefaultScale())
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig()
	dc, err := core.New(storage.NewMemStore(cfg.BlockSize), gen.Schema(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	recs := gen.Records(benchRecords)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dc.Insert(recs[i%len(recs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig11aInsertXTree is the X-tree series of Fig. 11(a).
func BenchmarkFig11aInsertXTree(b *testing.B) {
	gen, err := tpcd.New(2, tpcd.DefaultScale())
	if err != nil {
		b.Fatal(err)
	}
	xt, err := xtree.New(gen.XDims(), xtree.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	recs := gen.Records(benchRecords)
	points := make([]xtree.Point, len(recs))
	for i, r := range recs {
		points[i], err = gen.XPoint(r)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := xt.Insert(points[i%len(points)], 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig11bInsertPerRecord is Fig. 11(b): the per-record insert time
// of the DC-tree at a steady tree size (flat in the data-set size). It
// builds its own pre-warmed tree so the shared query fixture stays
// untouched by the b.N inserts.
func BenchmarkFig11bInsertPerRecord(b *testing.B) {
	fx.build(b)
	cfg := core.DefaultConfig()
	dc, err := core.New(storage.NewMemStore(cfg.BlockSize), fx.gen.Schema(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range fx.recs {
		if err := dc.Insert(r); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dc.Insert(fx.recs[i%len(fx.recs)]); err != nil {
			b.Fatal(err)
		}
	}
}

func benchQueries(b *testing.B, sel float64, system string) {
	fx.build(b)
	qs := fx.queries[sel]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		switch system {
		case "dc":
			if _, err := fx.dc.Execute(context.Background(), core.QueryRequest{Query: q.MDS}); err != nil {
				b.Fatal(err)
			}
		case "xtree":
			if _, _, err := fx.xt.RangeQuery(q.Rect, q.Filter); err != nil {
				b.Fatal(err)
			}
		case "seqscan":
			if _, err := fx.scan.RangeAgg(q.MDS, 0); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// Fig. 12(a): selectivity 1 %, DC-tree vs X-tree.
func BenchmarkFig12aQuerySel1DCTree(b *testing.B) { benchQueries(b, 0.01, "dc") }
func BenchmarkFig12aQuerySel1XTree(b *testing.B)  { benchQueries(b, 0.01, "xtree") }

// Fig. 12(b): selectivity 5 % (the paper's sweet spot for the DC-tree).
func BenchmarkFig12bQuerySel5DCTree(b *testing.B) { benchQueries(b, 0.05, "dc") }
func BenchmarkFig12bQuerySel5XTree(b *testing.B)  { benchQueries(b, 0.05, "xtree") }

// Fig. 12(c): selectivity 25 % (the DC-tree's worst case, still ~4.5x).
func BenchmarkFig12cQuerySel25DCTree(b *testing.B) { benchQueries(b, 0.25, "dc") }
func BenchmarkFig12cQuerySel25XTree(b *testing.B)  { benchQueries(b, 0.25, "xtree") }

// Fig. 12(d): selectivity 25 %, DC-tree vs sequential search (≥12.5x).
func BenchmarkFig12dQuerySel25SeqScan(b *testing.B) { benchQueries(b, 0.25, "seqscan") }

// BenchmarkFig13NodeSizes is Fig. 13: it reports the average node sizes of
// the two highest levels below the root as custom metrics instead of
// wall-clock shape.
func BenchmarkFig13NodeSizes(b *testing.B) {
	fx.build(b)
	var l1, l2, supers float64
	for i := 0; i < b.N; i++ {
		levels, err := fx.dc.LevelStats()
		if err != nil {
			b.Fatal(err)
		}
		if len(levels) > 1 {
			l1 = levels[1].AvgEntries
			supers = float64(levels[1].Supernodes)
		}
		if len(levels) > 2 {
			l2 = levels[2].AvgEntries
		}
	}
	b.ReportMetric(l1, "level1-avg-entries")
	b.ReportMetric(l2, "level2-avg-entries")
	b.ReportMetric(supers, "level1-supernodes")
}

// BenchmarkRollupDCTree / XTree measure the OLAP roll-up workload (§1's
// motivating scenarios: 1-2 coarse dimensions constrained), where the
// DC-tree's materialized directory aggregates matter most.
func BenchmarkRollupDCTree(b *testing.B) { benchRollup(b, "dc") }
func BenchmarkRollupXTree(b *testing.B)  { benchRollup(b, "xtree") }

func benchRollup(b *testing.B, system string) {
	fx.build(b)
	qg := fx.gen.Queries(4242)
	queries := make([]tpcd.Query, 64)
	for i := range queries {
		var err error
		queries[i], err = qg.Rollup(1 + i%2)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		switch system {
		case "dc":
			if _, err := fx.dc.Execute(context.Background(), core.QueryRequest{Query: q.MDS}); err != nil {
				b.Fatal(err)
			}
		case "xtree":
			if _, _, err := fx.xt.RangeQuery(q.Rect, q.Filter); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkBitmapBaseline measures the §2 bitmap join index on the
// standard 5% workload for comparison with BenchmarkFig12b*.
func BenchmarkBitmapBaseline(b *testing.B) {
	gen, err := tpcd.New(4, tpcd.DefaultScale())
	if err != nil {
		b.Fatal(err)
	}
	ix := bitmap.NewIndex(gen.Schema())
	for _, r := range gen.Records(benchRecords) {
		if err := ix.Append(r); err != nil {
			b.Fatal(err)
		}
	}
	qg := gen.Queries(77)
	queries := make([]tpcd.Query, 64)
	for i := range queries {
		queries[i], err = qg.Query(0.05)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.RangeAgg(queries[i%len(queries)].MDS, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationNoMaterialization quantifies the materialized-aggregate
// advantage: the same queries on a tree that must always descend to the
// data nodes.
func BenchmarkAblationNoMaterialization(b *testing.B) {
	gen, err := tpcd.New(3, tpcd.DefaultScale())
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Materialize = false
	dc, err := core.New(storage.NewMemStore(cfg.BlockSize), gen.Schema(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range gen.Records(benchRecords / 2) {
		if err := dc.Insert(r); err != nil {
			b.Fatal(err)
		}
	}
	qg := gen.Queries(99)
	queries := make([]tpcd.Query, 64)
	for i := range queries {
		queries[i], err = qg.Query(0.05)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dc.Execute(context.Background(), core.QueryRequest{Query: queries[i%len(queries)].MDS}); err != nil {
			b.Fatal(err)
		}
	}
}
