// Benchmarks regenerating the figures of the DC-tree paper's evaluation
// (§5) as testing.B benchmarks: insertion (Fig. 11), range queries against
// the X-tree and the sequential scan (Fig. 12), node sizes (Fig. 13) and
// the roll-up workload, in benchstat-friendly form; and the paper's fully
// dynamic scenario (§1), a rolling window of inserts and deletes.
//
//	go test -run '^$' -bench=. -benchmem .
//
// Fixture sizes are laptop-friendly. Visit, block and fill counts are
// pinned as goldens in internal/index; the end-to-end numbers come from
// the benchmark module under benchmark/.
package dctree_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/dcindex/dctree/internal/core"
	"github.com/dcindex/dctree/internal/cube"
	"github.com/dcindex/dctree/internal/index"
	"github.com/dcindex/dctree/internal/mds"
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
			u, err := gen.Schema().Units(0, r.Measures[0])
			if err != nil {
				f.err = err
				return
			}
			if err := xt.Insert(p, u); err != nil {
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

// windowRecords is BenchmarkRollingWindow's window: the live records of the
// warehouse, and the steps of one turnover.
const windowRecords = 30000

// BenchmarkRollingWindow is the paper's fully dynamic scenario (§1) on the
// bare index (internal/index, nodes in a map): a warehouse holding the
// newest 30k TPC-D facts, refreshed one step at a time — the newest record
// inserted, the oldest deleted (tpcd.Window) — in random and in time order.
// One op is one turnover, 30k steps, on a freshly built tree. Beside ns/op
// it reports the µs each step's insert and delete take, the directory
// posting tables the steps build, per step, and at the end of each
// turnover the data level's fill and the tree's height (Index.LevelStats)
// and the shape gap: the live records are bulk-loaded into a packed tree,
// and for each query class the nodes the window's tree visits ÷ those the
// packed tree visits (gap-sel01 …), the two trees answering alike. Each is
// averaged over the turnovers.
func BenchmarkRollingWindow(b *testing.B) {
	for _, arrival := range []tpcd.Arrival{tpcd.Random, tpcd.TimeOrdered} {
		b.Run(arrival.String(), func(b *testing.B) {
			gen, err := tpcd.New(1, tpcd.ScaleFor(windowRecords))
			if err != nil {
				b.Fatal(err)
			}
			w := gen.Window(windowRecords, windowRecords, arrival)
			queries := windowQueries(b, gen, 77, 20)
			var inserting, deleting time.Duration
			var builds int64
			var fill, height float64
			gap := make([]float64, len(windowQueryClasses))
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				ix, nodes := newWindowIndex(b, gen.Schema())
				for _, r := range w.Build() {
					if err := ix.Insert(r); err != nil {
						b.Fatal(err)
					}
				}
				built := ix.Counters().PostingBuilds
				b.StartTimer()
				for s := 0; s < w.Steps(); s++ {
					newest, oldest := w.Step(s)
					t0 := time.Now()
					if err := ix.Insert(newest); err != nil {
						b.Fatal(err)
					}
					t1 := time.Now()
					if err := ix.Delete(oldest); err != nil {
						b.Fatal(err)
					}
					inserting += t1.Sub(t0)
					deleting += time.Since(t1)
				}
				builds += ix.Counters().PostingBuilds - built
				b.StopTimer()
				levels, err := ix.LevelStats(nodes, ix.Head())
				if err != nil {
					b.Fatal(err)
				}
				fill += levels[len(levels)-1].Fill
				height += float64(len(levels))
				packed, packedNodes := newWindowIndex(b, gen.Schema())
				if err := packed.BulkLoad(w.Live(w.Steps() - 1)); err != nil {
					b.Fatal(err)
				}
				for c, class := range windowQueryClasses {
					var visited, packedVisited int
					for k, q := range queries[c] {
						res, err := ix.Execute(context.Background(), nodes, ix.Head().Root, index.Query{MDS: q})
						if err != nil {
							b.Fatal(err)
						}
						want, err := packed.Execute(context.Background(), packedNodes, packed.Head().Root, index.Query{MDS: q})
						if err != nil {
							b.Fatal(err)
						}
						if got, want := res.Agg, want.Agg; got != want {
							b.Fatalf("%s query %d: window tree %+v, packed tree %+v", class.name, k, got, want)
						}
						visited += res.Stats.NodesVisited
						packedVisited += want.Stats.NodesVisited
					}
					gap[c] += float64(visited) / float64(packedVisited)
				}
				b.StartTimer()
			}
			steps := float64(b.N * w.Steps())
			b.ReportMetric(inserting.Seconds()*1e6/steps, "us/insert")
			b.ReportMetric(deleting.Seconds()*1e6/steps, "us/delete")
			b.ReportMetric(float64(builds)/steps, "builds/step")
			b.ReportMetric(fill/float64(b.N), "data-fill")
			b.ReportMetric(height/float64(b.N), "height")
			for c, class := range windowQueryClasses {
				b.ReportMetric(gap[c]/float64(b.N), "gap-"+class.name)
			}
		})
	}
}

// windowQueryClasses are the query classes of the shape gap, as the golden
// tests of internal/index and internal/core draw them: the benchmark's four
// and "region", a one-dimension roll-up.
var windowQueryClasses = []struct {
	name string
	draw func(*tpcd.QueryGen) (tpcd.Query, error)
}{
	{"sel01", func(qg *tpcd.QueryGen) (tpcd.Query, error) { return qg.Query(0.01) }},
	{"sel05", func(qg *tpcd.QueryGen) (tpcd.Query, error) { return qg.Query(0.05) }},
	{"sel25", func(qg *tpcd.QueryGen) (tpcd.Query, error) { return qg.Query(0.25) }},
	{"rollup", func(qg *tpcd.QueryGen) (tpcd.Query, error) { return qg.Rollup(2) }},
	{"region", func(qg *tpcd.QueryGen) (tpcd.Query, error) { return qg.Rollup(1) }},
}

// windowQueries draws n queries of every class, class by class, from one
// generator stream.
func windowQueries(b *testing.B, gen *tpcd.Gen, seed int64, n int) [][]mds.MDS {
	qg := gen.Queries(seed)
	classes := make([][]mds.MDS, len(windowQueryClasses))
	for c, class := range windowQueryClasses {
		for range n {
			q, err := class.draw(qg)
			if err != nil {
				b.Fatal(err)
			}
			classes[c] = append(classes[c], q.MDS)
		}
	}
	return classes
}

// newWindowIndex returns an empty bare index over windowNodes, its nodes
// sized for the default block as the engine sizes them, and the nodes.
func newWindowIndex(b *testing.B, schema *cube.Schema) (*index.Index, *windowNodes) {
	cfg := index.DefaultConfig()
	if err := cfg.Normalize(); err != nil {
		b.Fatal(err)
	}
	s := &windowNodes{nodes: map[index.NodeID]*index.Node{}, dims: schema.Dims(), measures: schema.Measures()}
	s.ix = index.New(schema, cfg, s, storage.ExtentCapacity(core.DefaultConfig().BlockSize, 1))
	return s.ix, s
}

// windowNodes is the bare index's node store, heap nodes in a map, and
// over the same nodes the read-side Source that LevelStats walks.
type windowNodes struct {
	ix             *index.Index
	nodes          map[index.NodeID]*index.Node
	next           index.NodeID
	dims, measures int
}

func (s *windowNodes) Get(id index.NodeID) (*index.Node, error) {
	if n := s.nodes[id]; n != nil {
		return n, nil
	}
	return nil, fmt.Errorf("%w: no node %d", index.ErrCorrupt, id)
}

func (s *windowNodes) New(leaf bool) *index.Node {
	s.next++
	n := index.NewNode(s.next, leaf, s.dims, s.measures)
	s.nodes[s.next] = n
	return n
}

func (s *windowNodes) MarkDirty(index.NodeID) {}

func (s *windowNodes) Drop(id index.NodeID) error {
	delete(s.nodes, id)
	return nil
}

func (s *windowNodes) View(id index.NodeID, nv *index.NodeView) error {
	n, err := s.Get(id)
	if err != nil {
		return err
	}
	s.ix.HeapView(n, nv)
	return nil
}
