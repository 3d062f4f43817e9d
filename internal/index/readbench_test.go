package index

import (
	"testing"

	"github.com/dcindex/dctree/internal/cube"
	"github.com/dcindex/dctree/internal/mds"
	"github.com/dcindex/dctree/internal/tpcd"
)

// readBenchRecords is the size of the read-kernel benchmarks' tree: the
// benchmark's paper-mem workload at -scale 0.125.
const readBenchRecords = 15000

// readBenchTree inserts a fixed-seed TPC-D data set one record at a time
// (so every node is a heap node) and draws the query classes over it.
func readBenchTree(tb testing.TB) (*Index, map[string][]mds.MDS) {
	tb.Helper()
	gen, err := tpcd.New(1, tpcd.ScaleFor(readBenchRecords))
	if err != nil {
		tb.Fatal(err)
	}
	tree, _ := newBareIndex(tb, gen.Schema(), DefaultConfig())
	for _, r := range gen.Records(readBenchRecords) {
		if err := tree.Insert(r); err != nil {
			tb.Fatal(err)
		}
	}
	return tree, drawQueryClasses(tb, gen, 77, 32)
}

// queryClassNames are the benchmark's four query classes and "region", a
// one-dimension roll-up: the class that takes materialized hits on small
// trees.
var queryClassNames = []string{"sel01", "sel05", "sel25", "rollup", "region"}

// drawQueryClasses draws n queries of every class, class by class, from one
// generator stream.
func drawQueryClasses(tb testing.TB, gen *tpcd.Gen, seed int64, n int) map[string][]mds.MDS {
	tb.Helper()
	qg := gen.Queries(seed)
	draw := map[string]func() (tpcd.Query, error){
		"sel01":  func() (tpcd.Query, error) { return qg.Query(0.01) },
		"sel05":  func() (tpcd.Query, error) { return qg.Query(0.05) },
		"sel25":  func() (tpcd.Query, error) { return qg.Query(0.25) },
		"rollup": func() (tpcd.Query, error) { return qg.Rollup(2) },
		"region": func() (tpcd.Query, error) { return qg.Rollup(1) },
	}
	classes := map[string][]mds.MDS{}
	for _, name := range queryClassNames {
		for i := 0; i < n; i++ {
			q, err := draw[name]()
			if err != nil {
				tb.Fatal(err)
			}
			classes[name] = append(classes[name], q.MDS)
		}
	}
	return classes
}

// readBenchMasks builds the query contexts of one class ahead of the timer
// (they are not returned to the pool, so each keeps its own arenas).
func readBenchMasks(tb testing.TB, tree *Index, queries []mds.MDS) []*queryCtx {
	tb.Helper()
	qcs := make([]*queryCtx, len(queries))
	for i, q := range queries {
		var err error
		if qcs[i], err = tree.newQueryCtx(q); err != nil {
			tb.Fatal(err)
		}
	}
	return qcs
}

// readBenchViews lists the tree's data nodes and directory read images.
func readBenchViews(tb testing.TB, tree *Index) (leaves []*Node, dirs []FlatNode) {
	tb.Helper()
	for _, n := range collectNodes(tb, tree) {
		if n.leaf {
			leaves = append(leaves, n)
		} else {
			dirs = append(dirs, *tree.image(n))
		}
	}
	return leaves, dirs
}

// benchClasses are the benchmark workload's four query classes, the ones
// the kernel benchmarks report.
var benchClasses = []string{"sel01", "sel05", "sel25", "rollup"}

// BenchmarkLeafScan measures the leaf kernel alone: every data node of the
// tree scanned under a query's masks, per query class, over both row
// carriers. One iteration is one pass over all records; ns/record is the
// figure to compare with a sequential scan's per-record cost.
func BenchmarkLeafScan(b *testing.B) {
	tree, classes := readBenchTree(b)
	leaves, _ := readBenchViews(b, tree)
	dims, measures := tree.schema.Dims(), tree.schema.Measures()
	heap, flat := make([]NodeView, len(leaves)), make([]NodeView, len(leaves))
	for i, n := range leaves {
		heap[i] = NodeView{n: n}
		flat[i] = NodeView{f: TrustedFlatNode(n.id, n.appendEncodeFlat(nil, dims, measures), dims, measures)}
	}
	for _, class := range benchClasses {
		for _, carrier := range []struct {
			name  string
			views []NodeView
		}{{"heap", heap}, {"flat", flat}} {
			b.Run(class+"/"+carrier.name, func(b *testing.B) {
				qcs := readBenchMasks(b, tree, classes[class])
				out := cube.NewAggVector(1)
				records := 0
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					qc := qcs[i%len(qcs)]
					for v := range carrier.views {
						rows, _ := qc.scanRows(&carrier.views[v], 0, out)
						records += rows
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(records), "ns/record")
			})
		}
	}
}

// BenchmarkDirMatch measures the directory matcher alone: every entry of
// every directory read image classified against a query of each class.
// values/entry, the mean MDS size of the entries tested, is reported beside
// ns/entry because an entry's cost follows its size.
func BenchmarkDirMatch(b *testing.B) {
	tree, classes := readBenchTree(b)
	_, dirs := readBenchViews(b, tree)
	values, total := 0, 0
	for _, n := range collectNodes(b, tree) {
		for i := range n.entries {
			values += n.entries[i].MDS.Size()
		}
		total += len(n.entries)
	}
	for _, class := range benchClasses {
		b.Run(class, func(b *testing.B) {
			qcs := readBenchMasks(b, tree, classes[class])
			entries := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				qc := qcs[i%len(qcs)]
				for d := range dirs {
					for e := 0; e < dirs[d].count; e++ {
						if _, _, err := qc.matchEntryFlat(&dirs[d], e); err != nil {
							b.Fatal(err)
						}
					}
					entries += dirs[d].count
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(entries), "ns/entry")
			b.ReportMetric(float64(values)/float64(total), "values/entry")
		})
	}
}

// BenchmarkQueryMasks measures the all-level mask build alone, per query
// class: the pooled arenas cleared and carved, the query's level set, every
// level below it filled by the walk down the child lists and every level
// above it through the ancestor tables.
func BenchmarkQueryMasks(b *testing.B) {
	tree, classes := readBenchTree(b)
	for _, class := range benchClasses {
		b.Run(class, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				qc, err := tree.newQueryCtx(classes[class][i%32])
				if err != nil {
					b.Fatal(err)
				}
				tree.putQueryCtx(qc)
			}
		})
	}
}
