package index

import (
	"testing"

	"github.com/dcindex/dctree/internal/cube"
	"github.com/dcindex/dctree/internal/mds"
	"github.com/dcindex/dctree/internal/tpcd"
)

// splitBenchRecords is the size of the tree BenchmarkSplit takes its
// directory entries from, so that their value sets have real sizes.
const splitBenchRecords = 20000

// BenchmarkSplit times splitNode — adaptation, the hierarchy split of every
// candidate tried and buildSplit — on overflowing nodes of one and of four
// blocks: data nodes of TPC-D rows, of 48 rows a block and block-filled,
// and directories of entries that describe data nodes of a grown tree (of
// 48-row data nodes, so the directory cases keep PR 23's inputs). Each
// node's MDS is what a node of that content carries: the cover at the top
// named levels, refined. Beside ns/op it reports how many of the k(k-1)/2
// seed pairs the search evaluated in the candidate the split accepted.
func BenchmarkSplit(b *testing.B) {
	gen, err := tpcd.New(1, tpcd.ScaleFor(splitBenchRecords))
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.LeafCapacity = 48
	tree, _ := newBareIndex(b, gen.Schema(), cfg)
	filled := LeafCapacityFor(testBlockPayload, tree.schema.Dims(), tree.schema.Measures())
	recs := gen.Records(splitBenchRecords)
	for _, r := range recs {
		if err := tree.Insert(r); err != nil {
			b.Fatal(err)
		}
	}
	var lowDirEntries []Entry
	for _, n := range collectNodes(b, tree) {
		if n.leaf {
			continue
		}
		if child, err := tree.store.Get(n.entries[0].Child); err != nil {
			b.Fatal(err)
		} else if child.leaf {
			lowDirEntries = append(lowDirEntries, n.entries...)
		}
	}

	for _, bc := range []struct {
		name   string
		leaf   bool
		rows   int // data-node capacity of one block
		blocks int
	}{
		{"leaf-49", true, 48, 1},
		{"leaf-193", true, 48, 4},
		{"leaf-170", true, filled, 1},
		{"leaf-677", true, filled, 4},
		{"dir-25", false, 48, 1},
		{"dir-97", false, 48, 4},
	} {
		b.Run(bc.name, func(b *testing.B) {
			tree.cfg.LeafCapacity = bc.rows
			n := tree.store.New(bc.leaf)
			n.blocks = bc.blocks
			if bc.leaf {
				for _, r := range recs[:bc.blocks*tree.cfg.LeafCapacity+1] {
					n.appendRecord(r)
				}
			} else {
				n.entries = append(n.entries, lowDirEntries[:bc.blocks*tree.cfg.DirCapacity+1]...)
			}
			var buf mds.CoverBuf
			m, err := mds.CoverInto(&buf, tree.space(), tree.ws.top, tree.ws.entryMDSs(n))
			if err != nil {
				b.Fatal(err)
			}
			if err := tree.refineMDS(n, m); err != nil {
				b.Fatal(err)
			}
			nodeMDS := packMDS(m)

			entries, coords, measures := n.entries, n.coords, n.measures
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := tree.splitNode(n, nodeMDS)
				if err != nil {
					b.Fatal(err)
				}
				// Put the node back as it was: the groups are copies.
				if res.split {
					if err := tree.store.Drop(res.newID); err != nil {
						b.Fatal(err)
					}
				}
				n.entries, n.coords, n.measures, n.blocks = entries, coords, measures, bc.blocks
			}
			// The scratch still holds the last candidate's columns.
			b.StopTimer()
			_, _, pairs := tree.ws.split.seedPair(n.Count())
			b.ReportMetric(float64(pairs), "pairs/split")
		})
	}
}

// deleteBenchRecords is the size of BenchmarkDelete's packed tree: the
// cold-read workload's image at -scale 0.125.
const deleteBenchRecords = 37500

// BenchmarkDelete times Delete — the probe, the row removal and the repair
// of every entry on the path and of the root MDS — expiring every 12th
// record from a packed (BulkLoad) TPC-D tree, at 48 rows a data node and
// block-filled. One iteration is one pass over the expired records on a
// fresh tree; beside ns/delete it reports how many repairs per delete
// rebuilt a cover (mds.CoverInto) instead of dropping one value.
func BenchmarkDelete(b *testing.B) {
	gen, err := tpcd.New(1, tpcd.ScaleFor(deleteBenchRecords))
	if err != nil {
		b.Fatal(err)
	}
	recs := gen.Records(deleteBenchRecords)
	var expire []cube.Record
	for i := 0; i < len(recs); i += 12 {
		expire = append(expire, recs[i])
	}
	for _, bc := range []struct {
		name string
		rows int
	}{{"leaf-48", 48}, {"block-filled", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.LeafCapacity = bc.rows
			var fallbacks int64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				tree, _ := newBareIndex(b, gen.Schema(), cfg)
				if err := tree.BulkLoad(recs); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				for _, r := range expire {
					if err := tree.Delete(r); err != nil {
						b.Fatal(err)
					}
				}
				fallbacks += tree.Counters().DeleteRepairFallbacks
			}
			deletes := float64(b.N * len(expire))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/deletes, "ns/delete")
			b.ReportMetric(float64(fallbacks)/deletes, "fallbacks/delete")
		})
	}
}
