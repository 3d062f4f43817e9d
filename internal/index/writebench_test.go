package index

import (
	"testing"

	"github.com/dcindex/dctree/internal/mds"
	"github.com/dcindex/dctree/internal/tpcd"
)

// splitBenchRecords is the size of the tree BenchmarkSplit takes its
// directory entries from, so that their value sets have real sizes.
const splitBenchRecords = 20000

// BenchmarkSplit times splitNode — adaptation, the hierarchy split of every
// candidate tried and buildSplit — on overflowing nodes of one and of four
// blocks: data nodes of TPC-D rows, directories of entries that describe
// data nodes of a grown tree. Each node's MDS is what a node of that content
// carries: the cover at the top named levels, refined. Beside ns/op it
// reports how many of the k(k-1)/2 seed pairs the search evaluated in the
// candidate the split accepted.
func BenchmarkSplit(b *testing.B) {
	gen, err := tpcd.New(1, tpcd.ScaleFor(splitBenchRecords))
	if err != nil {
		b.Fatal(err)
	}
	tree, _ := newBareIndex(b, gen.Schema(), DefaultConfig())
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
		blocks int
	}{
		{"leaf-49", true, 1},
		{"leaf-193", true, 4},
		{"dir-25", false, 1},
		{"dir-97", false, 4},
	} {
		b.Run(bc.name, func(b *testing.B) {
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
