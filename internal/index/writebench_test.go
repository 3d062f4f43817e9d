package index

import (
	"slices"
	"testing"

	"github.com/dcindex/dctree/internal/cube"
	"github.com/dcindex/dctree/internal/hierarchy"
	"github.com/dcindex/dctree/internal/mds"
	"github.com/dcindex/dctree/internal/tpcd"
)

// splitBenchRecords is the step by which a split test grows the tree it
// takes its directory entries from, so that their value sets have real
// sizes. The tree grows until those entries overflow the largest directory
// asked for: how many that takes follows the bytes of a row and of an entry.
const splitBenchRecords = 20000

// dirSlot is one entry of a directory: its node and its slot.
type dirSlot struct {
	n *Node
	i int
}

// grownDirEntries grows a TPC-D tree by splitBenchRecords at a time until
// the entries of its directories right above the data nodes overflow a
// directory of the given blocks. It returns the tree, every record inserted
// and those entries.
func grownDirEntries(tb testing.TB, blocks int) (*Index, []cube.Record, []dirSlot) {
	tb.Helper()
	gen, err := tpcd.New(1, tpcd.ScaleFor(splitBenchRecords))
	if err != nil {
		tb.Fatal(err)
	}
	tree, _ := newBareIndex(tb, gen.Schema(), DefaultConfig())
	var (
		recs    []cube.Record
		entries []dirSlot
	)
	for full := false; !full; {
		batch := gen.Records(splitBenchRecords)
		for _, r := range batch {
			if err := tree.Insert(r); err != nil {
				tb.Fatal(err)
			}
		}
		recs = append(recs, batch...)
		entries = entries[:0]
		for _, n := range collectNodes(tb, tree) {
			if n.leaf {
				continue
			}
			if child, err := tree.store.Get(n.flat.Child(0)); err != nil {
				tb.Fatal(err)
			} else if child.leaf {
				for i := range n.Count() {
					entries = append(entries, dirSlot{n, i})
				}
			}
		}
		probe := tree.store.New(false)
		probe.setBlocks(blocks)
		for _, e := range entries {
			probe.copyEntry(&e.n.flat, e.i)
		}
		full = tree.nodeBlocks(probe) > blocks
		if err := tree.store.Drop(probe.id); err != nil {
			tb.Fatal(err)
		}
	}
	return tree, recs, entries
}

// overflowingNode is a fresh node of the given blocks filled with rows of
// recs, or with copies of entries, until it overflows its blocks by one.
func overflowingNode(tree *Index, leaf bool, blocks int, recs []cube.Record, entries []dirSlot) *Node {
	n := tree.store.New(leaf)
	n.setBlocks(blocks)
	for i := 0; tree.nodeBlocks(n) <= blocks; i++ {
		if leaf {
			n.appendRecord(rowOf(tree.schema, recs[i]))
		} else {
			n.copyEntry(&entries[i].n.flat, entries[i].i)
		}
	}
	return n
}

// BenchmarkSplit times splitNode — adaptation, the hierarchy split of every
// candidate tried and buildSplit — on overflowing nodes of one and of four
// blocks: data nodes of TPC-D rows, and directories of entries that
// describe data nodes of a grown tree, each filled past its blocks' bytes.
// Each node's MDS is what a node of that content carries: the cover at the
// top named levels, refined. Beside ns/op it reports how many of the
// k(k-1)/2 seed pairs the search evaluated in the candidate the split
// accepted.
func BenchmarkSplit(b *testing.B) {
	cases := []struct {
		name   string
		leaf   bool
		blocks int
	}{
		{"leaf-filled", true, 1},
		{"leaf-filled-4", true, 4},
		{"dir-filled", false, 1},
		{"dir-filled-4", false, 4},
	}
	maxBlocks := 0
	for _, bc := range cases {
		maxBlocks = max(maxBlocks, bc.blocks)
	}
	tree, recs, entries := grownDirEntries(b, maxBlocks)

	for _, bc := range cases {
		b.Run(bc.name, func(b *testing.B) {
			n := overflowingNode(tree, bc.leaf, bc.blocks, recs, entries)
			var buf mds.CoverBuf
			m, err := mds.CoverInto(&buf, tree.space(), tree.ws.top, tree.ws.entryMDSs(n))
			if err != nil {
				b.Fatal(err)
			}
			if err := tree.refineMDS(n, m); err != nil {
				b.Fatal(err)
			}
			nodeMDS := m.Clone()

			flat, top := n.flat, n.top
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := tree.splitNode(n, nodeMDS)
				if err != nil {
					b.Fatal(err)
				}
				// Put the node back as it was: the groups are copies.
				if res != nil {
					if err := tree.store.Drop(res.flat.Child(1)); err != nil {
						b.Fatal(err)
					}
				}
				n.flat, n.top = flat, top
				n.setBlocks(bc.blocks)
			}
			// The scratch still holds the last candidate's columns.
			b.StopTimer()
			_, _, pairs := tree.ws.split.seedPair(n.Count())
			b.ReportMetric(float64(pairs), "pairs/split")
		})
	}
}

// chooseBenchRecords is the size of BenchmarkChooseSubtree's dynamic tree,
// and the number of fresh records it routes: paper-mem's at -scale 0.125.
const chooseBenchRecords = 15000

// BenchmarkChooseSubtree times chooseSubtree on the root (8 entries) and on
// a level-1 node (16 entries) of a TPC-D tree grown record by record, over
// the contexts of as many fresh records: each record meets the root, and
// the root's child its choice there routes it to, as in a descent. Nothing
// is inserted, so every iteration sees the same tree, and every node's
// postings are built before the timer starts. Beside ns/op and allocs/op
// (0) it reports the share of choices a containing entry decided.
func BenchmarkChooseSubtree(b *testing.B) {
	gen, err := tpcd.New(1, tpcd.ScaleFor(chooseBenchRecords))
	if err != nil {
		b.Fatal(err)
	}
	tree, _ := newBareIndex(b, gen.Schema(), DefaultConfig())
	for _, r := range gen.Records(chooseBenchRecords) {
		if err := tree.Insert(r); err != nil {
			b.Fatal(err)
		}
	}
	if tree.Height() < 3 {
		b.Fatalf("height %d: the root's children are data nodes", tree.Height())
	}
	root, err := tree.store.Get(tree.head.Root)
	if err != nil {
		b.Fatal(err)
	}
	fresh := gen.Records(chooseBenchRecords)
	ctxs := make([]recContext, len(fresh))
	roots, level1 := make([]*Node, len(fresh)), make([]*Node, len(fresh))
	for i, r := range fresh {
		rc, err := tree.recContext(r)
		if err != nil {
			b.Fatal(err)
		}
		// The write scratch holds one context: keep a copy per record.
		anc := make([][]hierarchy.ID, len(rc.anc))
		for d := range anc {
			anc[d] = slices.Clone(rc.anc[d])
		}
		ctxs[i] = recContext{rec: r, anc: anc}
		idx, _, err := tree.chooseSubtree(root, rc)
		if err != nil {
			b.Fatal(err)
		}
		roots[i] = root
		if level1[i], err = tree.store.Get(root.flat.Child(idx)); err != nil {
			b.Fatal(err)
		}
		tree.postings(level1[i])
	}

	for _, bc := range []struct {
		name  string
		nodes []*Node
	}{{"root", roots}, {"level1", level1}} {
		b.Run(bc.name, func(b *testing.B) {
			contained := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i % len(ctxs)
				_, c, err := tree.chooseSubtree(bc.nodes[k], &ctxs[k])
				if err != nil {
					b.Fatal(err)
				}
				if c {
					contained++
				}
			}
			b.ReportMetric(float64(contained)/float64(b.N), "contained/op")
		})
	}
}

// deleteBenchRecords is the size of BenchmarkDelete's packed tree: the
// cold-read workload's image at -scale 0.125.
const deleteBenchRecords = 37500

// BenchmarkDelete times Delete — the probe, the row removal and the repair
// of every entry on the path and of the root MDS — expiring every 12th
// record from a packed (BulkLoad) TPC-D tree of block-filled data nodes.
// One iteration is one pass over the expired records on a
// fresh tree; beside ns/delete it reports how many repairs per delete
// rebuilt a cover (mds.CoverInto) instead of dropping one value, and how
// many directory posting tables the delete probe built per delete.
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
	b.Run("block-filled", func(b *testing.B) {
		b.ReportAllocs()
		var fallbacks, builds int64
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			tree, _ := newBareIndex(b, gen.Schema(), DefaultConfig())
			if err := tree.BulkLoad(recs); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			for _, r := range expire {
				if err := tree.Delete(r); err != nil {
					b.Fatal(err)
				}
			}
			c := tree.Counters()
			fallbacks += c.DeleteRepairFallbacks
			builds += c.PostingBuilds
		}
		deletes := float64(b.N * len(expire))
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/deletes, "ns/delete")
		b.ReportMetric(float64(fallbacks)/deletes, "fallbacks/delete")
		b.ReportMetric(float64(builds)/deletes, "builds/delete")
	})
}
