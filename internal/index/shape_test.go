package index

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/dcindex/dctree/internal/cube"
	"github.com/dcindex/dctree/internal/tpcd"
)

// The golden tests below run the bare index — nodes in a map, no store, no
// lock, no log in the process — through the streams and query classes of
// internal/core's TestGoldenTreeShape and TestGoldenQueryStats and assert
// the SAME pinned values the engine-hosted tests assert: what the paper's
// algorithms decide does not depend on who hosts them.

// shapeDigest hashes everything the write path decides: the pre-order walk
// of the tree (node kind, block count, every entry's MDS and aggregate, the
// record of a data entry), the root MDS, the height and the split counters.
// Two trees with equal digests answer every query identically and cost the
// same to query.
func shapeDigest(t *testing.T, ix *Index) string {
	t.Helper()
	h := sha256.New()
	var buf []byte
	u64 := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	for _, n := range collectNodes(t, ix) {
		buf = buf[:0]
		if n.leaf {
			buf = append(buf, 'L')
		} else {
			buf = append(buf, 'D')
		}
		u64(uint64(n.blocks))
		u64(uint64(n.Count()))
		for i, e := range entriesOf(n) {
			buf = e.MDS.AppendEncode(buf)
			for _, a := range e.Agg {
				u64(math.Float64bits(a.Sum))
				u64(uint64(a.Count))
				u64(math.Float64bits(a.Min))
				u64(math.Float64bits(a.Max))
			}
			if n.leaf {
				for _, c := range n.Row(i) {
					u64(uint64(c))
				}
				for _, m := range n.RowMeasures(i) {
					u64(math.Float64bits(m))
				}
			}
		}
		h.Write(buf)
	}
	buf = ix.rootMDS.AppendEncode(buf[:0])
	u64(uint64(ix.height))
	u64(uint64(ix.count))
	c := ix.Counters()
	for _, v := range []int64{c.SplitsHierarchy, c.SplitsForced, c.SupernodesCreated, c.SupernodesGrown, c.RootSplits} {
		u64(uint64(v))
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// TestGoldenTreeShape pins the tree the write path builds, with the digests
// internal/core pins for the same five streams. The first four name the
// data-node capacity they were pinned at (48 rows, the default before it
// became the block-filled count), so their digests are the ones PR 12 took;
// the last pins the default itself.
func TestGoldenTreeShape(t *testing.T) {
	if testing.Short() {
		t.Skip("loads 5×22k records")
	}
	const load, expire, reload = 20000, 2000, 2000
	cases := []struct {
		name string
		cfg  func(*Config)
		want string
	}{
		{"default", func(c *Config) { c.LeafCapacity = 48 }, "b6d09291b7e223ccb1fed50a"},
		{"forced-splits", func(c *Config) {
			c.LeafCapacity = 48
			c.DisableSupernodes = true
			c.MaxOverlapRatio = 0.002
			c.MinFillRatio = 0.45
		}, "a69961ef41ce61f668ceb0ac"},
		{"small-dir-supernodes", func(c *Config) {
			c.DirCapacity = 5
			c.LeafCapacity = 12
			c.MaxSupernodeBlocks = 3
			c.MaxOverlapRatio = 0.002
		}, "6739037bc1822b1981e773d0"},
		{"flat-choose-no-refine", func(c *Config) {
			c.LeafCapacity = 48
			c.FlatChooseSubtree = true
			c.RefineBound = -1
		}, "4c5043ed91f7c64ca3a86ae1"},
		{"block-filled", func(*Config) {}, "c11ebccbaf190b332d9aaab4"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			gen, err := tpcd.New(7, tpcd.ScaleFor(load))
			if err != nil {
				t.Fatal(err)
			}
			recs := gen.Records(load + reload)
			cfg := DefaultConfig()
			tc.cfg(&cfg)
			ix, _ := newBareIndex(t, gen.Schema(), cfg)
			insert := func(rs []cube.Record) {
				for i := range rs {
					if err := ix.Insert(rs[i]); err != nil {
						t.Fatalf("Insert: %v", err)
					}
				}
			}
			insert(recs[:load])
			for i := 0; i < expire; i++ {
				if err := ix.Delete(recs[i*(load/expire)]); err != nil {
					t.Fatalf("Delete %d: %v", i, err)
				}
			}
			insert(recs[load:])
			if err := ix.Validate(); err != nil {
				t.Fatalf("invariants: %v", err)
			}
			if got := shapeDigest(t, ix); got != tc.want {
				t.Errorf("tree shape digest %s, pinned %s", got, tc.want)
			}
		})
	}
}

// flatNodes serves every node of a bare index the way a store with
// zero-copy views would: as its flat encoding behind the checked frame.
type flatNodes struct{ *memNodes }

func (s flatNodes) View(id NodeID) (NodeView, error) {
	n, err := s.Get(id)
	if err != nil {
		return NodeView{}, err
	}
	f, err := MakeFlatNode(id, s.ix.Encode(n), s.dims, s.nm)
	return f.View(), err
}

// TestGoldenQueryStats pins the work the read path does for a fixed tree and
// a fixed query set, with the numbers internal/core pins: serial and
// parallel over heap nodes, and over the nodes' flat encodings. The
// 48-row tree's numbers are PR 15's; the block-filled default's answers
// must be the 48-row tree's, query by query.
func TestGoldenQueryStats(t *testing.T) {
	const load = 6000
	gen, err := tpcd.New(7, tpcd.ScaleFor(load))
	if err != nil {
		t.Fatal(err)
	}
	recs := gen.Records(load)
	queries := drawQueryClasses(t, gen, 11, 12)
	answers := map[string][]cube.Agg{} // of the first walk; every other must agree
	for _, tc := range []struct {
		name         string
		leafCapacity int
		want         map[string]QueryStats
	}{
		{"leaf-48", 48, map[string]QueryStats{
			"sel01":  {NodesVisited: 157, EntriesScanned: 3778, EntriesPruned: 911},
			"sel05":  {NodesVisited: 453, EntriesScanned: 13142, EntriesPruned: 1085, RecordsMatched: 2},
			"sel25":  {NodesVisited: 1741, EntriesScanned: 53817, EntriesPruned: 425, RecordsMatched: 204},
			"rollup": {NodesVisited: 716, EntriesScanned: 21099, EntriesPruned: 1131, RecordsMatched: 1432},
			"region": {NodesVisited: 1353, EntriesScanned: 41117, EntriesPruned: 903, MaterializedHits: 23, RecordsMatched: 9632},
		}},
		{"block-filled", 0, map[string]QueryStats{
			"sel01":  {NodesVisited: 81, EntriesScanned: 6801, EntriesPruned: 269},
			"sel05":  {NodesVisited: 219, EntriesScanned: 22506, EntriesPruned: 221, RecordsMatched: 2},
			"sel25":  {NodesVisited: 504, EntriesScanned: 54730, EntriesPruned: 94, RecordsMatched: 204},
			"rollup": {NodesVisited: 324, EntriesScanned: 34445, EntriesPruned: 215, RecordsMatched: 1432},
			"region": {NodesVisited: 434, EntriesScanned: 47244, EntriesPruned: 135, MaterializedHits: 9, RecordsMatched: 6109},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.LeafCapacity = tc.leafCapacity
			ix, nodes := newBareIndex(t, gen.Schema(), cfg)
			for _, r := range recs {
				if err := ix.Insert(r); err != nil {
					t.Fatal(err)
				}
			}
			check := func(form string, src Source, parallel int) {
				t.Helper()
				for _, class := range queryClassNames {
					var got QueryStats
					for i, q := range queries[class] {
						res, err := ix.Execute(context.Background(), src, ix.root, Query{MDS: q, Parallel: parallel})
						if err != nil {
							t.Fatalf("%s %s: %v", form, class, err)
						}
						got.add(res.Stats)
						if len(answers[class]) == i {
							answers[class] = append(answers[class], res.Agg)
						} else if a := answers[class][i]; res.Agg.Count != a.Count || res.Agg.Min != a.Min || res.Agg.Max != a.Max || !floatClose(res.Agg.Sum, a.Sum) {
							t.Fatalf("%s %s query %d: %+v, first walk %+v", form, class, i, res.Agg, a)
						}
					}
					if got != tc.want[class] {
						t.Errorf("%s %s: stats %+v, pinned %+v", form, class, got, tc.want[class])
					}
				}
			}
			check("serial", nodes, 0)
			check("parallel", nodes, 3)
			check("flat views", flatNodes{nodes}, 0)
			check("flat views parallel", flatNodes{nodes}, 3)
		})
	}
}

// TestGoldenShapeGap pins the shape-gap ruler at 15k records — the
// benchmark's paper-mem workload at -scale 0.125 — on the bare index with
// the default configuration: per query class, the nodes the tree built by
// Insert visits ÷ those a BulkLoad of the same records visits, and per
// level of both trees the bytes of the nodes' flat encodings, which
// LevelStats reports beside the blocks the nodes hold.
func TestGoldenShapeGap(t *testing.T) {
	const n = 15000
	gen, err := tpcd.New(1, tpcd.ScaleFor(n))
	if err != nil {
		t.Fatal(err)
	}
	recs := gen.Records(n)
	queries := drawQueryClasses(t, gen, 77, 100)
	dynamic, dynamicNodes := newBareIndex(t, gen.Schema(), DefaultConfig())
	for _, r := range recs {
		if err := dynamic.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	packed, packedNodes := newBareIndex(t, gen.Schema(), DefaultConfig())
	if err := packed.BulkLoad(recs); err != nil {
		t.Fatal(err)
	}

	visits := func(ix *Index, src Source, class string) int {
		var st QueryStats
		for _, q := range queries[class] {
			res, err := ix.Execute(context.Background(), src, ix.root, Query{MDS: q})
			if err != nil {
				t.Fatal(err)
			}
			st.add(res.Stats)
		}
		return st.NodesVisited
	}
	for class, want := range map[string]struct {
		dynamic, packed int
		gap             string
	}{
		"sel01":  {1745, 859, "2.03"},
		"sel05":  {4505, 1802, "2.50"},
		"sel25":  {9831, 4782, "2.06"},
		"rollup": {5280, 2598, "2.03"},
		"region": {9070, 4623, "1.96"},
	} {
		d, p := visits(dynamic, dynamicNodes, class), visits(packed, packedNodes, class)
		if gap := fmt.Sprintf("%.2f", float64(d)/float64(p)); d != want.dynamic || p != want.packed || gap != want.gap {
			t.Errorf("%s: %d ÷ %d nodes visited = %s, pinned %d ÷ %d = %s", class, d, p, gap, want.dynamic, want.packed, want.gap)
		}
	}

	for name, tc := range map[string]struct {
		ix   *Index
		want []LevelStat
	}{
		"dynamic": {dynamic, []LevelStat{
			{Level: 0, Nodes: 1, Entries: 9, AvgEntries: 9, AvgBlocks: 1, EncodedBytes: 4301, MaxEncodedBytes: 4301},
			{Level: 1, Nodes: 9, Entries: 135, AvgEntries: 15, AvgBlocks: 1, EncodedBytes: 77375, MaxEncodedBytes: 13742},
			{Level: 2, Nodes: 135, Entries: 15000, AvgEntries: 15000.0 / 135, AvgBlocks: 1, EncodedBytes: 362700, MaxEncodedBytes: 4076},
		}},
		"packed": {packed, []LevelStat{
			{Level: 0, Nodes: 1, Entries: 4, AvgEntries: 4, AvgBlocks: 1, EncodedBytes: 860, MaxEncodedBytes: 860},
			{Level: 1, Nodes: 4, Entries: 89, AvgEntries: 22.25, AvgBlocks: 1, EncodedBytes: 13437, MaxEncodedBytes: 3644},
			{Level: 2, Nodes: 89, Entries: 15000, AvgEntries: 15000.0 / 89, AvgBlocks: 1, EncodedBytes: 361780, MaxEncodedBytes: 4076},
		}},
	} {
		levels, err := tc.ix.LevelStats()
		if err != nil {
			t.Fatal(err)
		}
		// The byte counts are the encodings' lengths, node by node.
		total, largest := 0, 0
		for _, l := range levels {
			total += l.EncodedBytes
			largest = max(largest, l.MaxEncodedBytes)
		}
		wantTotal, wantLargest := 0, 0
		for _, node := range collectNodes(t, tc.ix) {
			size := len(tc.ix.Encode(node))
			wantTotal += size
			wantLargest = max(wantLargest, size)
		}
		if total != wantTotal || largest != wantLargest {
			t.Errorf("%s: levels report %d encoded bytes, largest %d; the encodings are %d, largest %d",
				name, total, largest, wantTotal, wantLargest)
		}
		if !slices.Equal(levels, tc.want) {
			t.Errorf("%s: level stats %+v, pinned %+v", name, levels, tc.want)
		}
	}
}
