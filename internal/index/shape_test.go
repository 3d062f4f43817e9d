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
	"github.com/dcindex/dctree/internal/mds"
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
	buf = ix.head.RootMDS.AppendEncode(buf[:0])
	u64(uint64(ix.head.Height))
	u64(uint64(ix.head.Count))
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
// became the block-filled count); the last pins the default itself. The four
// streams that refine were re-pinned once, with internal/core's, when inserts
// and splits began to bound directory entries (boundMDS). The one that does
// not (RefineBound -1) was pinned with the hierarchy-blind choose-subtree
// ablation until that switch was retired; it now runs the weighted cost, its
// digest taken on the last build that still had the switch.
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
		{"default", func(c *Config) { c.LeafCapacity = 48 }, "dbd5a39a29aa38e6a52c0ad7"},
		{"forced-splits", func(c *Config) {
			c.LeafCapacity = 48
			c.MaxSupernodeBlocks = 1
			c.MaxOverlapRatio = 0.002
			c.MinFillRatio = 0.45
		}, "07fcacb8ebacc17216b227d8"},
		{"small-dir-supernodes", func(c *Config) {
			c.DirCapacity = 5
			c.LeafCapacity = 12
			c.MaxSupernodeBlocks = 3
			c.MaxOverlapRatio = 0.002
		}, "b223d6cc9a6c8a3008a6b536"},
		{"no-refine", func(c *Config) {
			c.LeafCapacity = 48
			c.RefineBound = -1
		}, "871f28e5917779cac8e2ae97"},
		{"block-filled", func(*Config) {}, "501991a2af5b666e22f83c03"},
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
			if err := validate(ix); err != nil {
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

func (s flatNodes) View(id NodeID, nv *NodeView) error {
	n, err := s.Get(id)
	if err != nil {
		return err
	}
	return nv.Frame(id, s.ix.Encode(n), s.dims, s.nm)
}

// add accumulates another query's counters.
func (s *QueryStats) add(o QueryStats) {
	s.NodesVisited += o.NodesVisited
	s.EntriesScanned += o.EntriesScanned
	s.EntriesPruned += o.EntriesPruned
	s.MaterializedHits += o.MaterializedHits
	s.RecordsMatched += o.RecordsMatched
}

// TestGoldenQueryStats pins the work the read path does for a fixed tree and
// a fixed query set, with the numbers internal/core pins: over heap nodes,
// and over the nodes' flat encodings. The
// block-filled default's answers must be the 48-row tree's, query by query.
// Both trees' numbers were re-pinned once, with internal/core's, when
// inserts and splits began to bound directory entries (boundMDS); the
// answers did not move.
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
			"sel01":  {NodesVisited: 303, EntriesScanned: 7610, EntriesPruned: 1040},
			"sel05":  {NodesVisited: 638, EntriesScanned: 17564, EntriesPruned: 1062, RecordsMatched: 2},
			"sel25":  {NodesVisited: 1730, EntriesScanned: 50051, EntriesPruned: 588, RecordsMatched: 204},
			"rollup": {NodesVisited: 1079, EntriesScanned: 31212, EntriesPruned: 934, RecordsMatched: 1432},
			"region": {NodesVisited: 1672, EntriesScanned: 48333, EntriesPruned: 759, MaterializedHits: 17, RecordsMatched: 9916},
		}},
		{"block-filled", 0, map[string]QueryStats{
			"sel01":  {NodesVisited: 84, EntriesScanned: 6932, EntriesPruned: 282},
			"sel05":  {NodesVisited: 181, EntriesScanned: 17985, EntriesPruned: 247, RecordsMatched: 2},
			"sel25":  {NodesVisited: 460, EntriesScanned: 50088, EntriesPruned: 144, RecordsMatched: 204},
			"rollup": {NodesVisited: 334, EntriesScanned: 35940, EntriesPruned: 210, RecordsMatched: 1432},
			"region": {NodesVisited: 423, EntriesScanned: 46015, EntriesPruned: 152, MaterializedHits: 11, RecordsMatched: 7008},
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
			check := func(form string, src Source) {
				t.Helper()
				for _, class := range queryClassNames {
					var got QueryStats
					for i, q := range queries[class] {
						res, err := ix.Execute(context.Background(), src, ix.head.Root, Query{MDS: q})
						if err != nil {
							t.Fatalf("%s %s: %v", form, class, err)
						}
						got.add(res.Stats)
						if len(answers[class]) == i {
							answers[class] = append(answers[class], res.Agg)
						} else if a := answers[class][i]; !aggClose(res.Agg, a) {
							t.Fatalf("%s %s query %d: %+v, first walk %+v", form, class, i, res.Agg, a)
						}
					}
					if got != tc.want[class] {
						t.Errorf("%s %s: stats %+v, pinned %+v", form, class, got, tc.want[class])
					}
				}
			}
			check("heap nodes", nodes)
			check("flat views", flatNodes{nodes})
		})
	}
}

// shapeGap is the shape-gap ruler's setup: n TPC-D records built once by
// Insert (dynamic) and once by BulkLoad (packed) on the bare index with the
// default configuration, and 100 queries per class.
type shapeGap struct {
	dynamic, packed           *Index
	dynamicNodes, packedNodes *memNodes
	queries                   map[string][]mds.MDS
}

func newShapeGap(t *testing.T, n int) *shapeGap {
	t.Helper()
	gen, err := tpcd.New(1, tpcd.ScaleFor(n))
	if err != nil {
		t.Fatal(err)
	}
	recs := gen.Records(n)
	g := &shapeGap{queries: drawQueryClasses(t, gen, 77, 100)}
	g.dynamic, g.dynamicNodes = newBareIndex(t, gen.Schema(), DefaultConfig())
	for _, r := range recs {
		if err := g.dynamic.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	g.packed, g.packedNodes = newBareIndex(t, gen.Schema(), DefaultConfig())
	if err := g.packed.BulkLoad(recs); err != nil {
		t.Fatal(err)
	}
	return g
}

// check holds the nodes each class's queries visit on both trees, and their
// ratio, to the pinned values.
func (g *shapeGap) check(t *testing.T, pinned map[string]gapVisits) {
	t.Helper()
	visits := func(ix *Index, src Source, class string) int {
		var st QueryStats
		for _, q := range g.queries[class] {
			res, err := ix.Execute(context.Background(), src, ix.head.Root, Query{MDS: q})
			if err != nil {
				t.Fatal(err)
			}
			st.add(res.Stats)
		}
		return st.NodesVisited
	}
	for class, want := range pinned {
		d, p := visits(g.dynamic, g.dynamicNodes, class), visits(g.packed, g.packedNodes, class)
		if gap := fmt.Sprintf("%.2f", float64(d)/float64(p)); d != want.dynamic || p != want.packed || gap != want.gap {
			t.Errorf("%s: %d ÷ %d nodes visited = %s, pinned %d ÷ %d = %s", class, d, p, gap, want.dynamic, want.packed, want.gap)
		}
	}
}

type gapVisits struct {
	dynamic, packed int
	gap             string
}

// largestDirectory is the length of the tree's largest directory encoding.
func largestDirectory(t *testing.T, ix *Index) int {
	t.Helper()
	largest := 0
	for _, n := range collectNodes(t, ix) {
		if !n.leaf {
			largest = max(largest, len(ix.Encode(n)))
		}
	}
	return largest
}

// TestGoldenShapeGap pins the shape-gap ruler at 15k records — the
// benchmark's paper-mem workload at -scale 0.125 — on the bare index with
// the default configuration: per query class, the nodes the tree built by
// Insert visits ÷ those a BulkLoad of the same records visits, and per
// level of both trees the bytes of the nodes' flat encodings, which
// LevelStats reports beside the blocks the nodes hold, the values per
// directory entry, and the fill: entries ÷ the level's capacity, ~0.69 on
// the dynamic data level against ~1.00 packed.
//
// The dynamic tree's numbers were re-pinned once, when inserts and splits
// began to bound directory entries (boundMDS): gaps 2.03 / 2.50 / 2.06 /
// 2.03 / 1.96 → 1.65 / 1.90 / 1.53 / 1.83 / 1.79, its level-1 directories
// 77,375 → 19,024 bytes, the largest 13,742 → 4,052. Every dynamic
// directory now fits one block, so the blocks LevelStats reports are the
// blocks the encodings need. The packed tree's values did not move.
func TestGoldenShapeGap(t *testing.T) {
	g := newShapeGap(t, 15000)
	g.check(t, map[string]gapVisits{
		"sel01":  {1420, 859, "1.65"},
		"sel05":  {3427, 1802, "1.90"},
		"sel25":  {7317, 4782, "1.53"},
		"rollup": {4743, 2598, "1.83"},
		"region": {8256, 4623, "1.79"},
	})
	if largest := largestDirectory(t, g.dynamic); largest > testBlockPayload {
		t.Errorf("the dynamic tree's largest directory encodes to %d bytes, past a block's %d", largest, testBlockPayload)
	}

	for name, tc := range map[string]struct {
		ix   *Index
		want []LevelStat
	}{
		"dynamic": {g.dynamic, []LevelStat{
			{Level: 0, Nodes: 1, Entries: 8, AvgEntries: 8, AvgBlocks: 1, EncodedBytes: 1164, MaxEncodedBytes: 1164, AvgEntryValues: 183.0 / 8, Fill: 8.0 / 24},
			{Level: 1, Nodes: 8, Entries: 128, AvgEntries: 16, AvgBlocks: 1, EncodedBytes: 19024, MaxEncodedBytes: 4052, AvgEntryValues: 3045.0 / 128, Fill: 128.0 / (8 * 24)},
			{Level: 2, Nodes: 128, Entries: 15000, AvgEntries: 15000.0 / 128, AvgBlocks: 1, EncodedBytes: 362560, MaxEncodedBytes: 4076, Fill: 15000.0 / (128 * 169)},
		}},
		"packed": {g.packed, []LevelStat{
			{Level: 0, Nodes: 1, Entries: 4, AvgEntries: 4, AvgBlocks: 1, EncodedBytes: 860, MaxEncodedBytes: 860, AvgEntryValues: 39, Fill: 4.0 / 24},
			{Level: 1, Nodes: 4, Entries: 89, AvgEntries: 22.25, AvgBlocks: 1, EncodedBytes: 13437, MaxEncodedBytes: 3644, AvgEntryValues: 2156.0 / 89, Fill: 89.0 / (4 * 24)},
			{Level: 2, Nodes: 89, Entries: 15000, AvgEntries: 15000.0 / 89, AvgBlocks: 1, EncodedBytes: 361780, MaxEncodedBytes: 4076, Fill: 15000.0 / (89 * 169)},
		}},
	} {
		levels, err := levelStats(tc.ix)
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

// TestGoldenShapeGap100k pins the same ruler at 100k records, and both
// trees' fill per level. Before entries were bounded the gap at 5 % was 3.9
// and the dynamic tree's largest directory encoded to 289,510 bytes, 71
// blocks; now it is 5,672, still past one block's payload.
func TestGoldenShapeGap100k(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two trees of 100k records")
	}
	g := newShapeGap(t, 100000)
	g.check(t, map[string]gapVisits{
		"sel01":  {4315, 2308, "1.87"},
		"sel05":  {15479, 9238, "1.68"},
		"sel25":  {44038, 26574, "1.66"},
		"rollup": {18301, 8806, "2.08"},
		"region": {41988, 21358, "1.97"},
	})
	if got, want := largestDirectory(t, g.dynamic), 5672; got != want {
		t.Errorf("the dynamic tree's largest directory encodes to %d bytes, pinned %d", got, want)
	}
	for name, tc := range map[string]struct {
		ix   *Index
		fill []float64
	}{
		// One of the dynamic level 2's 60 directories is a supernode of 2 blocks.
		"dynamic": {g.dynamic, []float64{4.0 / 24, 60.0 / (4 * 24), 905.0 / (61 * 24), 100000.0 / (905 * 169)}},
		"packed":  {g.packed, []float64{2.0 / 24, 25.0 / (2 * 24), 592.0 / (25 * 24), 100000.0 / (592 * 169)}},
	} {
		levels, err := levelStats(tc.ix)
		if err != nil {
			t.Fatal(err)
		}
		var fill []float64
		for _, l := range levels {
			fill = append(fill, l.Fill)
		}
		if !slices.Equal(fill, tc.fill) {
			t.Errorf("%s: fill per level %v, pinned %v", name, fill, tc.fill)
		}
	}
}
