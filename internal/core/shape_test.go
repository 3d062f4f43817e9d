package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"github.com/dcindex/dctree/internal/cube"
	"github.com/dcindex/dctree/internal/mds"
	"github.com/dcindex/dctree/internal/storage"
	"github.com/dcindex/dctree/internal/tpcd"
)

// shapeDigest hashes everything the write path decides: the pre-order walk
// of the tree (node kind, block count, every entry's MDS and aggregate, the
// record of a data entry), the root MDS, the height and the split counters.
// Two trees with equal digests answer every query identically and cost the
// same to query.
func shapeDigest(t *testing.T, tree *Tree) string {
	t.Helper()
	h := sha256.New()
	var buf []byte
	u64 := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	for _, n := range collectNodes(t, tree) {
		buf = buf[:0]
		if n.Leaf() {
			buf = append(buf, 'L')
		} else {
			buf = append(buf, 'D')
		}
		u64(uint64(n.Blocks()))
		u64(uint64(n.Count()))
		for i, e := range entriesOf(t, tree, n) {
			buf = e.MDS.AppendEncode(buf)
			for _, a := range e.Agg {
				u64(math.Float64bits(a.Sum))
				u64(uint64(a.Count))
				u64(math.Float64bits(a.Min))
				u64(math.Float64bits(a.Max))
			}
			if n.Leaf() {
				rec := n.Record(i)
				for _, c := range rec.Coords {
					u64(uint64(c))
				}
				for _, m := range rec.Measures {
					u64(math.Float64bits(m))
				}
			}
		}
		h.Write(buf)
	}
	buf = tree.RootMDS().AppendEncode(buf[:0])
	u64(uint64(tree.Height()))
	u64(uint64(tree.Count()))
	m := tree.Metrics()
	for _, c := range []int64{m.SplitsHierarchy, m.SplitsForced, m.SupernodesCreated, m.SupernodesGrown, m.RootSplits} {
		u64(uint64(c))
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// TestGoldenTreeShape pins the tree the write path builds. The digests of
// the first streams were taken at the commit before the write-path MDS
// kernel (PR 12): the kernel — and since PR 25 the incremental delete
// repair — must reproduce every choose-subtree, split, refinement and
// delete-repair decision of the allocating implementation bit for bit. They
// were pinned at a data-node capacity of 48 rows (the default until it
// became the block-filled count); the last stream pins the default itself.
// A change that means to build a different tree re-pins them and says so.
//
// Re-pinned once since: inserts and splits now bound every directory entry
// they write, lifting a dimension past 2 × RefineBound values one level
// (index.boundMDS), so every stream that refines builds another tree —
// default b6d09291b7e223ccb1fed50a, forced-splits a69961ef41ce61f668ceb0ac,
// small-dir-supernodes 6739037bc1822b1981e773d0, block-filled
// c11ebccbaf190b332d9aaab4 before. The stream without refinement
// (RefineBound -1, no bound) kept its digest then. It was pinned with the
// hierarchy-blind choose-subtree ablation (flat-choose-no-refine,
// 4c5043ed91f7c64ca3a86ae1) until that switch was retired; no-refine runs
// the weighted cost, its digest taken on the last build that had the
// switch. Re-pinned once more, the default alone: a block-filled data node
// holds the rows its block fits at the byte widths its codes need (270 of
// this stream's, not 169), so it builds another tree — block-filled
// 501991a2af5b666e22f83c03 before; the row-capped four did not move.
// Re-pinned again, all five: a directory overflows when its encoding passes
// its blocks, not at 24 entries, so directories split at other moments and
// the data nodes below them with them — default dbd5a39a29aa38e6a52c0ad7,
// forced-splits 07fcacb8ebacc17216b227d8, small-dir-supernodes
// b223d6cc9a6c8a3008a6b536 (5 entries a block, now 1 KiB blocks),
// no-refine 871f28e5917779cac8e2ae97, block-filled 97e42c41ebb30c563d96a23e
// before. Re-pinned again, the three that set the retired row cap, when it
// went: a data node holds its block's bytes of rows in every stream. The
// 48-row default, 55baef0f9e5a76b319f1bfba, became block-filled's
// ec6bf055… and was dropped. forced-splits (8b478888e43641309766002e,
// height 4, 59 forced splits) forced none on 4 KiB blocks, so it moved to
// 1 KiB blocks: height 5, 181 forced. small-dir-supernodes
// (13ac026d8256642722c035fc, 12 rows) stays on 1 KiB blocks: height 5 → 4,
// supernodes created 24 → 15. no-refine (8cd317f317e3c248cc2aee77): height
// 6 → 8. block-filled did not move.
func TestGoldenTreeShape(t *testing.T) {
	if testing.Short() {
		t.Skip("loads 4×22k records")
	}
	const load, expire, reload = 20000, 2000, 2000
	cases := []struct {
		name string
		cfg  func(*Config)
		want string
	}{
		// A strict overlap criterion rejects most candidate partitions, so
		// the fallback partition is forced ...
		{"forced-splits", func(c *Config) {
			c.BlockSize = 1024
			c.MaxSupernodeBlocks = 1
			c.MaxOverlapRatio = 0.002
			c.MinFillRatio = 0.45
		}, "8bc3d9d2fee1a80754d65e92"},
		// ... or the node grows into a supernode, up to a low cap.
		{"small-dir-supernodes", func(c *Config) {
			c.BlockSize = 1024
			c.MaxSupernodeBlocks = 3
			c.MaxOverlapRatio = 0.002
		}, "2eaa6b776fded7fcabf29610"},
		// No refinement and no entry bound: levels fall only through the
		// split dimension, and entries grow without limit.
		{"no-refine", func(c *Config) {
			c.RefineBound = -1
		}, "33969723b603d8c4ed077a19"},
		// The default: a data node fills its block (270 TPC-D rows at
		// this stream's code widths).
		{"block-filled", func(*Config) {}, "ec6bf0556f6d98532df9139b"},
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
			tree, err := New(storage.NewMemStore(cfg.BlockSize), gen.Schema(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			insert := func(rs []cube.Record) {
				for i := range rs {
					if err := tree.Insert(rs[i]); err != nil {
						t.Fatalf("Insert: %v", err)
					}
				}
			}
			insert(recs[:load])
			// Expire records spread over the load order, then keep loading:
			// the delete path's cover repair and the inserts into the
			// repaired tree are part of the pinned shape.
			for i := 0; i < expire; i++ {
				if err := tree.Delete(recs[i*(load/expire)]); err != nil {
					t.Fatalf("Delete %d: %v", i, err)
				}
			}
			insert(recs[load:])
			if err := tree.Validate(); err != nil {
				t.Fatalf("invariants: %v", err)
			}
			got := shapeDigest(t, tree)
			snap := tree.Metrics()
			t.Logf("digest %s height %d splits hierarchy=%d forced=%d supernodes created=%d grown=%d",
				got, tree.Height(), snap.SplitsHierarchy, snap.SplitsForced, snap.SupernodesCreated, snap.SupernodesGrown)
			if got != tc.want {
				t.Errorf("tree shape digest %s, pinned %s", got, tc.want)
			}
		})
	}
}

// TestGoldenQueryStats pins the work the read path does for a fixed tree and
// a fixed query set, beside the shape that determines it: nodes visited,
// entries scanned and pruned, materialized hits and records matched, summed
// per query class. A 48-row tree's numbers were taken at the commit before
// the read-path kernel (PR 15); the kernel changes how an entry is tested,
// never which entries are. The block-filled default's tree is another shape
// with other numbers and the same answers. Every way of walking the tree
// does the same work: over heap nodes, as of a version (overlay payloads),
// and over zero-copy views of checkpointed extents.
//
// Both trees' numbers were re-pinned once, when inserts and splits began to
// bound directory entries (index.boundMDS). Coarser entries prune less on
// the 48-row tree (nodes visited at sel01 157 → 303, roll-up 716 → 1,079)
// and on the default a little less at sel01 and roll-up (81 → 84, 324 →
// 334) but more at sel05 and sel25 (219 → 181, 504 → 460). The answers did
// not move. The default's were re-pinned again when its data nodes began to
// hold the rows a block fits at their codes' byte widths: nodes visited 84 /
// 181 / 460 / 334 / 423 → 85 / 154 / 308 / 235 / 313 per class, more rows
// scanned in fewer, fuller data nodes, no region entry answered from its
// aggregate (11 → 0). The answers did not move. The 48-row tree's were
// re-pinned again when a directory began to overflow by its bytes instead
// of at 24 entries: nodes visited 303 / 638 / 1730 / 1079 / 1672 → 291 /
// 629 / 1747 / 1107 / 1688, region's materialized hits 17 → 10. The
// default's directories hold fewer than 24 entries either way; its numbers
// and every answer did not move. When the row cap went, the 48-row tree
// became the block-filled one and was dropped. The tree on 1 KiB blocks
// took its place as the one whose entries answer queries from their
// aggregates (region 13 hits, roll-up 2); the block-filled numbers and
// every answer did not move.
func TestGoldenQueryStats(t *testing.T) {
	const load = 6000
	gen, err := tpcd.New(7, tpcd.ScaleFor(load))
	if err != nil {
		t.Fatal(err)
	}
	recs := gen.Records(load)
	queries := drawQueryClasses(t, gen, 11, 12)
	for _, tc := range []struct {
		name      string
		blockSize int
		want      map[string]QueryStats
	}{
		{"1k-blocks", 1024, map[string]QueryStats{
			"sel01":  {NodesVisited: 442, EntriesScanned: 9657, EntriesPruned: 415},
			"sel05":  {NodesVisited: 841, EntriesScanned: 20956, EntriesPruned: 458, RecordsMatched: 2},
			"sel25":  {NodesVisited: 1815, EntriesScanned: 50446, EntriesPruned: 260, RecordsMatched: 204},
			"rollup": {NodesVisited: 1390, EntriesScanned: 37120, EntriesPruned: 421, MaterializedHits: 2, RecordsMatched: 1366},
			"region": {NodesVisited: 1778, EntriesScanned: 49090, EntriesPruned: 336, MaterializedHits: 13, RecordsMatched: 6254},
		}},
		{"block-filled", 4096, map[string]QueryStats{
			"sel01":  {NodesVisited: 85, EntriesScanned: 11605, EntriesPruned: 187},
			"sel05":  {NodesVisited: 154, EntriesScanned: 22699, EntriesPruned: 165, RecordsMatched: 2},
			"sel25":  {NodesVisited: 308, EntriesScanned: 49953, EntriesPruned: 91, RecordsMatched: 204},
			"rollup": {NodesVisited: 235, EntriesScanned: 37316, EntriesPruned: 145, RecordsMatched: 1432},
			"region": {NodesVisited: 313, EntriesScanned: 50337, EntriesPruned: 119, RecordsMatched: 10382},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.BlockSize = tc.blockSize
			tree, err := New(storage.NewMemStore(cfg.BlockSize), gen.Schema(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range recs {
				if err := tree.Insert(r); err != nil {
					t.Fatal(err)
				}
			}
			check := func(form string, req QueryRequest) {
				t.Helper()
				for _, class := range queryClassNames {
					var got QueryStats
					for _, q := range queries[class] {
						req.Query, req.CollectStats = q, true
						res, err := tree.Execute(context.Background(), req)
						if err != nil {
							t.Fatalf("%s %s: %v", form, class, err)
						}
						got.NodesVisited += res.Stats.NodesVisited
						got.EntriesScanned += res.Stats.EntriesScanned
						got.EntriesPruned += res.Stats.EntriesPruned
						got.MaterializedHits += res.Stats.MaterializedHits
						got.RecordsMatched += res.Stats.RecordsMatched
					}
					if got != tc.want[class] {
						t.Errorf("%s %s: stats %+v, pinned %+v", form, class, got, tc.want[class])
					}
				}
			}
			check("serial", QueryRequest{})
			v, err := tree.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			check("as-of", QueryRequest{AsOf: v})
			if err := v.Release(); err != nil {
				t.Fatal(err)
			}
			if err := tree.Flush(); err != nil {
				t.Fatal(err)
			}
			tree.EvictCache()
			before := tree.Metrics()
			check("flat views", QueryRequest{})
			if after := tree.Metrics(); after.FlatNodeReads == before.FlatNodeReads || after.DecodeFallbacks != before.DecodeFallbacks {
				t.Errorf("flat-view pass: %d flat reads, %d decode fallbacks",
					after.FlatNodeReads-before.FlatNodeReads, after.DecodeFallbacks-before.DecodeFallbacks)
			}
		})
	}
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
