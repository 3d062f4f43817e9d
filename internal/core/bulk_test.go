package core

import (
	"context"
	"math/rand"
	"testing"

	"github.com/dcindex/dctree/internal/cube"
	"github.com/dcindex/dctree/internal/mds"
	"github.com/dcindex/dctree/internal/storage"
	"github.com/dcindex/dctree/internal/tpcd"
)

func TestBulkLoadMatchesDynamic(t *testing.T) {
	cfg := smallConfig()
	s := testSchema(t)
	rng := rand.New(rand.NewSource(71))
	recs := genRecords(t, s, rng, 1500)

	dyn, err := New(storage.NewMemStore(cfg.BlockSize), s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := dyn.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	bulk, err := New(storage.NewMemStore(cfg.BlockSize), s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := bulk.BulkLoad(recs); err != nil {
		t.Fatalf("BulkLoad: %v", err)
	}
	if bulk.Count() != dyn.Count() {
		t.Fatalf("counts: bulk %d, dynamic %d", bulk.Count(), dyn.Count())
	}
	if err := bulk.Validate(); err != nil {
		t.Fatalf("bulk Validate: %v", err)
	}

	// Same answers as the dynamically built tree for random queries.
	for i := 0; i < 200; i++ {
		q := randomQuery(rng, s, []float64{0.01, 0.05, 0.25}[i%3])
		want := bruteAgg(t, s, recs, q, 0)
		got, err := rangeAgg(bulk, q, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !aggMatches(got, want) {
			t.Fatalf("query %d: bulk %+v != brute %+v", i, got, want)
		}
	}

	// A bulk-loaded tree keeps accepting dynamic updates.
	extra := genRecords(t, s, rng, 300)
	for _, r := range extra {
		if err := bulk.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := bulk.Delete(recs[0]); err != nil {
		t.Fatalf("delete after bulk: %v", err)
	}
	if err := bulk.Validate(); err != nil {
		t.Fatalf("Validate after post-bulk updates: %v", err)
	}
	all := append(append([]cube.Record(nil), recs[1:]...), extra...)
	q := randomQuery(rng, s, 0.25)
	want := bruteAgg(t, s, all, q, 0)
	got, _ := rangeAgg(bulk, q, 0)
	if !aggMatches(got, want) {
		t.Fatalf("post-bulk updates: got %+v want %+v", got, want)
	}
}

func TestBulkLoadEdgeCases(t *testing.T) {
	cfg := smallConfig()
	s := testSchema(t)
	tree, _ := New(storage.NewMemStore(cfg.BlockSize), s, cfg)

	// Empty bulk load is a no-op.
	if err := tree.BulkLoad(nil); err != nil {
		t.Fatalf("empty BulkLoad: %v", err)
	}
	if tree.Count() != 0 {
		t.Fatal("empty bulk load changed the tree")
	}

	// Single record.
	rng := rand.New(rand.NewSource(73))
	one := genRecords(t, s, rng, 1)
	if err := tree.BulkLoad(one); err != nil {
		t.Fatal(err)
	}
	if tree.Count() != 1 || tree.Height() != 1 {
		t.Fatalf("after single bulk: count=%d height=%d", tree.Count(), tree.Height())
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}

	// Bulk load into a non-empty tree is rejected.
	if err := tree.BulkLoad(one); err == nil {
		t.Fatal("bulk load into non-empty tree accepted")
	}

	// Invalid records are rejected up front.
	tree2, _ := New(storage.NewMemStore(cfg.BlockSize), s, cfg)
	bad := one[0].Clone()
	bad.Measures = nil
	if err := tree2.BulkLoad([]cube.Record{bad}); err == nil {
		t.Fatal("invalid record accepted")
	}
	if tree2.Count() != 0 {
		t.Fatal("failed bulk load left records behind")
	}
}

func TestBulkLoadPersistence(t *testing.T) {
	cfg := smallConfig()
	store := storage.NewMemStore(cfg.BlockSize)
	s := testSchema(t)
	tree, _ := New(store, s, cfg)
	rng := rand.New(rand.NewSource(79))
	recs := genRecords(t, s, rng, 800)
	if err := tree.BulkLoad(recs); err != nil {
		t.Fatal(err)
	}
	if err := tree.Flush(); err != nil {
		t.Fatal(err)
	}
	want, _ := rangeAgg(tree, mds.Top(3), 0)

	reopened, err := Open(store)
	if err != nil {
		t.Fatal(err)
	}
	if err := reopened.Validate(); err != nil {
		t.Fatal(err)
	}
	got, err := rangeAgg(reopened, mds.Top(3), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !aggMatches(got, want) {
		t.Fatalf("reopened bulk tree: %+v want %+v", got, want)
	}
}

// TestBulkLoadClustering checks the point of bulk loading: leaves end up
// hierarchically clustered, so directory MDSs are narrow and coarse
// queries prune well.
func TestBulkLoadClustering(t *testing.T) {
	cfg := smallConfig()
	s := testSchema(t)
	tree, _ := New(storage.NewMemStore(cfg.BlockSize), s, cfg)
	rng := rand.New(rand.NewSource(83))
	recs := genRecords(t, s, rng, 2000)
	if err := tree.BulkLoad(recs); err != nil {
		t.Fatal(err)
	}
	// A single-region query must not visit most of the tree.
	space := s.Space()
	regions, _ := space[0].ValuesAt(2)
	q := mds.Top(3)
	q[0] = mds.DimSet{Level: 2, IDs: regions[:1]}
	res, err := tree.Execute(context.Background(), QueryRequest{Query: q, CollectStats: true})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	levels, _ := tree.LevelStats()
	total := 0
	for _, l := range levels {
		total += l.Nodes
	}
	if st.NodesVisited*2 > total {
		t.Fatalf("single-region query visited %d of %d nodes: bulk clustering ineffective", st.NodesVisited, total)
	}
}

func BenchmarkBulkLoad(b *testing.B) {
	cfg := DefaultConfig()
	s := testSchema(b)
	rng := rand.New(rand.NewSource(1))
	recs := genRecordsInto(b, s, rng, 20000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree, err := New(storage.NewMemStore(cfg.BlockSize), s, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := tree.BulkLoad(recs); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFullLeafFitsOneBlock: one node, one block (§4.2). At the default
// configuration a data node holds as many TPC-D rows as one block's extent
// fits at the byte widths its codes need — at this cube's codes 2 + 1 + 2 +
// 2 bytes and the measure's 8, so 270 rows, encoded behind the 20-byte
// header and 4 width bytes in 24 + 270·15 = 4,074 of the 4,084 payload
// bytes, where a 271st would take 4,089 — so the extent a flush gives a
// full one is as long as the node says it is: the block count LevelStats
// reports is the one the store holds.
func TestFullLeafFitsOneBlock(t *testing.T) {
	cfg := DefaultConfig()
	const rows, size = 270, 24 + 270*15
	gen, err := tpcd.New(1, tpcd.ScaleFor(25*rows))
	if err != nil {
		t.Fatal(err)
	}
	tree, err := New(storage.NewMemStore(cfg.BlockSize), gen.Schema(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if payload := storage.ExtentCapacity(cfg.BlockSize, 1); size > payload || size+15 <= payload {
		t.Fatalf("%d rows take %d of the %d payload bytes: not a full block", rows, size, payload)
	}
	if err := tree.BulkLoad(gen.Records(25 * rows)); err != nil {
		t.Fatal(err)
	}
	if err := tree.Flush(); err != nil {
		t.Fatal(err)
	}
	full := 0
	for _, n := range collectNodes(t, tree) {
		if !n.Leaf() {
			continue
		}
		if n.Count() == rows {
			full++
			if got := len(tree.ix.Encode(n)); got != size {
				t.Errorf("full data node %d encodes to %d bytes, want %d", n.ID(), got, size)
			}
		}
		if ref := tree.table[n.ID()]; ref.blocks != n.Blocks() {
			t.Errorf("data node %d (%d records): a %d-block extent for a %d-block node", n.ID(), n.Count(), ref.blocks, n.Blocks())
		}
	}
	if full < 20 {
		t.Fatalf("%d full data nodes, want at least 20", full)
	}
}
