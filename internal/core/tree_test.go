package core

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"github.com/dcindex/dctree/internal/cube"
	"github.com/dcindex/dctree/internal/hierarchy"
	"github.com/dcindex/dctree/internal/index"
	"github.com/dcindex/dctree/internal/mds"
	"github.com/dcindex/dctree/internal/storage"
)

// testSchema builds a small TPC-D-like cube: Customer (Region>Nation>Cust),
// Part (Brand>Part), Time (Year>Month) with one measure of cents.
func testSchema(t testing.TB) *cube.Schema {
	t.Helper()
	cust := hierarchy.MustNew("Customer", "Customer", "Nation", "Region")
	part := hierarchy.MustNew("Part", "Part", "Brand")
	tim := hierarchy.MustNew("Time", "Month", "Year")
	s, err := cube.MustNewSchema([]*hierarchy.Hierarchy{cust, part, tim}, "Price").WithScales(2)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// genRecords interns n random records into the schema.
func genRecords(t testing.TB, s *cube.Schema, rng *rand.Rand, n int) []cube.Record {
	t.Helper()
	recs := make([]cube.Record, n)
	for i := range recs {
		r, err := s.InternRecord([][]string{
			{fmt.Sprintf("R%d", rng.Intn(4)), fmt.Sprintf("N%d", rng.Intn(12)), fmt.Sprintf("C%d", rng.Intn(300))},
			{fmt.Sprintf("B%d", rng.Intn(8)), fmt.Sprintf("P%d", rng.Intn(200))},
			{fmt.Sprintf("Y%d", rng.Intn(5)), fmt.Sprintf("M%d", rng.Intn(60))},
		}, []float64{math.Round(rng.Float64()*10000) / 100})
		if err != nil {
			t.Fatalf("InternRecord: %v", err)
		}
		recs[i] = r
	}
	return recs
}

// collectNodes walks the whole tree and returns every node, root first.
func collectNodes(t testing.TB, tree *Tree) []*index.Node {
	t.Helper()
	var nodes []*index.Node
	var walk func(id nodeID)
	walk = func(id nodeID) {
		n, err := tree.nodes().Get(id)
		if err != nil {
			t.Fatalf("Get(%d): %v", id, err)
		}
		nodes = append(nodes, n)
		var nv index.NodeView
		tree.ix.HeapView(n, &nv)
		for i := 0; !nv.Leaf() && i < nv.Count(); i++ {
			walk(nv.Child(i))
		}
	}
	walk(tree.ix.Root())
	return nodes
}

// entry is a node entry as the tests read it: its MDS, aggregates and
// child.
type entry struct {
	MDS   mds.MDS
	Agg   []cube.Fixed
	Child nodeID
}

// entriesOf lists a node's entries the way the encoding carries them: a
// directory's read through its view, and for a data node one per record
// with the singleton MDS and the one-record aggregates synthesized from the
// row.
func entriesOf(t testing.TB, tree *Tree, n *index.Node) []entry {
	t.Helper()
	var nv index.NodeView
	tree.ix.HeapView(n, &nv)
	out := make([]entry, n.Count())
	for i := range out {
		if n.Leaf() {
			coords, units := n.Row(i)
			out[i] = entry{MDS: mds.FromLeaves(coords)}
			for _, u := range units {
				out[i].Agg = append(out[i].Agg, cube.FixedOf(u))
			}
			continue
		}
		m, _, err := mds.Decode(nv.EntryMDS(i))
		if err != nil {
			t.Fatal(err)
		}
		out[i] = entry{MDS: m, Agg: make([]cube.Fixed, tree.schema.Measures()), Child: nv.Child(i)}
		for j := range out[i].Agg {
			out[i].Agg[j] = nv.Agg(i, j)
		}
	}
	return out
}

// smallConfig forces frequent splits so even small tests exercise the full
// machinery: data nodes of the some 60 rows, and directories of the few
// entries, a 512-byte block holds.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.BlockSize = 512
	cfg.MaxSupernodeBlocks = 8
	return cfg
}

func newTestTree(t testing.TB, cfg Config) *Tree {
	t.Helper()
	s := testSchema(t)
	tree, err := New(storage.NewMemStore(cfg.BlockSize), s, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return tree
}

// randomQuery builds a random valid query MDS over the schema, mimicking
// the paper's generator: per dimension pick a hierarchy level (sometimes
// ALL) and a random subset of values of that level up to the selectivity.
func randomQuery(rng *rand.Rand, s *cube.Schema, selectivity float64) mds.MDS {
	space := s.Space()
	q := make(mds.MDS, len(space))
	for d, h := range space {
		if rng.Intn(6) == 0 {
			q[d] = mds.AllDim()
			continue
		}
		level := rng.Intn(h.Depth())
		vals, _ := h.ValuesAt(level)
		if len(vals) == 0 {
			q[d] = mds.AllDim()
			continue
		}
		k := int(selectivity * float64(len(vals)))
		if k < 1 {
			k = 1
		}
		perm := rng.Perm(len(vals))[:k]
		ids := make([]hierarchy.ID, k)
		for i, p := range perm {
			ids[i] = vals[p]
		}
		hierarchy.SortIDs(ids)
		q[d] = mds.DimSet{Level: level, IDs: ids}
	}
	return q
}

// bruteAgg computes the ground-truth aggregate of a query over records:
// their units folded, the answer made once.
func bruteAgg(t testing.TB, s *cube.Schema, recs []cube.Record, q mds.MDS, measure int) cube.Agg {
	t.Helper()
	var agg cube.Fixed
	for _, r := range recs {
		ok, err := q.ContainsLeaves(s.Space(), r.Coords)
		if err != nil {
			t.Fatalf("ContainsLeaves: %v", err)
		}
		if ok {
			agg.Add(unitsOf(t, s, r, measure))
		}
	}
	return s.Answer(measure, agg)
}

// unitsOf returns record r's measure j in units of its scale.
func unitsOf(t testing.TB, s *cube.Schema, r cube.Record, j int) int64 {
	t.Helper()
	u, err := s.Units(j, r.Measures[j])
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// rangeAgg is the tests' shorthand for a single-measure Execute on the live
// tree with a background context.
func rangeAgg(tree *Tree, q mds.MDS, measure int) (cube.Agg, error) {
	res, err := tree.Execute(context.Background(), QueryRequest{Query: q, Measure: measure})
	return res.Agg, err
}

// aggMatches reports whether two answers are equal, bit for bit: every
// engine folds exact units and makes the float once.
func aggMatches(got, want cube.Agg) bool { return got == want }

func TestEmptyTree(t *testing.T) {
	tree := newTestTree(t, smallConfig())
	if tree.Count() != 0 || tree.Height() != 1 {
		t.Fatalf("empty tree count=%d height=%d", tree.Count(), tree.Height())
	}
	q := mds.Top(tree.Schema().Dims())
	agg, err := rangeAgg(tree, q, 0)
	if err != nil {
		t.Fatalf("RangeAgg: %v", err)
	}
	if !agg.IsEmpty() {
		t.Fatalf("empty tree agg = %+v", agg)
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if !tree.RootMDS().Equal(mds.Top(3)) {
		t.Fatalf("root MDS of empty tree = %v", tree.RootMDS())
	}

	// A few records leave the root a data node, which the query scans.
	for _, r := range genRecords(t, tree.Schema(), rand.New(rand.NewSource(213)), 5) {
		if err := tree.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	if tree.Height() != 1 {
		t.Fatalf("5 records: height %d, want a data-node root", tree.Height())
	}
	if agg, err = rangeAgg(tree, q, 0); err != nil || agg.Count != 5 {
		t.Fatalf("leaf-root query: %+v, %v; want count 5", agg, err)
	}
}

func TestInsertRejectsBadRecords(t *testing.T) {
	tree := newTestTree(t, smallConfig())
	if err := tree.Insert(cube.Record{}); err == nil {
		t.Fatal("empty record accepted")
	}
	if err := tree.Insert(cube.Record{
		Coords:   []hierarchy.ID{hierarchy.MakeID(1, 0), hierarchy.MakeID(0, 0), hierarchy.MakeID(0, 0)},
		Measures: []float64{1},
	}); err == nil {
		t.Fatal("non-leaf coordinate accepted")
	}
}

func TestInsertAndExactQueries(t *testing.T) {
	tree := newTestTree(t, smallConfig())
	s := tree.Schema()
	rng := rand.New(rand.NewSource(1))
	recs := genRecords(t, s, rng, 500)
	for i, r := range recs {
		if err := tree.Insert(r); err != nil {
			t.Fatalf("Insert %d: %v", i, err)
		}
	}
	if tree.Count() != 500 {
		t.Fatalf("Count = %d", tree.Count())
	}
	if tree.Height() < 2 {
		t.Fatalf("height = %d: splits never happened", tree.Height())
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}

	// Whole-cube query equals total.
	want := bruteAgg(t, s, recs, mds.Top(3), 0)
	got, err := rangeAgg(tree, mds.Top(3), 0)
	if err != nil {
		t.Fatalf("RangeAgg: %v", err)
	}
	if !aggMatches(got, want) {
		t.Fatalf("whole-cube agg = %+v, want %+v", got, want)
	}

	// Random queries against brute force, across selectivities and ops.
	for i := 0; i < 300; i++ {
		sel := []float64{0.01, 0.05, 0.25, 0.6}[i%4]
		q := randomQuery(rng, s, sel)
		want := bruteAgg(t, s, recs, q, 0)
		got, err := rangeAgg(tree, q, 0)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if !aggMatches(got, want) {
			t.Fatalf("query %d mismatch:\n q=%v\n got %+v\nwant %+v", i, q, got, want)
		}
		for _, op := range []cube.Op{cube.Sum, cube.Count, cube.Avg, cube.Min, cube.Max} {
			v := got.Value(op)
			w := want.Value(op)
			if math.IsNaN(w) {
				if !math.IsNaN(v) {
					t.Fatalf("op %v = %g, want NaN", op, v)
				}
			} else if v != w {
				t.Fatalf("op %v = %g, want %g", op, v, w)
			}
		}
	}
}

func TestMaterializedHits(t *testing.T) {
	tree := newTestTree(t, smallConfig())
	s := tree.Schema()
	rng := rand.New(rand.NewSource(3))
	recs := genRecords(t, s, rng, 1600)
	for _, r := range recs {
		if err := tree.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	// A whole-cube query must answer from the root's materialized entries
	// without visiting every node.
	res, err := tree.Execute(context.Background(), QueryRequest{Query: mds.Top(3), CollectStats: true})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.MaterializedHits == 0 {
		t.Fatalf("whole-cube query had no materialized hits: %+v", st)
	}
	if st.NodesVisited != 1 {
		t.Fatalf("whole-cube query visited %d nodes, want 1 (root only)", st.NodesVisited)
	}

	// Broad queries must visit far fewer nodes than the tree has.
	levels, err := tree.LevelStats()
	if err != nil {
		t.Fatal(err)
	}
	totalNodes := 0
	for _, l := range levels {
		totalNodes += l.Nodes
	}
	q := randomQuery(rng, s, 0.5)
	res, err = tree.Execute(context.Background(), QueryRequest{Query: q, CollectStats: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.NodesVisited >= totalNodes {
		t.Fatalf("broad query visited all %d nodes", totalNodes)
	}
}

// TestInsertRefusesOverflowingSum: a tree of count records, each at most
// span units in magnitude, keeps count × span below 2^63, so that no sum it
// stores or a query folds leaves int64. 1,024 values of 2^53 − 1 units fit
// the bound; the insert that would break it is refused with
// cube.ErrMeasureValue before any byte changes — whatever its own value,
// since the bound counts records — and the tree answers, validates and
// encodes as it did before. A delete makes room for one more.
func TestInsertRefusesOverflowingSum(t *testing.T) {
	s := cube.MustNewSchema([]*hierarchy.Hierarchy{hierarchy.MustNew("D", "Leaf", "Top")}, "M")
	tree, err := New(storage.NewMemStore(smallConfig().BlockSize), s, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	record := func(i int, x float64) cube.Record {
		r, err := s.InternRecord([][]string{{fmt.Sprintf("T%d", i%3), fmt.Sprintf("v%d", i%50)}}, []float64{x})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	const big = 1<<53 - 1
	for i := range 1024 {
		if err := tree.Insert(record(i, big)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	encodings := func() map[nodeID]string {
		out := map[nodeID]string{}
		for _, n := range collectNodes(t, tree) {
			out[n.ID()] = string(tree.ix.Encode(n))
		}
		return out
	}
	agg, err := rangeAgg(tree, mds.Top(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Count != 1024 || agg.Sum != 1024*big || agg.Max != big {
		t.Fatalf("whole-cube answer %+v, want 1024 values of %d", agg, int64(big))
	}
	before := encodings()
	for _, x := range []float64{big, -big, 1} {
		if err := tree.Insert(record(7, x)); !errors.Is(err, cube.ErrMeasureValue) {
			t.Fatalf("insert of %v past the bound: %v, want cube.ErrMeasureValue", x, err)
		}
	}
	if got, err := rangeAgg(tree, mds.Top(1), 0); err != nil || got != agg || tree.Count() != 1024 {
		t.Fatalf("after the refusals: %d records, answer %+v (%v); want 1024, %+v", tree.Count(), got, err, agg)
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	if after := encodings(); !maps.Equal(after, before) {
		t.Fatal("a refused insert changed the tree's nodes")
	}
	// The bound reads what the tree holds: a record fewer makes room for
	// one more, and no more.
	if err := tree.Delete(record(0, big)); err != nil {
		t.Fatal(err)
	}
	if err := tree.Insert(record(7, 1)); err != nil {
		t.Fatalf("insert into the room a delete made: %v", err)
	}
	if err := tree.Insert(record(8, 1)); !errors.Is(err, cube.ErrMeasureValue) {
		t.Fatalf("insert past the bound again: %v, want cube.ErrMeasureValue", err)
	}
}

func TestQueryValidation(t *testing.T) {
	tree := newTestTree(t, smallConfig())
	if _, err := rangeAgg(tree, mds.Top(2), 0); err == nil {
		t.Fatal("wrong-arity query accepted")
	}
	if _, err := rangeAgg(tree, mds.Top(3), 5); err == nil {
		t.Fatal("bad measure accepted")
	}
	bad := mds.Top(3)
	bad[0] = mds.DimSet{Level: 0, IDs: nil}
	if _, err := rangeAgg(tree, bad, 0); err == nil {
		t.Fatal("empty dim set accepted")
	}
}

func TestSupernodesAppear(t *testing.T) {
	// Skewed data — every record in the same region/brand/year — forces
	// high-level splits to fail and supernodes to appear, the Fig. 13
	// phenomenon.
	cfg := smallConfig()
	tree := newTestTree(t, cfg)
	s := tree.Schema()
	rng := rand.New(rand.NewSource(7))
	var recs []cube.Record
	for i := 0; i < 1800; i++ {
		r, err := s.InternRecord([][]string{
			{"R0", fmt.Sprintf("N%d", rng.Intn(2)), fmt.Sprintf("C%d", rng.Intn(30))},
			{"B0", fmt.Sprintf("P%d", rng.Intn(20))},
			{"Y0", fmt.Sprintf("M%d", rng.Intn(6))},
		}, []float64{1})
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, r)
		if err := tree.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	levels, err := tree.LevelStats()
	if err != nil {
		t.Fatal(err)
	}
	supers := 0
	for _, l := range levels {
		supers += l.Supernodes
	}
	if supers == 0 {
		t.Fatalf("no supernode formed from %d records skewed to one region, brand and year: "+
			"the test's premise, failed high-level splits, does not hold (levels %+v)", len(recs), levels)
	}
	// Queries stay correct in the presence of supernodes.
	for i := 0; i < 50; i++ {
		q := randomQuery(rng, s, 0.3)
		want := bruteAgg(t, s, recs, q, 0)
		got, err := rangeAgg(tree, q, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !aggMatches(got, want) {
			t.Fatalf("query mismatch with supernodes: got %+v want %+v", got, want)
		}
	}
}

func TestDelete(t *testing.T) {
	tree := newTestTree(t, smallConfig())
	s := tree.Schema()
	rng := rand.New(rand.NewSource(9))
	recs := genRecords(t, s, rng, 400)
	for _, r := range recs {
		if err := tree.Insert(r); err != nil {
			t.Fatal(err)
		}
	}

	// Delete a random half, validating along the way.
	perm := rng.Perm(len(recs))
	deleted := make(map[int]bool)
	for i := 0; i < 200; i++ {
		k := perm[i]
		if err := tree.Delete(recs[k]); err != nil {
			t.Fatalf("Delete %d: %v", k, err)
		}
		deleted[k] = true
		if i%50 == 0 {
			if err := tree.Validate(); err != nil {
				t.Fatalf("Validate after %d deletes: %v", i+1, err)
			}
		}
	}
	if tree.Count() != 200 {
		t.Fatalf("Count = %d", tree.Count())
	}
	var live []cube.Record
	for i, r := range recs {
		if !deleted[i] {
			live = append(live, r)
		}
	}
	for i := 0; i < 100; i++ {
		q := randomQuery(rng, s, 0.25)
		want := bruteAgg(t, s, live, q, 0)
		got, err := rangeAgg(tree, q, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !aggMatches(got, want) {
			t.Fatalf("post-delete query mismatch: got %+v want %+v", got, want)
		}
	}

	// Deleting a vanished record fails.
	if err := tree.Delete(recs[perm[0]]); err != ErrNotFound {
		t.Fatalf("re-delete = %v, want ErrNotFound", err)
	}
	// Mismatched measures fail too.
	ghost := live[0].Clone()
	ghost.Measures[0] += 1
	if err := tree.Delete(ghost); err != ErrNotFound {
		t.Fatalf("ghost delete = %v, want ErrNotFound", err)
	}

	// Drain completely.
	for _, r := range live {
		if err := tree.Delete(r); err != nil {
			t.Fatalf("drain: %v", err)
		}
	}
	if tree.Count() != 0 {
		t.Fatalf("drained count = %d", tree.Count())
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("Validate drained: %v", err)
	}
	agg, _ := rangeAgg(tree, mds.Top(3), 0)
	if !agg.IsEmpty() {
		t.Fatalf("drained agg = %+v", agg)
	}
	// The tree remains usable after draining.
	if err := tree.Insert(recs[0]); err != nil {
		t.Fatalf("insert after drain: %v", err)
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("Validate after revival: %v", err)
	}
}

func TestInsertDeleteInterleaved(t *testing.T) {
	tree := newTestTree(t, smallConfig())
	s := tree.Schema()
	rng := rand.New(rand.NewSource(21))
	var live []cube.Record
	for step := 0; step < 1500; step++ {
		if len(live) == 0 || rng.Intn(3) > 0 {
			r := genRecords(t, s, rng, 1)[0]
			if err := tree.Insert(r); err != nil {
				t.Fatalf("step %d insert: %v", step, err)
			}
			live = append(live, r)
		} else {
			k := rng.Intn(len(live))
			if err := tree.Delete(live[k]); err != nil {
				t.Fatalf("step %d delete: %v", step, err)
			}
			live = append(live[:k], live[k+1:]...)
		}
		if step%250 == 249 {
			if err := tree.Validate(); err != nil {
				t.Fatalf("step %d validate: %v", step, err)
			}
			q := randomQuery(rng, s, 0.3)
			want := bruteAgg(t, s, live, q, 0)
			got, err := rangeAgg(tree, q, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !aggMatches(got, want) {
				t.Fatalf("step %d query mismatch: got %+v want %+v", step, got, want)
			}
		}
	}
}

func TestScan(t *testing.T) {
	tree := newTestTree(t, smallConfig())
	s := tree.Schema()
	rng := rand.New(rand.NewSource(13))
	recs := genRecords(t, s, rng, 120)
	var wantSum int64
	for _, r := range recs {
		tree.Insert(r)
		wantSum += unitsOf(t, s, r, 0)
	}
	var gotSum int64
	n := 0
	if err := tree.Scan(func(r cube.Record) bool {
		gotSum += unitsOf(t, s, r, 0)
		n++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if n != 120 || gotSum != wantSum {
		t.Fatalf("scan n=%d sum=%d want %d units", n, gotSum, wantSum)
	}
	// Early stop.
	n = 0
	tree.Scan(func(cube.Record) bool { n++; return n < 10 })
	if n != 10 {
		t.Fatalf("early stop scanned %d", n)
	}
}

func TestAblationsAgreeWithDefault(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	s := testSchema(t)
	recs := genRecords(t, s, rng, 600)

	build := func(mutate func(*Config)) *Tree {
		cfg := smallConfig()
		mutate(&cfg)
		tree, err := New(storage.NewMemStore(cfg.BlockSize), s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if err := tree.Insert(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := tree.Validate(); err != nil {
			t.Fatalf("Validate: %v", err)
		}
		return tree
	}
	base := build(func(*Config) {})
	noSuper := build(func(c *Config) { c.MaxSupernodeBlocks = 1 })

	for i := 0; i < 100; i++ {
		q := randomQuery(rng, s, 0.2)
		want, err := rangeAgg(base, q, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := rangeAgg(noSuper, q, 0)
		if err != nil {
			t.Fatalf("noSupernodes: %v", err)
		}
		if !aggMatches(got, want) {
			t.Fatalf("noSupernodes disagrees: got %+v want %+v", got, want)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	s := testSchema(t)
	bad := []Config{
		{BlockSize: 64},
		{Config: index.Config{RefineBound: -2}},
		{Config: index.Config{MinFillRatio: 0.9}},
		{Config: index.Config{MaxOverlapRatio: 2}},
		{Config: index.Config{MaxSupernodeBlocks: -1}},
	}
	for i, cfg := range bad {
		if _, err := New(storage.NewMemStore(4096), s, cfg); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, cfg)
		}
	}
	// Block size mismatch with store.
	cfg := DefaultConfig()
	cfg.BlockSize = 2048
	if _, err := New(storage.NewMemStore(4096), s, cfg); err == nil {
		t.Error("block size mismatch accepted")
	}
}

func TestPersistenceRoundtrip(t *testing.T) {
	for _, backend := range []string{"mem", "paged"} {
		t.Run(backend, func(t *testing.T) {
			cfg := smallConfig()
			var store storage.Store
			var reopen func() storage.Store
			if backend == "mem" {
				ms := storage.NewMemStore(cfg.BlockSize)
				store = ms
				reopen = func() storage.Store { return ms }
			} else {
				path := filepath.Join(t.TempDir(), "tree.dc")
				ps, err := storage.OpenPagedStore(path, cfg.BlockSize, 0)
				if err != nil {
					t.Fatal(err)
				}
				store = ps
				reopen = func() storage.Store {
					ps.Close()
					ps2, err := storage.OpenPagedStore(path, cfg.BlockSize, 0)
					if err != nil {
						t.Fatal(err)
					}
					return ps2
				}
			}

			s := testSchema(t)
			tree, err := New(store, s, cfg)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(17))
			recs := genRecords(t, s, rng, 700)
			for _, r := range recs {
				if err := tree.Insert(r); err != nil {
					t.Fatal(err)
				}
			}
			if err := tree.Flush(); err != nil {
				t.Fatalf("Flush: %v", err)
			}

			queries := make([]mds.MDS, 60)
			wants := make([]cube.Agg, len(queries))
			for i := range queries {
				queries[i] = randomQuery(rng, s, 0.2)
				w, err := rangeAgg(tree, queries[i], 0)
				if err != nil {
					t.Fatal(err)
				}
				wants[i] = w
			}

			tree2, err := Open(reopen())
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			if tree2.Count() != tree.Count() || tree2.Height() != tree.Height() {
				t.Fatalf("shape after reopen: count %d/%d height %d/%d",
					tree2.Count(), tree.Count(), tree2.Height(), tree.Height())
			}
			if err := tree2.Validate(); err != nil {
				t.Fatalf("Validate reopened: %v", err)
			}
			for i, q := range queries {
				// Queries must be answerable against the reopened tree's
				// own (decoded) dictionaries: re-resolve by value names.
				got, err := rangeAgg(tree2, q, 0)
				if err != nil {
					t.Fatalf("query %d: %v", i, err)
				}
				if !aggMatches(got, wants[i]) {
					t.Fatalf("query %d after reopen: got %+v want %+v", i, got, wants[i])
				}
			}
			// The reopened tree accepts further inserts and deletes.
			extra := genRecordsInto(t, tree2.Schema(), rng, 50)
			for _, r := range extra {
				if err := tree2.Insert(r); err != nil {
					t.Fatal(err)
				}
			}
			if err := tree2.Validate(); err != nil {
				t.Fatalf("Validate after post-reopen inserts: %v", err)
			}
		})
	}
}

// genRecordsInto is genRecords against an existing (possibly reopened)
// schema.
func genRecordsInto(t testing.TB, s *cube.Schema, rng *rand.Rand, n int) []cube.Record {
	t.Helper()
	recs := make([]cube.Record, n)
	for i := range recs {
		r, err := s.InternRecord([][]string{
			{fmt.Sprintf("R%d", rng.Intn(4)), fmt.Sprintf("N%d", rng.Intn(12)), fmt.Sprintf("C%d", rng.Intn(300))},
			{fmt.Sprintf("B%d", rng.Intn(8)), fmt.Sprintf("P%d", rng.Intn(200))},
			{fmt.Sprintf("Y%d", rng.Intn(5)), fmt.Sprintf("M%d", rng.Intn(60))},
		}, []float64{float64(i)})
		if err != nil {
			t.Fatal(err)
		}
		recs[i] = r
	}
	return recs
}

func TestEvictCacheAndRefault(t *testing.T) {
	cfg := smallConfig()
	store := storage.NewMemStore(cfg.BlockSize)
	s := testSchema(t)
	tree, err := New(store, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	recs := genRecords(t, s, rng, 300)
	for _, r := range recs {
		tree.Insert(r)
	}
	want, _ := rangeAgg(tree, mds.Top(3), 0)

	if err := tree.Flush(); err != nil {
		t.Fatal(err)
	}
	tree.EvictCache()
	if tree.CachedNodes() != 0 {
		t.Fatalf("cache not empty after flush+evict: %d", tree.CachedNodes())
	}
	store.ResetStats()
	got, err := rangeAgg(tree, mds.Top(3), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !aggMatches(got, want) {
		t.Fatalf("cold query = %+v want %+v", got, want)
	}
	if store.Stats().Reads == 0 {
		t.Fatal("cold query did not fault nodes from the store")
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLevelStatsShape(t *testing.T) {
	tree := newTestTree(t, smallConfig())
	s := tree.Schema()
	rng := rand.New(rand.NewSource(29))
	for _, r := range genRecords(t, s, rng, 700) {
		tree.Insert(r)
	}
	levels, err := tree.LevelStats()
	if err != nil {
		t.Fatal(err)
	}
	if len(levels) != tree.Height() {
		t.Fatalf("levels = %d, height = %d", len(levels), tree.Height())
	}
	if levels[0].Nodes != 1 {
		t.Fatalf("root level has %d nodes", levels[0].Nodes)
	}
	total := 0
	for i, l := range levels {
		if l.Level != i {
			t.Fatalf("level %d labeled %d", i, l.Level)
		}
		if l.Nodes == 0 {
			t.Fatalf("level %d empty", i)
		}
		if l.AvgEntries <= 0 || l.AvgBlocks < 1 || l.Fill <= 0 || l.Fill > 1 {
			t.Fatalf("level %d stats: %+v", i, l)
		}
		total += l.Nodes
	}
	// Leaf level holds all records.
	leaf := levels[len(levels)-1]
	if int64(leaf.Entries) != tree.Count() {
		t.Fatalf("leaf entries %d != count %d", leaf.Entries, tree.Count())
	}
	// Fill is the encoded bytes over the blocks' payload.
	blocks := leaf.AvgBlocks * float64(leaf.Nodes)
	payload := storage.ExtentCapacity(smallConfig().BlockSize, 1)
	if want := float64(leaf.EncodedBytes) / (blocks * float64(payload)); math.Abs(leaf.Fill-want) > 1e-9 {
		t.Fatalf("leaf fill %v, want %d bytes in %.0f blocks of %d = %v", leaf.Fill, leaf.EncodedBytes, blocks, payload, want)
	}
}

func BenchmarkInsert(b *testing.B) {
	cfg := DefaultConfig()
	s := testSchema(b)
	tree, err := New(storage.NewMemStore(cfg.BlockSize), s, cfg)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	recs := genRecordsInto(b, s, rng, 10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tree.Insert(recs[i%len(recs)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRangeQuery(b *testing.B) {
	cfg := DefaultConfig()
	s := testSchema(b)
	tree, err := New(storage.NewMemStore(cfg.BlockSize), s, cfg)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for _, r := range genRecordsInto(b, s, rng, 20000) {
		tree.Insert(r)
	}
	queries := make([]mds.MDS, 64)
	for i := range queries {
		queries[i] = randomQuery(rng, s, 0.05)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rangeAgg(tree, queries[i%len(queries)], 0); err != nil {
			b.Fatal(err)
		}
	}
}
