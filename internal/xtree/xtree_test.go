package xtree

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/dcindex/dctree/internal/cube"
)

func smallConfig() Config {
	return Config{
		DirCapacity:        6,
		LeafCapacity:       8,
		MinFillRatio:       0.35,
		MaxOverlapRatio:    0.20,
		MaxSupernodeBlocks: 8,
	}
}

func randPoint(rng *rand.Rand, dims int, span uint32) Point {
	p := make(Point, dims)
	for d := range p {
		p[d] = rng.Uint32() % span
	}
	return p
}

func TestRectOps(t *testing.T) {
	r := Rect{Lo: []uint32{1, 2}, Hi: []uint32{4, 6}}
	if err := r.Validate(2); err != nil {
		t.Fatal(err)
	}
	if r.Area() != 20 {
		t.Errorf("Area = %g", r.Area())
	}
	if r.Margin() != 7 {
		t.Errorf("Margin = %g", r.Margin())
	}
	if !r.ContainsPoint(Point{1, 2}) || !r.ContainsPoint(Point{4, 6}) {
		t.Error("closed bounds must be inside")
	}
	if r.ContainsPoint(Point{0, 2}) || r.ContainsPoint(Point{5, 6}) {
		t.Error("outside points reported inside")
	}
	s := Rect{Lo: []uint32{4, 5}, Hi: []uint32{9, 9}}
	if !r.Intersects(s) || !s.Intersects(r) {
		t.Error("touching rectangles must intersect")
	}
	if got := r.OverlapArea(s); got != 2 { // [4,4]×[5,6]
		t.Errorf("OverlapArea = %g", got)
	}
	u := Union(r, s)
	if u.Lo[0] != 1 || u.Hi[1] != 9 {
		t.Errorf("Union = %+v", u)
	}
	if !u.ContainsRect(r) || !u.ContainsRect(s) {
		t.Error("union must contain both")
	}
	far := Rect{Lo: []uint32{100, 100}, Hi: []uint32{101, 101}}
	if r.Intersects(far) || r.OverlapArea(far) != 0 {
		t.Error("disjoint rectangles must not overlap")
	}
	bad := Rect{Lo: []uint32{5, 1}, Hi: []uint32{4, 2}}
	if err := bad.Validate(2); err == nil {
		t.Error("inverted rect accepted")
	}
	if err := r.Validate(3); err == nil {
		t.Error("wrong dims accepted")
	}
	p := RectOf(Point{7, 8})
	if p.Area() != 1 || p.Margin() != 0 {
		t.Errorf("point rect area=%g margin=%g", p.Area(), p.Margin())
	}
}

func TestRectLawsQuick(t *testing.T) {
	mk := func(a, b, c, d uint32) Rect {
		r := Rect{Lo: []uint32{a % 1000, b % 1000}, Hi: []uint32{a%1000 + c%100, b%1000 + d%100}}
		return r
	}
	f := func(a1, b1, c1, d1, a2, b2, c2, d2 uint32) bool {
		r, s := mk(a1, b1, c1, d1), mk(a2, b2, c2, d2)
		u := Union(r, s)
		if !u.ContainsRect(r) || !u.ContainsRect(s) {
			return false
		}
		if r.OverlapArea(s) != s.OverlapArea(r) {
			return false
		}
		if (r.OverlapArea(s) > 0) != r.Intersects(s) {
			return false
		}
		return u.Area() >= r.Area() && u.Area() >= s.Area()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestInsertAndQueryAgainstBruteForce(t *testing.T) {
	const dims = 5
	tree, err := New(dims, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	type rec struct {
		p Point
		m int64
	}
	var recs []rec
	for i := 0; i < 2000; i++ {
		p := randPoint(rng, dims, 200)
		m := rng.Int63n(1000)
		recs = append(recs, rec{p, m})
		if err := tree.Insert(p, m); err != nil {
			t.Fatal(err)
		}
	}
	if tree.Count() != 2000 {
		t.Fatalf("Count = %d", tree.Count())
	}
	if tree.Height() < 2 {
		t.Fatal("no splits happened")
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}

	for i := 0; i < 200; i++ {
		lo := randPoint(rng, dims, 150)
		q := Rect{Lo: lo, Hi: make([]uint32, dims)}
		for d := range lo {
			q.Hi[d] = lo[d] + uint32(rng.Intn(80))
		}
		var want cube.Fixed
		for _, r := range recs {
			if q.ContainsPoint(r.p) {
				want.Add(r.m)
			}
		}
		got, _, err := tree.RangeQuery(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("query %d: got %+v want %+v", i, got, want)
		}
	}

	// Filtered queries re-check exact membership.
	q := Rect{Lo: make([]uint32, dims), Hi: make([]uint32, dims)}
	for d := range q.Hi {
		q.Hi[d] = 200
	}
	even := func(p Point) bool { return p[0]%2 == 0 }
	var want cube.Fixed
	for _, r := range recs {
		if even(r.p) {
			want.Add(r.m)
		}
	}
	got, st, err := tree.RangeQuery(q, even)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("filtered: got %+v want %+v", got, want)
	}
	if st.NodesVisited == 0 || st.PointsMatched != int(want.Count) {
		t.Fatalf("stats: %+v", st)
	}
}

func TestQueryValidation(t *testing.T) {
	tree, _ := New(3, smallConfig())
	if _, _, err := tree.RangeQuery(Rect{Lo: []uint32{0}, Hi: []uint32{1}}, nil); err == nil {
		t.Fatal("wrong-dims query accepted")
	}
	if err := tree.Insert(Point{1, 2}, 1); err == nil {
		t.Fatal("wrong-dims point accepted")
	}
}

func TestSupernodesUnderDuplicates(t *testing.T) {
	// Identical points cannot be partitioned with low overlap: supernodes
	// (or the capped forced split) must absorb them without losing data.
	tree, err := New(4, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	p := Point{5, 5, 5, 5}
	for i := 0; i < 300; i++ {
		if err := tree.Insert(p, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	q := Rect{Lo: []uint32{5, 5, 5, 5}, Hi: []uint32{5, 5, 5, 5}}
	agg, _, err := tree.RangeQuery(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Count != 300 || agg.Sum != 300 {
		t.Fatalf("agg = %+v", agg)
	}
	if tree.SupernodeCount() == 0 {
		t.Log("note: duplicates handled without supernodes (forced splits)")
	}
}

func TestClusteredDataUsesOverlapMinimalSplit(t *testing.T) {
	// Two well-separated clusters in dimension 0: overlap-minimal splits
	// along that dimension must keep directory overlap at zero.
	tree, err := New(6, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 1000; i++ {
		p := randPoint(rng, 6, 50)
		if i%2 == 0 {
			p[0] += 10000
		}
		if err := tree.Insert(p, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	// A query inside one cluster must not visit the other cluster's
	// subtree: node visits should be well under the total.
	q := Rect{Lo: []uint32{10000, 0, 0, 0, 0, 0}, Hi: []uint32{10050, 50, 50, 50, 50, 50}}
	_, st, _ := tree.RangeQuery(q, nil)
	if st.NodesVisited >= tree.NodeCount() {
		t.Fatalf("cluster query visited all %d nodes", tree.NodeCount())
	}
}

func TestLevelStats(t *testing.T) {
	tree, _ := New(3, smallConfig())
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 500; i++ {
		tree.Insert(randPoint(rng, 3, 100), 1)
	}
	levels := tree.LevelStats()
	if len(levels) != tree.Height() {
		t.Fatalf("levels %d != height %d", len(levels), tree.Height())
	}
	if levels[0].Nodes != 1 {
		t.Fatalf("root level nodes = %d", levels[0].Nodes)
	}
	leaf := levels[len(levels)-1]
	if int64(leaf.Entries) != tree.Count() {
		t.Fatalf("leaf entries %d != count %d", leaf.Entries, tree.Count())
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(0, DefaultConfig()); err == nil {
		t.Error("zero dims accepted")
	}
	if _, err := New(2, Config{DirCapacity: 1, LeafCapacity: 8}); err == nil {
		t.Error("tiny dir capacity accepted")
	}
	if _, err := New(2, Config{MinFillRatio: 0.9}); err == nil {
		t.Error("bad fill ratio accepted")
	}
	if _, err := New(2, Config{MaxOverlapRatio: 3}); err == nil {
		t.Error("bad overlap ratio accepted")
	}
}

func BenchmarkInsert(b *testing.B) {
	tree, _ := New(13, DefaultConfig())
	rng := rand.New(rand.NewSource(1))
	pts := make([]Point, 10000)
	for i := range pts {
		pts[i] = randPoint(rng, 13, 1000)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Insert(pts[i%len(pts)], 1)
	}
}

func BenchmarkRangeQuery(b *testing.B) {
	tree, _ := New(13, DefaultConfig())
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 20000; i++ {
		tree.Insert(randPoint(rng, 13, 1000), 1)
	}
	queries := make([]Rect, 64)
	for i := range queries {
		lo := randPoint(rng, 13, 900)
		hi := make([]uint32, 13)
		for d := range hi {
			hi[d] = lo[d] + 100
		}
		queries[i] = Rect{Lo: lo, Hi: hi}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.RangeQuery(queries[i%len(queries)], nil)
	}
}
