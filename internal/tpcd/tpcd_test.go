package tpcd

import (
	"context"
	"slices"
	"testing"

	"github.com/dcindex/dctree/internal/core"
	"github.com/dcindex/dctree/internal/cube"
	"github.com/dcindex/dctree/internal/hierarchy"
	"github.com/dcindex/dctree/internal/mds"
	"github.com/dcindex/dctree/internal/seqscan"
	"github.com/dcindex/dctree/internal/storage"
	"github.com/dcindex/dctree/internal/xtree"
)

func smallScale() Scale {
	return Scale{
		Regions:           5,
		NationsPerRegion:  5,
		SegmentsPerNation: 5,
		Customers:         400,
		Suppliers:         60,
		Brands:            10,
		TypesPerBrand:     4,
		Parts:             500,
		Years:             3,
		DaysPerMonth:      10,
	}
}

func TestGeneratorShape(t *testing.T) {
	g, err := New(1, smallScale())
	if err != nil {
		t.Fatal(err)
	}
	s := g.Schema()
	if s.Dims() != 4 || s.Measures() != 1 {
		t.Fatalf("schema shape %d/%d", s.Dims(), s.Measures())
	}
	if g.XDims() != 13 {
		t.Fatalf("XDims = %d, want 13 (Fig. 10)", g.XDims())
	}
	// Dimension cardinalities follow the scale.
	cust, _ := s.Dim(DimCustomer)
	if n, _ := cust.CountAt(0); n != 400 {
		t.Fatalf("customers = %d", n)
	}
	if n, _ := cust.CountAt(2); n > 25 {
		t.Fatalf("nations = %d, want ≤ 25", n)
	}
	if n, _ := cust.CountAt(3); n > 5 {
		t.Fatalf("regions = %d, want ≤ 5", n)
	}
	tim, _ := s.Dim(DimTime)
	if n, _ := tim.CountAt(0); n != 3*12*10 {
		t.Fatalf("days = %d", n)
	}
	if n, _ := tim.CountAt(2); n != 3 {
		t.Fatalf("years = %d", n)
	}
	for d := 0; d < 4; d++ {
		h, _ := s.Dim(d)
		if err := h.Validate(); err != nil {
			t.Fatalf("dim %d: %v", d, err)
		}
	}
	// Records validate and have TPC-D-like prices.
	for _, r := range g.Records(200) {
		if err := s.ValidateRecord(r); err != nil {
			t.Fatalf("record: %v", err)
		}
		p := r.Measures[0]
		if p < 900 || p > 50*2100 {
			t.Fatalf("price %g outside TPC-D envelope", p)
		}
	}
	// Determinism: same seed, same stream.
	g2, _ := New(1, smallScale())
	a, b := g.Records(5), g2.Records(5)
	// g drew 200 records above; redraw from fresh generators instead.
	g3, _ := New(99, smallScale())
	g4, _ := New(99, smallScale())
	a, b = g3.Records(5), g4.Records(5)
	for i := range a {
		for d := range a[i].Coords {
			if a[i].Coords[d] != b[i].Coords[d] {
				t.Fatalf("generator not deterministic at record %d dim %d", i, d)
			}
		}
		if a[i].Measures[0] != b[i].Measures[0] {
			t.Fatalf("measures differ at %d", i)
		}
	}
	if _, err := New(1, Scale{}); err == nil {
		t.Fatal("zero scale accepted")
	}
}

func TestXPointMapping(t *testing.T) {
	g, err := New(2, smallScale())
	if err != nil {
		t.Fatal(err)
	}
	space := g.Schema().Space()
	for _, r := range g.Records(100) {
		p, err := g.XPoint(r)
		if err != nil {
			t.Fatal(err)
		}
		if len(p) != 13 {
			t.Fatalf("point dims = %d", len(p))
		}
		// Spot-check: customer leaf code is dim 3 of the point, customer
		// region code is dim 0.
		if p[3] != r.Coords[DimCustomer].Code() {
			t.Fatalf("custkey code mismatch")
		}
		reg, _ := space[DimCustomer].AncestorAt(r.Coords[DimCustomer], 3)
		if p[0] != reg.Code() {
			t.Fatalf("region code mismatch")
		}
	}
}

func TestQueryGeneratorSelectivity(t *testing.T) {
	g, err := New(3, smallScale())
	if err != nil {
		t.Fatal(err)
	}
	qg := g.Queries(7)
	space := g.Schema().Space()
	for i := 0; i < 100; i++ {
		q, err := qg.Query(0.25)
		if err != nil {
			t.Fatal(err)
		}
		if err := q.MDS.Validate(space); err != nil {
			t.Fatalf("query MDS invalid: %v", err)
		}
		for d, ds := range q.MDS {
			total, _ := space[d].CountAt(ds.Level)
			bound := int(0.25 * float64(total))
			if bound < 1 {
				bound = 1
			}
			if len(ds.IDs) > bound {
				t.Fatalf("dim %d: %d values exceeds 25%% of %d", d, len(ds.IDs), total)
			}
		}
		if err := q.Rect.Validate(13); err != nil {
			t.Fatalf("query rect invalid: %v", err)
		}
	}
	if _, err := qg.Query(0); err == nil {
		t.Fatal("selectivity 0 accepted")
	}
	if _, err := qg.Query(1.5); err == nil {
		t.Fatal("selectivity > 1 accepted")
	}
}

// TestThreeSystemsAgree is the repo's strongest oracle: the DC-tree, the
// X-tree (via range_mbr + exact filter) and the sequential scan must
// return identical aggregates for every generated query.
func TestThreeSystemsAgree(t *testing.T) {
	g, err := New(5, smallScale())
	if err != nil {
		t.Fatal(err)
	}
	recs := g.Records(3000)

	// DC-tree, on 1 KiB blocks: data nodes of the few dozen rows, and
	// directories of the few entries, their bytes fit.
	cfg := core.DefaultConfig()
	cfg.BlockSize = 1024
	dc, err := core.New(storage.NewMemStore(cfg.BlockSize), g.Schema(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// X-tree.
	xcfg := xtree.DefaultConfig()
	xcfg.DirCapacity = 8
	xcfg.LeafCapacity = 12
	xt, err := xtree.New(g.XDims(), xcfg)
	if err != nil {
		t.Fatal(err)
	}
	// Sequential scan.
	scan := seqscan.New(g.Schema())

	for _, r := range recs {
		if err := dc.Insert(r); err != nil {
			t.Fatal(err)
		}
		p, err := g.XPoint(r)
		if err != nil {
			t.Fatal(err)
		}
		u, err := g.Schema().Units(0, r.Measures[0])
		if err != nil {
			t.Fatal(err)
		}
		if err := xt.Insert(p, u); err != nil {
			t.Fatal(err)
		}
		if err := scan.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := dc.Validate(); err != nil {
		t.Fatalf("dc validate: %v", err)
	}
	if err := xt.Validate(); err != nil {
		t.Fatalf("xtree validate: %v", err)
	}

	qg := g.Queries(11)
	for i := 0; i < 200; i++ {
		sel := []float64{0.01, 0.05, 0.25}[i%3]
		q, err := qg.Query(sel)
		if err != nil {
			t.Fatal(err)
		}
		want, err := scan.RangeAgg(q.MDS, 0)
		if err != nil {
			t.Fatal(err)
		}
		resDC, err := dc.Execute(context.Background(), core.QueryRequest{Query: q.MDS})
		gotDC := resDC.Agg
		if err != nil {
			t.Fatal(err)
		}
		gotX, _, err := xt.RangeQuery(q.Rect, q.Filter)
		if err != nil {
			t.Fatal(err)
		}
		if gotDC != want {
			t.Fatalf("query %d (sel %g): dc %+v != scan %+v", i, sel, gotDC, want)
		}
		if x := g.Schema().Answer(0, gotX); x != want {
			t.Fatalf("query %d (sel %g): xtree %+v != scan %+v", i, sel, x, want)
		}
	}
}

func TestToXQueryUnconstrainedDims(t *testing.T) {
	g, err := New(9, smallScale())
	if err != nil {
		t.Fatal(err)
	}
	// A query of ALL in every dimension constrains nothing: the rect must
	// cover every registered code and the filter must accept everything.
	q := mds.Top(4)
	rect, filter, err := g.ToXQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range g.Records(50) {
		p, _ := g.XPoint(r)
		if !rect.ContainsPoint(p) {
			t.Fatalf("ALL-rect misses point %v", p)
		}
		if !filter(p) {
			t.Fatal("ALL-filter rejected a point")
		}
	}
	if _, _, err := g.ToXQuery(mds.Top(2)); err == nil {
		t.Fatal("wrong arity accepted")
	}
	// Single-value constraint at region level.
	cust, _ := g.Schema().Dim(DimCustomer)
	regions, _ := cust.ValuesAt(3)
	q2 := mds.Top(4)
	q2[DimCustomer] = mds.DimSet{Level: 3, IDs: []hierarchy.ID{regions[0]}}
	rect2, filter2, err := g.ToXQuery(q2)
	if err != nil {
		t.Fatal(err)
	}
	if rect2.Lo[0] != regions[0].Code() || rect2.Hi[0] != regions[0].Code() {
		t.Fatalf("region constraint not reflected: %v", rect2)
	}
	match, miss := 0, 0
	for _, r := range g.Records(200) {
		p, _ := g.XPoint(r)
		ok, _ := q2.ContainsLeaves(g.Schema().Space(), r.Coords)
		if (rect2.ContainsPoint(p) && filter2(p)) != ok {
			t.Fatalf("X query disagrees with MDS membership for %v", r.Coords)
		}
		if ok {
			match++
		} else {
			miss++
		}
	}
	if match == 0 || miss == 0 {
		t.Fatalf("degenerate test data: match=%d miss=%d", match, miss)
	}
}

func TestRollupQueries(t *testing.T) {
	g, err := New(17, smallScale())
	if err != nil {
		t.Fatal(err)
	}
	recs := g.Records(1500)
	scan := seqscan.New(g.Schema())
	for _, r := range recs {
		scan.Insert(r)
	}
	xt, err := xtree.New(g.XDims(), xtree.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		p, _ := g.XPoint(r)
		u, _ := g.Schema().Units(0, r.Measures[0])
		xt.Insert(p, u)
	}

	qg := g.Queries(23)
	space := g.Schema().Space()
	for i := 0; i < 60; i++ {
		q, err := qg.Rollup(1 + i%2)
		if err != nil {
			t.Fatal(err)
		}
		if err := q.MDS.Validate(space); err != nil {
			t.Fatalf("rollup MDS invalid: %v", err)
		}
		// Exactly `dims` dimensions constrained, at coarse levels.
		constrained := 0
		for d, ds := range q.MDS {
			if ds.Level == hierarchy.LevelALL {
				continue
			}
			constrained++
			if ds.Level < space[d].TopLevel()-1 {
				t.Fatalf("rollup constrained dim %d at fine level %d", d, ds.Level)
			}
			if len(ds.IDs) > 2 {
				t.Fatalf("rollup dim %d has %d values", d, len(ds.IDs))
			}
		}
		if want := 1 + i%2; constrained != want {
			t.Fatalf("rollup constrained %d dims, want %d", constrained, want)
		}
		// Cross-system agreement.
		want, err := scan.RangeAgg(q.MDS, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := xt.RangeQuery(q.Rect, q.Filter)
		if err != nil {
			t.Fatal(err)
		}
		if x := g.Schema().Answer(0, got); x != want {
			t.Fatalf("rollup %d: xtree %+v != scan %+v", i, x, want)
		}
	}
	if _, err := qg.Rollup(0); err == nil {
		t.Fatal("Rollup(0) accepted")
	}
	if _, err := qg.Rollup(9); err == nil {
		t.Fatal("Rollup(9) accepted")
	}
}

func TestScaleFor(t *testing.T) {
	small := ScaleFor(1000)
	if small.Customers != 1000 || small.Suppliers != 100 || small.Parts != 1500 {
		t.Fatalf("floors not applied: %+v", small)
	}
	mid := ScaleFor(300000)
	if mid.Customers != 7500 || mid.Suppliers != 500 || mid.Parts != 10000 {
		t.Fatalf("mid scale: %+v", mid)
	}
	huge := ScaleFor(100000000)
	if huge.Customers != 150000 || huge.Suppliers != 10000 || huge.Parts != 200000 {
		t.Fatalf("caps not applied: %+v", huge)
	}
	if huge.Regions != 5 || huge.Brands != 25 {
		t.Fatalf("fixed tables must not scale: %+v", huge)
	}
}

func TestSeqScanStore(t *testing.T) {
	g, err := New(13, smallScale())
	if err != nil {
		t.Fatal(err)
	}
	scan := seqscan.New(g.Schema())
	recs := g.Records(100)
	var units int64 // the exact sum, in cents
	for _, r := range recs {
		if err := scan.Insert(r); err != nil {
			t.Fatal(err)
		}
		u, err := g.Schema().Units(0, r.Measures[0])
		if err != nil {
			t.Fatal(err)
		}
		units += u
	}
	if scan.Count() != 100 {
		t.Fatalf("count = %d", scan.Count())
	}
	got, err := scan.RangeQuery(mds.Top(4), cube.Sum, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := g.Schema().Value(0, units); got != want {
		t.Fatalf("sum = %g want %g", got, want)
	}
	if scan.RecordsScanned != 100 {
		t.Fatalf("RecordsScanned = %d", scan.RecordsScanned)
	}
	if _, err := scan.RangeQuery(mds.Top(4), cube.Sum, 3); err == nil {
		t.Fatal("bad measure accepted")
	}
	if _, err := scan.RangeQuery(mds.Top(2), cube.Sum, 0); err == nil {
		t.Fatal("bad arity accepted")
	}
	// Delete semantics.
	if err := scan.Delete(recs[0]); err != nil {
		t.Fatal(err)
	}
	if scan.Count() != 99 {
		t.Fatalf("count after delete = %d", scan.Count())
	}
	if err := scan.Delete(recs[0]); err != seqscan.ErrNotFound {
		t.Fatalf("re-delete = %v", err)
	}
	bad := recs[1].Clone()
	bad.Coords[0] = hierarchy.MakeID(1, 0)
	if err := scan.Insert(bad); err == nil {
		t.Fatal("invalid record accepted")
	}
}

// TestWindow checks the rolling window's stream: both arrival orders draw
// the same records, time order is sorted by day and keeps generation order
// within a day, and each step inserts the record after the live ones and
// deletes the first of them.
func TestWindow(t *testing.T) {
	const size, steps = 300, 200
	windows := map[Arrival]*Window{}
	for _, a := range []Arrival{Random, TimeOrdered} {
		g, err := New(3, smallScale())
		if err != nil {
			t.Fatal(err)
		}
		w := g.Window(size, steps, a)
		if len(w.Build()) != size || w.Steps() != steps {
			t.Fatalf("%v: a build of %d records and %d steps, want %d and %d", a, len(w.Build()), w.Steps(), size, steps)
		}
		for i := 0; i < steps; i++ {
			newest, oldest := w.Step(i)
			live := w.Live(i)
			if len(live) != size || !sameRecord(live[size-1], newest) || !sameRecord(w.Live(i - 1)[0], oldest) {
				t.Fatalf("%v step %d: inserts %v and deletes %v; live before %v…, after …%v",
					a, i, newest.Coords, oldest.Coords, w.Live(i - 1)[0].Coords, live[size-1].Coords)
			}
		}
		windows[a] = w
	}
	rnd, ord := windows[Random].Records, windows[TimeOrdered].Records
	next := map[uint32]int{} // per day, the next random-order record it must hold
	for i, r := range ord {
		day := r.Coords[DimTime].Code()
		if i > 0 && day < ord[i-1].Coords[DimTime].Code() {
			t.Fatalf("time order: record %d has day %d after day %d", i, day, ord[i-1].Coords[DimTime].Code())
		}
		k := next[day]
		for k < len(rnd) && rnd[k].Coords[DimTime].Code() != day {
			k++
		}
		if k == len(rnd) || !sameRecord(rnd[k], r) {
			t.Fatalf("time order: record %d is not the next of day %d in generation order", i, day)
		}
		next[day] = k + 1
	}
}

func sameRecord(a, b cube.Record) bool {
	return slices.Equal(a.Coords, b.Coords) && slices.Equal(a.Measures, b.Measures)
}
