package cube

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/dcindex/dctree/internal/hierarchy"
)

func testSchema(t testing.TB) *Schema {
	t.Helper()
	cust := hierarchy.MustNew("Customer", "Customer", "Nation", "Region")
	part := hierarchy.MustNew("Part", "Part", "Brand")
	s, err := NewSchema([]*hierarchy.Hierarchy{cust, part}, "ExtendedPrice", "Quantity")
	if err != nil {
		t.Fatalf("NewSchema: %v", err)
	}
	if s, err = s.WithScales(2, 0); err != nil {
		t.Fatalf("WithScales: %v", err)
	}
	return s
}

// TestUnitsOfEveryTPCDValue: every Extended Price the TPC-D generator can
// draw — quantity 1–50 × a price of 900.00–2100.00, computed as the
// generator computes it — is an exact count of cents, qty × the price in
// cents, though a quarter of them do not round-trip: float64(units) / 100
// is another float. A round-trip test would refuse those.
func TestUnitsOfEveryTPCDValue(t *testing.T) {
	s := testSchema(t)
	roundTrips := 0
	for qty := int64(1); qty <= 50; qty++ {
		for cents := int64(90000); cents <= 210000; cents++ {
			x := float64(qty) * (900 + float64(cents-90000)/100)
			u, err := s.Units(0, x)
			if err != nil || u != qty*cents {
				t.Fatalf("%d × %d cents = %v: %d units (%v), want %d", qty, cents, x, u, err, qty*cents)
			}
			if s.Value(0, u) == x {
				roundTrips++
			}
		}
	}
	if all := 50 * 120001; roundTrips == all || roundTrips < all/2 {
		t.Fatalf("%d of %d values round-trip: the probe does not tell the grid test from a round trip", roundTrips, all)
	}
}

// TestUnitsRefused: NaN, ±Inf, a value off its scale's grid and one of
// 2^53 units or more are refused with ErrMeasureValue, by Units and by
// ValidateRecord; negative values are valid, and −0 is 0 units.
func TestUnitsRefused(t *testing.T) {
	s := testSchema(t) // ExtendedPrice at scale 2, Quantity at scale 0
	for _, c := range []struct {
		j int
		x float64
	}{
		{0, math.NaN()}, {0, math.Inf(1)}, {0, math.Inf(-1)},
		{0, 0.001}, {0, 19.995}, {1, 0.5},
		{1, 1 << 53}, {1, -(1 << 53)}, {0, float64(1<<53) / 100},
	} {
		if u, err := s.Units(c.j, c.x); !errors.Is(err, ErrMeasureValue) {
			t.Errorf("measure %d value %v: %d units, %v; want ErrMeasureValue", c.j, c.x, u, err)
		}
		r, _ := s.InternRecord([][]string{{"Europe", "Germany", "C1"}, {"BrandA", "P1"}}, []float64{0, 0})
		r.Measures[c.j] = c.x
		if err := s.ValidateRecord(r); !errors.Is(err, ErrMeasureValue) {
			t.Errorf("record of measure %d value %v: %v, want ErrMeasureValue", c.j, c.x, err)
		}
	}
	for _, c := range []struct {
		j    int
		x    float64
		want int64
	}{
		{0, -19.99, -1999}, {0, math.Copysign(0, -1), 0}, {0, 0.07, 7},
		{1, 1<<53 - 1, 1<<53 - 1}, {1, -(1<<53 - 1), -(1<<53 - 1)},
	} {
		if u, err := s.Units(c.j, c.x); err != nil || u != c.want {
			t.Errorf("measure %d value %v: %d units, %v; want %d", c.j, c.x, u, err, c.want)
		}
	}
	if _, err := s.WithScales(MaxScale+1, 0); err == nil {
		t.Error("a scale past MaxScale was accepted")
	}
	if _, err := s.WithScales(2); err == nil {
		t.Error("one scale for two measures was accepted")
	}
}

// TestScaleOf: the smallest scale at which a value is on the grid; a float
// printed with rounding noise counts at the scale it stands for.
func TestScaleOf(t *testing.T) {
	for _, c := range []struct {
		x    float64
		want int
	}{
		{12, 0}, {12.5, 1}, {3.25, 2}, {3703.6800000000003, 2}, {1e-5, 5},
		{1.0 / 3, -1}, {math.NaN(), -1}, {math.Inf(1), -1},
	} {
		if got := ScaleOf(c.x); got != c.want {
			t.Errorf("ScaleOf(%v) = %d, want %d", c.x, got, c.want)
		}
	}
}

func TestSchemaShape(t *testing.T) {
	s := testSchema(t)
	if s.Dims() != 2 || s.Measures() != 2 {
		t.Fatalf("shape = %d dims, %d measures", s.Dims(), s.Measures())
	}
	if _, err := NewSchema(nil, "m"); err == nil {
		t.Error("schema without dimensions should fail")
	}
	if _, err := NewSchema([]*hierarchy.Hierarchy{hierarchy.MustNew("D", "L")}); err == nil {
		t.Error("schema without measures should fail")
	}
	h, err := s.Dim(0)
	if err != nil || h.Name() != "Customer" {
		t.Errorf("Dim(0) = %v, %v", h, err)
	}
	if _, err := s.Dim(5); err == nil {
		t.Error("Dim(5) should fail")
	}
	if i, err := s.DimIndex("Part"); err != nil || i != 1 {
		t.Errorf("DimIndex(Part) = %d, %v", i, err)
	}
	if _, err := s.DimIndex("Nope"); err == nil {
		t.Error("DimIndex(Nope) should fail")
	}
	if n, err := s.MeasureName(1); err != nil || n != "Quantity" {
		t.Errorf("MeasureName(1) = %q, %v", n, err)
	}
	if _, err := s.MeasureName(9); err == nil {
		t.Error("MeasureName(9) should fail")
	}
	if j, err := s.MeasureIndex("ExtendedPrice"); err != nil || j != 0 {
		t.Errorf("MeasureIndex = %d, %v", j, err)
	}
	if _, err := s.MeasureIndex("Nope"); err == nil {
		t.Error("MeasureIndex(Nope) should fail")
	}
	if len(s.Space()) != 2 {
		t.Errorf("Space len = %d", len(s.Space()))
	}
}

func TestInternAndValidateRecord(t *testing.T) {
	s := testSchema(t)
	r, err := s.InternRecord(
		[][]string{{"Europe", "Germany", "C1"}, {"BrandA", "P1"}},
		[]float64{19.99, 3},
	)
	if err != nil {
		t.Fatalf("InternRecord: %v", err)
	}
	if err := s.ValidateRecord(r); err != nil {
		t.Errorf("ValidateRecord: %v", err)
	}
	// Re-interning the same paths yields identical coordinates.
	r2, _ := s.InternRecord(
		[][]string{{"Europe", "Germany", "C1"}, {"BrandA", "P1"}},
		[]float64{5, 1},
	)
	if r.Coords[0] != r2.Coords[0] || r.Coords[1] != r2.Coords[1] {
		t.Error("re-interning changed coordinates")
	}

	if _, err := s.InternRecord([][]string{{"Europe", "Germany", "C1"}}, []float64{1, 2}); err == nil {
		t.Error("wrong path arity should fail")
	}
	if _, err := s.InternRecord(
		[][]string{{"Europe", "Germany", "C1"}, {"BrandA", "P1"}}, []float64{1}); err == nil {
		t.Error("wrong measure arity should fail")
	}
	if _, err := s.InternRecord(
		[][]string{{"Europe", "C1"}, {"BrandA", "P1"}}, []float64{1, 2}); err == nil {
		t.Error("short dimension path should fail")
	}

	bad := r.Clone()
	bad.Coords[0] = hierarchy.MakeID(1, 0) // nation-level, not leaf
	if err := s.ValidateRecord(bad); err == nil {
		t.Error("non-leaf coordinate should fail validation")
	}
	bad2 := r.Clone()
	bad2.Coords[1] = hierarchy.MakeID(0, 4040) // unregistered leaf
	if err := s.ValidateRecord(bad2); err == nil {
		t.Error("unregistered coordinate should fail validation")
	}
	if err := s.ValidateRecord(Record{}); err == nil {
		t.Error("empty record should fail validation")
	}
}

func TestRecordClone(t *testing.T) {
	s := testSchema(t)
	r, _ := s.InternRecord([][]string{{"Europe", "Germany", "C1"}, {"BrandA", "P1"}}, []float64{1, 2})
	c := r.Clone()
	c.Coords[0] = hierarchy.MakeID(2, 12345)
	c.Measures[0] = 99
	if r.Coords[0] == c.Coords[0] || r.Measures[0] == 99 {
		t.Error("Clone shares backing arrays")
	}
}

func TestOpStringParse(t *testing.T) {
	for _, op := range []Op{Sum, Count, Avg, Min, Max} {
		got, err := ParseOp(op.String())
		if err != nil || got != op {
			t.Errorf("ParseOp(%s) = %v, %v", op, got, err)
		}
	}
	if _, err := ParseOp("MEDIAN"); err == nil {
		t.Error("ParseOp(MEDIAN) should fail")
	}
	if Op(42).String() == "" {
		t.Error("unknown op must still render")
	}
}

func TestAggBasics(t *testing.T) {
	var a Agg
	if a.Value(Sum) != 0 || a.Value(Count) != 0 {
		t.Error("empty SUM/COUNT must be 0")
	}
	if !math.IsNaN(a.Value(Avg)) {
		t.Error("empty AVG must be NaN")
	}
	if !math.IsInf(a.Value(Min), 1) || !math.IsInf(a.Value(Max), -1) {
		t.Error("empty MIN/MAX must be ±Inf")
	}
	if !math.IsNaN(a.Value(Op(77))) {
		t.Error("unknown op must be NaN")
	}

	// The units 10, −5 and 7 answered at scale 0 and at scale 2.
	var f Fixed
	f.Add(10)
	f.Add(-5)
	f.Add(7)
	s := testSchema(t)
	if a := s.Answer(1, f); a.Value(Sum) != 12 || a.Value(Count) != 3 || a.Value(Min) != -5 || a.Value(Max) != 10 || a.Value(Avg) != 4 {
		t.Errorf("agg at scale 0 = %+v", a)
	}
	if a := s.Answer(0, f); a.Value(Sum) != 0.12 || a.Value(Min) != -0.05 || a.Value(Max) != 0.1 {
		t.Errorf("agg at scale 2 = %+v", a)
	}
}

// TestAggMergeMatchesAdd: a fold of units split anywhere and merged is the
// fold of them all, exactly, in every field.
func TestAggMergeMatchesAdd(t *testing.T) {
	f := func(xs []int64, split uint8) bool {
		for i := range xs {
			xs[i] %= 1 << 40 // no sum of 256 of them leaves int64
		}
		var whole Fixed
		for _, x := range xs {
			whole.Add(x)
		}
		k := 0
		if len(xs) > 0 {
			k = int(split) % (len(xs) + 1)
		}
		var left, right Fixed
		for _, x := range xs[:k] {
			left.Add(x)
		}
		for _, x := range xs[k:] {
			right.Add(x)
		}
		left.Merge(right)
		return left == whole
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestAggMergeEmptyIdentity(t *testing.T) {
	a := FixedOf(3)
	a.Add(9)
	before := a
	a.Merge(Fixed{})
	if a != before {
		t.Error("merging the empty aggregate must be identity")
	}
	var e Fixed
	e.Merge(before)
	if e != before {
		t.Error("merging into empty must copy")
	}
	if x := AggOf(3); func() Agg { x.Merge(Agg{}); return x }() != AggOf(3) {
		t.Error("merging the empty answer must be identity")
	}
}

// TestAggVector: an all-measures answer takes each measure's units at its
// own scale.
func TestAggVector(t *testing.T) {
	s := testSchema(t)
	folds := make([]Fixed, 2)
	for _, r := range [][2]int64{{1, 10}, {2, 20}, {3, 30}} {
		for j, u := range r {
			folds[j].Add(u)
		}
	}
	v := NewAggVector(len(folds))
	for j, f := range folds {
		v[j] = s.Answer(j, f)
	}
	if v[0].Value(Sum) != 0.06 || v[1].Value(Sum) != 60 || v[0].Value(Count) != 3 {
		t.Errorf("vector = %+v", v)
	}
}

// TestAggRandomizedMergeTree: folds of units merged in a random binary-tree
// order equal the sequential fold, exactly.
func TestAggRandomizedMergeTree(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	xs := make([]int64, 500)
	var want Fixed
	for i := range xs {
		xs[i] = rng.Int63n(1<<30) - 1<<29
		want.Add(xs[i])
	}
	aggs := make([]Fixed, len(xs))
	for i, x := range xs {
		aggs[i] = FixedOf(x)
	}
	for len(aggs) > 1 {
		i := rng.Intn(len(aggs) - 1)
		aggs[i].Merge(aggs[i+1])
		aggs = append(aggs[:i+1], aggs[i+2:]...)
	}
	if got := aggs[0]; got != want {
		t.Fatalf("tree merge = %+v, want %+v", got, want)
	}
}
