package cube

import (
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
	return s
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
	if !a.IsEmpty() {
		t.Error("zero Agg must be empty")
	}
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

	a.Add(10)
	a.Add(-5)
	a.Add(7)
	if a.Value(Sum) != 12 || a.Value(Count) != 3 || a.Value(Min) != -5 || a.Value(Max) != 10 {
		t.Errorf("agg = %+v", a)
	}
	if a.Value(Avg) != 4 {
		t.Errorf("avg = %g", a.Value(Avg))
	}
}

func TestAggMergeMatchesAdd(t *testing.T) {
	f := func(xs []float64, split uint8) bool {
		for i, x := range xs {
			// Keep inputs finite and small enough that no intermediate
			// sum can overflow regardless of association order.
			if math.IsNaN(x) || math.IsInf(x, 0) {
				x = float64(i)
			}
			xs[i] = math.Mod(x, 1e12)
		}
		var whole Agg
		for _, x := range xs {
			whole.Add(x)
		}
		k := 0
		if len(xs) > 0 {
			k = int(split) % (len(xs) + 1)
		}
		var left, right Agg
		for _, x := range xs[:k] {
			left.Add(x)
		}
		for _, x := range xs[k:] {
			right.Add(x)
		}
		left.Merge(right)
		// Sum association order differs between the two folds, so compare
		// it with a relative tolerance; the rest must match exactly.
		sumClose := math.Abs(left.Sum-whole.Sum) <= 1e-9*math.Max(math.Abs(left.Sum), math.Abs(whole.Sum))+1e-12
		return sumClose && left.Count == whole.Count && left.Min == whole.Min && left.Max == whole.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestAggMergeEmptyIdentity(t *testing.T) {
	a := AggOf(3)
	a.Add(9)
	before := a
	a.Merge(Agg{})
	if a != before {
		t.Error("merging the empty aggregate must be identity")
	}
	var e Agg
	e.Merge(before)
	if e != before {
		t.Error("merging into empty must copy")
	}
}

func TestAggVector(t *testing.T) {
	v := NewAggVector(2)
	v.AddRecord([]float64{1, 10})
	v.AddRecord([]float64{2, 20})
	w := AggOfRecord([]float64{3, 30})
	v.Merge(w)
	if v[0].Value(Sum) != 6 || v[1].Value(Sum) != 60 {
		t.Errorf("vector sums = %g, %g", v[0].Value(Sum), v[1].Value(Sum))
	}
	if v[0].Value(Count) != 3 {
		t.Errorf("count = %g", v[0].Value(Count))
	}
	c := v.Clone()
	if !c.Equal(v) {
		t.Error("clone must equal")
	}
	c[0].Add(1)
	if c.Equal(v) {
		t.Error("clone must not alias")
	}
	if v.Equal(v[:1]) {
		t.Error("different arity must not be equal")
	}
}

func TestAggRandomizedMergeTree(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	xs := make([]float64, 500)
	var want Agg
	for i := range xs {
		xs[i] = rng.NormFloat64() * 100
		want.Add(xs[i])
	}
	// Fold in a random binary-tree order and compare against sequential.
	aggs := make([]Agg, len(xs))
	for i, x := range xs {
		aggs[i] = AggOf(x)
	}
	for len(aggs) > 1 {
		i := rng.Intn(len(aggs) - 1)
		aggs[i].Merge(aggs[i+1])
		aggs = append(aggs[:i+1], aggs[i+2:]...)
	}
	got := aggs[0]
	if got.Count != want.Count || got.Min != want.Min || got.Max != want.Max {
		t.Fatalf("tree merge = %+v, want %+v", got, want)
	}
	if math.Abs(got.Sum-want.Sum) > 1e-6*math.Abs(want.Sum) {
		t.Fatalf("tree merge sum = %g, want %g", got.Sum, want.Sum)
	}
}
