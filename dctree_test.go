package dctree_test

import (
	"context"
	"math"
	"path/filepath"
	"testing"

	dctree "github.com/dcindex/dctree"
)

// salesSchema builds a small retail cube through the public API only.
func salesSchema(t testing.TB) *dctree.Schema {
	t.Helper()
	customer, err := dctree.NewHierarchy("Customer", "Customer", "Nation", "Region")
	if err != nil {
		t.Fatal(err)
	}
	product, err := dctree.NewHierarchy("Product", "Product", "Category")
	if err != nil {
		t.Fatal(err)
	}
	timeDim, err := dctree.NewHierarchy("Time", "Month", "Year")
	if err != nil {
		t.Fatal(err)
	}
	schema, err := dctree.NewSchema([]*dctree.Hierarchy{customer, product, timeDim}, "Revenue")
	if err != nil {
		t.Fatal(err)
	}
	return schema
}

type sale struct {
	cust    [3]string
	prod    [2]string
	month   [2]string
	revenue float64
}

var sales = []sale{
	{[3]string{"EUROPE", "GERMANY", "C1"}, [2]string{"Electronics", "TV"}, [2]string{"1996", "1996-01"}, 100},
	{[3]string{"EUROPE", "GERMANY", "C2"}, [2]string{"Electronics", "VCR"}, [2]string{"1996", "1996-02"}, 200},
	{[3]string{"EUROPE", "FRANCE", "C3"}, [2]string{"Food", "Wine"}, [2]string{"1997", "1997-03"}, 50},
	{[3]string{"ASIA", "JAPAN", "C4"}, [2]string{"Electronics", "TV"}, [2]string{"1996", "1996-06"}, 400},
	{[3]string{"AMERICA", "USA", "C5"}, [2]string{"Food", "Cheese"}, [2]string{"1997", "1997-11"}, 75},
}

func loadSales(t testing.TB, schema *dctree.Schema, tree *dctree.Tree) []dctree.Record {
	t.Helper()
	var recs []dctree.Record
	for _, s := range sales {
		rec, err := schema.InternRecord([][]string{s.cust[:], s.prod[:], s.month[:]}, []float64{s.revenue})
		if err != nil {
			t.Fatal(err)
		}
		if err := tree.Insert(rec); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	return recs
}

// rangeQuery is the tests' shorthand for a single-measure Execute read
// through one operator.
func rangeQuery(tree *dctree.Tree, q dctree.MDS, op dctree.Op, measure int) (float64, error) {
	res, err := tree.Execute(context.Background(), dctree.QueryRequest{Query: q, Measure: measure})
	return res.Agg.Value(op), err
}

func TestPublicAPIEndToEnd(t *testing.T) {
	schema := salesSchema(t)
	tree, err := dctree.Open(dctree.NewMemStore(dctree.DefaultConfig().BlockSize), dctree.WithSchema(schema))
	if err != nil {
		t.Fatal(err)
	}
	loadSales(t, schema, tree)

	if tree.Count() != 5 {
		t.Fatalf("Count = %d", tree.Count())
	}

	// Whole cube.
	total, err := rangeQuery(tree, dctree.QueryAll(schema), dctree.Sum, 0)
	if err != nil {
		t.Fatal(err)
	}
	if total != 825 {
		t.Fatalf("total = %g", total)
	}

	// Region query via builder.
	q, err := dctree.NewQuery(schema).Where("Customer", "Region", "EUROPE").Build()
	if err != nil {
		t.Fatal(err)
	}
	got, err := rangeQuery(tree, q, dctree.Sum, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != 350 {
		t.Fatalf("EUROPE revenue = %g", got)
	}

	// Conjunction across dimensions and ops.
	q2, err := dctree.NewQuery(schema).
		Where("Customer", "Region", "EUROPE", "ASIA").
		Where("Product", "Category", "Electronics").
		Where("Time", "Year", "1996").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := rangeQuery(tree, q2, dctree.Sum, 0); v != 700 {
		t.Fatalf("conjunction sum = %g", v)
	}
	if v, _ := rangeQuery(tree, q2, dctree.Count, 0); v != 3 {
		t.Fatalf("conjunction count = %g", v)
	}
	if v, _ := rangeQuery(tree, q2, dctree.Max, 0); v != 400 {
		t.Fatalf("conjunction max = %g", v)
	}
	if v, _ := rangeQuery(tree, q2, dctree.Min, 0); v != 100 {
		t.Fatalf("conjunction min = %g", v)
	}
	if v, _ := rangeQuery(tree, q2, dctree.Avg, 0); math.Abs(v-700.0/3) > 1e-9 {
		t.Fatalf("conjunction avg = %g", v)
	}

	// Leaf-level query.
	q3, err := dctree.NewQuery(schema).Where("Customer", "Customer", "C4").Build()
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := rangeQuery(tree, q3, dctree.Sum, 0); v != 400 {
		t.Fatalf("C4 revenue = %g", v)
	}
}

func TestQueryBuilderErrors(t *testing.T) {
	schema := salesSchema(t)
	tree, _ := dctree.Open(dctree.NewMemStore(dctree.DefaultConfig().BlockSize), dctree.WithSchema(schema))
	loadSales(t, schema, tree)

	cases := map[string]*dctree.QueryBuilder{
		"unknown dim":       dctree.NewQuery(schema).Where("Nope", "Region", "EUROPE"),
		"unknown level":     dctree.NewQuery(schema).Where("Customer", "Continent", "EUROPE"),
		"unknown value":     dctree.NewQuery(schema).Where("Customer", "Region", "ATLANTIS"),
		"empty values":      dctree.NewQuery(schema).Where("Customer", "Region"),
		"double constraint": dctree.NewQuery(schema).Where("Customer", "Region", "EUROPE").Where("Customer", "Nation", "GERMANY"),
		"empty ids":         dctree.NewQuery(schema).WhereIDs("Customer"),
	}
	for name, b := range cases {
		if _, err := b.Build(); err == nil {
			t.Errorf("%s: Build succeeded", name)
		}
	}

	// WhereIDs round trip.
	q, err := dctree.NewQuery(schema).Where("Customer", "Nation", "GERMANY").Build()
	if err != nil {
		t.Fatal(err)
	}
	ids := q[0].IDs
	q2, err := dctree.NewQuery(schema).WhereIDs("Customer", ids...).Build()
	if err != nil {
		t.Fatal(err)
	}
	a, _ := rangeQuery(tree, q, dctree.Sum, 0)
	b, _ := rangeQuery(tree, q2, dctree.Sum, 0)
	if a != b || a != 300 {
		t.Fatalf("WhereIDs disagrees: %g vs %g", a, b)
	}
}

func TestPublicDeleteAndDynamism(t *testing.T) {
	schema := salesSchema(t)
	tree, _ := dctree.Open(dctree.NewMemStore(dctree.DefaultConfig().BlockSize), dctree.WithSchema(schema))
	recs := loadSales(t, schema, tree)

	if err := tree.Delete(recs[0]); err != nil {
		t.Fatal(err)
	}
	total, _ := rangeQuery(tree, dctree.QueryAll(schema), dctree.Sum, 0)
	if total != 725 {
		t.Fatalf("total after delete = %g", total)
	}
	// New values register dynamically mid-life (Fig. 2's new Samsung TV).
	rec, err := schema.InternRecord([][]string{
		{"EUROPE", "NETHERLANDS", "C9"},
		{"Electronics", "Samsung TV 1"},
		{"1998", "1998-05"},
	}, []float64{999})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Insert(rec); err != nil {
		t.Fatal(err)
	}
	q, _ := dctree.NewQuery(schema).Where("Customer", "Nation", "NETHERLANDS").Build()
	if v, _ := rangeQuery(tree, q, dctree.Sum, 0); v != 999 {
		t.Fatalf("new nation revenue = %g", v)
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMultiMeasureAggregation(t *testing.T) {
	customer, _ := dctree.NewHierarchy("Customer", "Customer", "Region")
	schema, err := dctree.NewSchema([]*dctree.Hierarchy{customer}, "Revenue", "Units")
	if err != nil {
		t.Fatal(err)
	}
	tree, _ := dctree.Open(dctree.NewMemStore(dctree.DefaultConfig().BlockSize), dctree.WithSchema(schema))
	data := []struct {
		region, cust string
		revenue      float64
		units        float64
	}{
		{"EUROPE", "C1", 100, 2},
		{"EUROPE", "C2", 250, 5},
		{"ASIA", "C3", 70, 1},
	}
	for _, d := range data {
		rec, err := schema.InternRecord([][]string{{d.region, d.cust}}, []float64{d.revenue, d.units})
		if err != nil {
			t.Fatal(err)
		}
		if err := tree.Insert(rec); err != nil {
			t.Fatal(err)
		}
	}
	q, err := dctree.NewQuery(schema).Where("Customer", "Region", "EUROPE").Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := tree.Execute(context.Background(), dctree.QueryRequest{Query: q, AllMeasures: true, CollectStats: true})
	if err != nil {
		t.Fatal(err)
	}
	aggs, st := res.AggVector, res.Stats
	if len(aggs) != 2 {
		t.Fatalf("aggs = %d measures", len(aggs))
	}
	if aggs[0].Sum != 350 || aggs[1].Sum != 7 {
		t.Fatalf("sums = %g, %g", aggs[0].Sum, aggs[1].Sum)
	}
	if aggs[0].Count != 2 || aggs[1].Max != 5 || aggs[1].Min != 2 {
		t.Fatalf("aggs = %+v", aggs)
	}
	if st.NodesVisited == 0 {
		t.Fatal("stats missing")
	}
	// Consistent with per-measure queries.
	rev, _ := rangeQuery(tree, q, dctree.Sum, 0)
	units, _ := rangeQuery(tree, q, dctree.Sum, 1)
	if rev != aggs[0].Sum || units != aggs[1].Sum {
		t.Fatalf("per-measure disagreement: %g/%g vs %+v", rev, units, aggs)
	}
}

func TestPublicBulkLoad(t *testing.T) {
	schema := salesSchema(t)
	tree, err := dctree.Open(dctree.NewMemStore(dctree.DefaultConfig().BlockSize), dctree.WithSchema(schema))
	if err != nil {
		t.Fatal(err)
	}
	var recs []dctree.Record
	for _, s := range sales {
		rec, err := schema.InternRecord([][]string{s.cust[:], s.prod[:], s.month[:]}, []float64{s.revenue})
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	if err := tree.BulkLoad(recs); err != nil {
		t.Fatal(err)
	}
	total, err := rangeQuery(tree, dctree.QueryAll(schema), dctree.Sum, 0)
	if err != nil {
		t.Fatal(err)
	}
	if total != 825 {
		t.Fatalf("bulk total = %g", total)
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPublicPersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sales.dctree")
	cfg := dctree.DefaultConfig()
	store, err := dctree.OpenFileStore(path, cfg.BlockSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	schema := salesSchema(t)
	tree, err := dctree.Open(store, dctree.WithSchema(schema), dctree.WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	loadSales(t, schema, tree)
	if err := tree.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	store2, err := dctree.OpenFileStore(path, cfg.BlockSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	tree2, err := dctree.Open(store2)
	if err != nil {
		t.Fatal(err)
	}
	if tree2.Count() != 5 {
		t.Fatalf("count after reopen = %d", tree2.Count())
	}
	// Queries work against the reopened dictionaries.
	q, err := dctree.NewQuery(tree2.Schema()).Where("Customer", "Region", "EUROPE").Build()
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := rangeQuery(tree2, q, dctree.Sum, 0); v != 350 {
		t.Fatalf("EUROPE after reopen = %g", v)
	}
}
