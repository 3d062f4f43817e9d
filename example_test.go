package dctree_test

import (
	"context"
	"fmt"
	"log"

	dctree "github.com/dcindex/dctree"
)

// Example shows the complete life of a DC-tree: declare a cube, insert
// records one at a time, and answer hierarchy-level range queries.
func Example() {
	customer, err := dctree.NewHierarchy("Customer", "Customer", "Nation", "Region")
	if err != nil {
		log.Fatal(err)
	}
	product, err := dctree.NewHierarchy("Product", "Product", "Category")
	if err != nil {
		log.Fatal(err)
	}
	schema, err := dctree.NewSchema([]*dctree.Hierarchy{customer, product}, "Revenue")
	if err != nil {
		log.Fatal(err)
	}
	tree, err := dctree.Open(dctree.NewMemStore(dctree.DefaultConfig().BlockSize), dctree.WithSchema(schema))
	if err != nil {
		log.Fatal(err)
	}

	type sale struct {
		cust, nation, region string
		category, product    string
		revenue              float64
	}
	for _, s := range []sale{
		{"C1", "GERMANY", "EUROPE", "Electronics", "TV", 999},
		{"C2", "FRANCE", "EUROPE", "Food", "Wine", 59},
		{"C3", "JAPAN", "ASIA", "Electronics", "Camera", 450},
	} {
		rec, err := schema.InternRecord([][]string{
			{s.region, s.nation, s.cust},
			{s.category, s.product},
		}, []float64{s.revenue})
		if err != nil {
			log.Fatal(err)
		}
		if err := tree.Insert(rec); err != nil {
			log.Fatal(err)
		}
	}

	q, err := dctree.NewQuery(schema).
		Where("Customer", "Region", "EUROPE").
		Build()
	if err != nil {
		log.Fatal(err)
	}
	res, err := tree.Execute(context.Background(), dctree.QueryRequest{Query: q})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("EUROPE revenue: %.0f\n", res.Agg.Value(dctree.Sum))
	// Output: EUROPE revenue: 1058
}

// ExampleQueryBuilder demonstrates multi-dimension constraints at mixed
// hierarchy levels.
func ExampleQueryBuilder() {
	region, _ := dctree.NewHierarchy("Store", "Store", "Region")
	timeDim, _ := dctree.NewHierarchy("Time", "Day", "Month")
	schema, _ := dctree.NewSchema([]*dctree.Hierarchy{region, timeDim}, "Sales")
	tree, _ := dctree.Open(dctree.NewMemStore(dctree.DefaultConfig().BlockSize), dctree.WithSchema(schema))

	for i, s := range []struct {
		region, month string
		sales         float64
	}{
		{"North", "Jan", 10}, {"North", "Feb", 20}, {"South", "Jan", 40},
	} {
		rec, _ := schema.InternRecord([][]string{
			{s.region, fmt.Sprintf("Store#%d", i)},
			{s.month, fmt.Sprintf("%s-%02d", s.month, i)},
		}, []float64{s.sales})
		tree.Insert(rec)
	}

	q, err := dctree.NewQuery(schema).
		Where("Store", "Region", "North").
		Where("Time", "Month", "Jan", "Feb").
		Build()
	if err != nil {
		log.Fatal(err)
	}
	res, _ := tree.Execute(context.Background(), dctree.QueryRequest{Query: q})
	fmt.Printf("%d sales totalling %.0f\n", res.Agg.Count, res.Agg.Sum)
	// Output: 2 sales totalling 30
}

// ExampleTree_Delete shows that deletion keeps the materialized
// aggregates exact — the "fully dynamic" promise.
func ExampleTree_Delete() {
	d, _ := dctree.NewHierarchy("D", "Leaf", "Top")
	schema, _ := dctree.NewSchema([]*dctree.Hierarchy{d}, "M")
	tree, _ := dctree.Open(dctree.NewMemStore(dctree.DefaultConfig().BlockSize), dctree.WithSchema(schema))
	a, _ := schema.InternRecord([][]string{{"T", "x"}}, []float64{5})
	b, _ := schema.InternRecord([][]string{{"T", "y"}}, []float64{7})
	tree.Insert(a)
	tree.Insert(b)
	tree.Delete(a)
	res, _ := tree.Execute(context.Background(), dctree.QueryRequest{Query: dctree.QueryAll(schema)})
	fmt.Println(res.Agg.Sum)
	// Output: 7
}
