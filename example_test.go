package dctree_test

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

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

// salesCube declares the small cube the examples below share: stores
// under nations under regions, months under quarters, one measure.
func salesCube() *dctree.Schema {
	store, err := dctree.NewHierarchy("Store", "Store", "Nation", "Region")
	if err != nil {
		log.Fatal(err)
	}
	timeDim, err := dctree.NewHierarchy("Time", "Month", "Quarter")
	if err != nil {
		log.Fatal(err)
	}
	schema, err := dctree.NewSchema([]*dctree.Hierarchy{store, timeDim}, "Revenue")
	if err != nil {
		log.Fatal(err)
	}
	return schema
}

// exampleSale interns one record of salesCube: paths are given top level first.
func exampleSale(schema *dctree.Schema, region, nation, store, quarter, month string, revenue float64) dctree.Record {
	rec, err := schema.InternRecord([][]string{
		{region, nation, store},
		{quarter, month},
	}, []float64{revenue})
	if err != nil {
		log.Fatal(err)
	}
	return rec
}

// exampleSum answers one range query on the live tree.
func exampleSum(tree *dctree.Tree, b *dctree.QueryBuilder) float64 {
	req, err := b.BuildRequest()
	if err != nil {
		log.Fatal(err)
	}
	res, err := tree.Execute(context.Background(), req)
	if err != nil {
		log.Fatal(err)
	}
	return res.Agg.Value(dctree.Sum)
}

// ExampleWithWAL keeps an index in a file with a write-ahead log beside
// it: every acknowledged insert is durable, Close checkpoints, and a later
// process reopens the same files without a schema — the dictionaries
// travel with the index — and goes on inserting.
func ExampleWithWAL() {
	dir, err := os.MkdirTemp("", "dctree-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	indexPath, walPrefix := filepath.Join(dir, "sales.dc"), filepath.Join(dir, "sales")
	cfg := dctree.DefaultConfig()

	schema := salesCube()
	store, err := dctree.OpenFileStore(indexPath, cfg.BlockSize)
	if err != nil {
		log.Fatal(err)
	}
	tree, err := dctree.Open(store, dctree.WithSchema(schema), dctree.WithConfig(cfg),
		dctree.WithWAL(walPrefix, dctree.WALOptions{}))
	if err != nil {
		log.Fatal(err)
	}
	for _, rec := range []dctree.Record{
		exampleSale(schema, "EUROPE", "GERMANY", "Berlin#1", "Q1", "Jan", 120),
		exampleSale(schema, "EUROPE", "FRANCE", "Paris#1", "Q1", "Feb", 80),
		exampleSale(schema, "ASIA", "JAPAN", "Tokyo#1", "Q2", "Apr", 300),
	} {
		if err := tree.Insert(rec); err != nil { // returns once the record is on disk
			log.Fatal(err)
		}
	}
	if err := tree.Close(); err != nil {
		log.Fatal(err)
	}
	if err := store.Close(); err != nil {
		log.Fatal(err)
	}

	store, err = dctree.OpenFileStore(indexPath, cfg.BlockSize)
	if err != nil {
		log.Fatal(err)
	}
	defer store.Close()
	tree, err = dctree.Open(store, dctree.WithWAL(walPrefix, dctree.WALOptions{}))
	if err != nil {
		log.Fatal(err)
	}
	defer tree.Close()
	schema = tree.Schema()
	fmt.Printf("reopened %d sales, EUROPE: %.0f\n", tree.Count(),
		exampleSum(tree, dctree.NewQuery(schema).Where("Store", "Region", "EUROPE")))
	if err := tree.Insert(exampleSale(schema, "EUROPE", "GERMANY", "Berlin#1", "Q2", "May", 50)); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after one more: %.0f\n",
		exampleSum(tree, dctree.NewQuery(schema).Where("Store", "Region", "EUROPE")))
	// Output:
	// reopened 3 sales, EUROPE: 200
	// after one more: 250
}

// ExampleTree_Snapshot pins a version of the index and keeps querying it
// while the live tree moves on: AsOf answers from the captured state, the
// same query without it sees the later insert.
func ExampleTree_Snapshot() {
	schema := salesCube()
	tree, err := dctree.Open(dctree.NewMemStore(dctree.DefaultConfig().BlockSize), dctree.WithSchema(schema))
	if err != nil {
		log.Fatal(err)
	}
	tree.Insert(exampleSale(schema, "EUROPE", "GERMANY", "Berlin#1", "Q1", "Jan", 120))
	tree.Insert(exampleSale(schema, "ASIA", "JAPAN", "Tokyo#1", "Q1", "Feb", 300))

	monthEnd, err := tree.Snapshot()
	if err != nil {
		log.Fatal(err)
	}
	defer monthEnd.Release()
	tree.Insert(exampleSale(schema, "EUROPE", "FRANCE", "Paris#1", "Q1", "Mar", 80))

	europe := dctree.NewQuery(schema).Where("Store", "Region", "EUROPE")
	fmt.Printf("live:        %d sales, EUROPE %.0f\n", tree.Count(), exampleSum(tree, europe))
	fmt.Printf("as of month: %d sales, EUROPE %.0f\n", monthEnd.Count(), exampleSum(tree, europe.AsOf(monthEnd)))
	// Output:
	// live:        3 sales, EUROPE 200
	// as of month: 2 sales, EUROPE 120
}

// ExampleTree_BulkLoad loads an initial batch offline, then reads every
// measure of a cell in one descent (AllMeasures) and the total of the whole
// cube. The tree stays dynamic afterwards.
func ExampleTree_BulkLoad() {
	channel, _ := dctree.NewHierarchy("Channel", "Store", "Channel")
	timeDim, _ := dctree.NewHierarchy("Time", "Week", "Month")
	schema, err := dctree.NewSchema([]*dctree.Hierarchy{channel, timeDim}, "Revenue", "Units")
	if err != nil {
		log.Fatal(err)
	}
	tree, err := dctree.Open(dctree.NewMemStore(dctree.DefaultConfig().BlockSize), dctree.WithSchema(schema))
	if err != nil {
		log.Fatal(err)
	}

	var orders []dctree.Record
	for i := 0; i < 2000; i++ {
		ch := []string{"Web", "Retail"}[i%2]
		month := []string{"April", "May", "June"}[i%3]
		rec, err := schema.InternRecord([][]string{
			{ch, fmt.Sprintf("%s-%02d", ch, i%40)},
			{month, fmt.Sprintf("%s-W%d", month, 1+i%4)},
		}, []float64{float64(10 + i%7), float64(1 + i%3)})
		if err != nil {
			log.Fatal(err)
		}
		orders = append(orders, rec)
	}
	if err := tree.BulkLoad(orders); err != nil {
		log.Fatal(err)
	}

	q, err := dctree.NewQuery(schema).Where("Channel", "Channel", "Web").Where("Time", "Month", "May").Build()
	if err != nil {
		log.Fatal(err)
	}
	cell, err := tree.Execute(context.Background(), dctree.QueryRequest{Query: q, AllMeasures: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Web/May: %d orders, revenue %.0f, units %.0f\n",
		cell.AggVector[0].Count, cell.AggVector[0].Sum, cell.AggVector[1].Sum)

	total, _ := tree.Execute(context.Background(), dctree.QueryRequest{Query: dctree.QueryAll(schema)})
	fmt.Printf("all orders: %.0f\n", total.Agg.Sum)

	tree.Insert(orders[0])
	tree.Delete(orders[0])
	fmt.Printf("after a late order and its cancellation: %d\n", tree.Count())
	// Output:
	// Web/May: 333 orders, revenue 4327, units 666
	// all orders: 25995
	// after a late order and its cancellation: 2000
}

// Example_rollUp walks one dimension's concept hierarchy the way an analyst
// does: total, roll-up by region, drill-down into one region by nation —
// each line one range query at a different level of the same index.
func Example_rollUp() {
	schema := salesCube()
	tree, err := dctree.Open(dctree.NewMemStore(dctree.DefaultConfig().BlockSize), dctree.WithSchema(schema))
	if err != nil {
		log.Fatal(err)
	}
	for _, rec := range []dctree.Record{
		exampleSale(schema, "EUROPE", "GERMANY", "Berlin#1", "Q1", "Jan", 120),
		exampleSale(schema, "EUROPE", "GERMANY", "Munich#1", "Q1", "Feb", 60),
		exampleSale(schema, "EUROPE", "FRANCE", "Paris#1", "Q1", "Feb", 80),
		exampleSale(schema, "ASIA", "JAPAN", "Tokyo#1", "Q1", "Mar", 300),
		exampleSale(schema, "ASIA", "INDIA", "Delhi#1", "Q2", "Apr", 40),
	} {
		if err := tree.Insert(rec); err != nil {
			log.Fatal(err)
		}
	}

	fmt.Printf("ALL      %4.0f\n", exampleSum(tree, dctree.NewQuery(schema)))
	for _, region := range []string{"ASIA", "EUROPE"} {
		fmt.Printf("%-8s %4.0f\n", region, exampleSum(tree, dctree.NewQuery(schema).Where("Store", "Region", region)))
	}
	for _, nation := range []string{"FRANCE", "GERMANY"} {
		fmt.Printf("  %-8s %4.0f\n", nation, exampleSum(tree, dctree.NewQuery(schema).Where("Store", "Nation", nation)))
	}
	fmt.Printf("  GERMANY in Q1/Jan: %.0f\n", exampleSum(tree, dctree.NewQuery(schema).
		Where("Store", "Nation", "GERMANY").Where("Time", "Month", "Jan")))
	// Output:
	// ALL       600
	// ASIA      340
	// EUROPE    260
	//   FRANCE     80
	//   GERMANY   180
	//   GERMANY in Q1/Jan: 120
}
