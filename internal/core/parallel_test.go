package core

import (
	"context"
	"math/rand"
	"testing"
)

func TestParallelQueryMatchesSequential(t *testing.T) {
	tree := newTestTree(t, smallConfig())
	s := tree.Schema()
	rng := rand.New(rand.NewSource(211))
	recs := genRecords(t, s, rng, 3000)
	for _, r := range recs {
		if err := tree.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		q := randomQuery(rng, s, []float64{0.01, 0.05, 0.25, 0.6}[i%4])
		want, err := rangeAgg(tree, q, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 8} {
			res, err := tree.Execute(context.Background(), QueryRequest{Query: q, Parallel: workers})
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			got := res.Agg
			if got.Count != want.Count || !floatClose(got.Sum, want.Sum) ||
				(want.Count > 0 && (got.Min != want.Min || got.Max != want.Max)) {
				t.Fatalf("workers=%d query %d: parallel %+v != sequential %+v", workers, i, got, want)
			}
		}
	}
	// Validation errors surface.
	if _, err := tree.Execute(context.Background(), QueryRequest{Query: tree.RootMDS(), Measure: 9, Parallel: 2}); err == nil {
		t.Fatal("bad measure accepted")
	}
}

func TestParallelQueryEmptyAndTinyTrees(t *testing.T) {
	tree := newTestTree(t, smallConfig())
	s := tree.Schema()
	res, err := tree.Execute(context.Background(), QueryRequest{Query: tree.RootMDS(), Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Agg.IsEmpty() {
		t.Fatalf("empty tree agg = %+v", res.Agg)
	}
	rng := rand.New(rand.NewSource(213))
	recs := genRecords(t, s, rng, 5) // root is still a leaf
	for _, r := range recs {
		tree.Insert(r)
	}
	res, err = tree.Execute(context.Background(), QueryRequest{Query: tree.RootMDS(), Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Agg.Count != 5 {
		t.Fatalf("leaf-root parallel count = %d", res.Agg.Count)
	}
}
