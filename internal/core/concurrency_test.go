package core

import (
	"math/rand"
	"sync"
	"testing"

	"github.com/dcindex/dctree/internal/cube"
	"github.com/dcindex/dctree/internal/mds"
)

// TestConcurrentQueriesDuringInserts exercises the paper's motivating
// scenario: the warehouse stays continuously available for OLAP while
// single-record updates stream in — inserts with their splits and deletes
// with their cover repairs, all on the tree's one write scratch, which the
// readers must never see. Run with -race.
func TestConcurrentQueriesDuringInserts(t *testing.T) {
	concurrentQueriesDuringInserts(t, newTestTree(t, smallConfig()))
}

// TestConcurrentQueriesDuringInsertsDurable runs the same stress on a
// WAL-backed tree, where the writer additionally leads a commit per
// mutation outside the tree lock while the readers hold it shared.
func TestConcurrentQueriesDuringInsertsDurable(t *testing.T) {
	tree, _, _, _ := newDurableOnDisk(t, smallConfig())
	defer tree.Close()
	concurrentQueriesDuringInserts(t, tree)
}

func concurrentQueriesDuringInserts(t *testing.T, tree *Tree) {
	s := tree.Schema()
	rng := rand.New(rand.NewSource(41))
	warm := genRecords(t, s, rng, 300)
	stream := genRecords(t, s, rng, 700)
	for _, r := range warm {
		if err := tree.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	// Pre-generate queries: the query workers must not touch the
	// hierarchies' mutable dictionaries while the writer registers values.
	queries := make([]mds.MDS, 200)
	qrng := rand.New(rand.NewSource(43))
	for i := range queries {
		queries[i] = randomQuery(qrng, s, 0.25)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 8)

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i, r := range stream {
			if err := tree.Insert(r); err != nil {
				errs <- err
				return
			}
			if i%5 == 4 {
				if err := tree.Delete(stream[i-3]); err != nil {
					errs <- err
					return
				}
			}
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				q := queries[(i*7+w)%len(queries)]
				agg, err := rangeAgg(tree, q, 0)
				if err != nil {
					errs <- err
					return
				}
				// Monotone sanity: counts are never negative and never
				// exceed the total stream.
				if agg.Count < 0 || agg.Count > int64(len(warm)+len(stream)) {
					errs <- ErrCorrupt
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent workload: %v", err)
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Final ground truth.
	all := append([]cube.Record(nil), warm...)
	for i, r := range stream {
		if deleted := i%5 == 1 && i+3 < len(stream); !deleted {
			all = append(all, r)
		}
	}
	if tree.Count() != int64(len(all)) {
		t.Fatalf("count = %d, want %d", tree.Count(), len(all))
	}
	for i := 0; i < 40; i++ {
		q := queries[i]
		want := bruteAgg(t, s, all, q, 0)
		got, err := rangeAgg(tree, q, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !aggMatches(got, want) {
			t.Fatalf("query %d mismatch after concurrent run", i)
		}
	}
}
