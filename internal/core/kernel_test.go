package core

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/dcindex/dctree/internal/cube"
	"github.com/dcindex/dctree/internal/hierarchy"
)

// The write-path kernel's decision-by-decision reference tests live with it
// in internal/index; the two below hold it to its budget and its ownership
// rule through the engine that hosts it.

// TestInsertAllocations holds the write path to its allocation budget: a
// handful per insert on a warm tree (splits included, amortized), against
// some 500 before the kernel.
func TestInsertAllocations(t *testing.T) {
	cfg := DefaultConfig()
	tree := newTestTree(t, cfg)
	rng := rand.New(rand.NewSource(55))
	recs := genRecords(t, tree.Schema(), rng, 9000)
	for _, r := range recs[:6000] {
		if err := tree.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	next := 6000
	allocs := testing.AllocsPerRun(2500, func() {
		if err := tree.Insert(recs[next]); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if allocs > 8 {
		t.Fatalf("%.1f allocations per insert, budget 8", allocs)
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestScratchResultsAreCopiedOut runs a small tree through inserts and
// deletes and checks every entry of the tree after every operation: an MDS
// or record left aliasing the write scratch (a split result handed to the
// parent, a repaired cover, a synthesized singleton set) would be overwritten
// by a later operation and stop describing its subtree.
func TestScratchResultsAreCopiedOut(t *testing.T) {
	supernodes := smallConfig()
	supernodes.LeafCapacity, supernodes.DirCapacity = 4, 4
	forced := supernodes
	forced.DisableSupernodes = true
	t.Run("supernodes", func(t *testing.T) { scratchAliasingWorkload(t, supernodes, 300) })
	// Records that repeat a few dozen coordinates cannot be separated: the
	// saved fallback partition is forced.
	t.Run("forced-splits", func(t *testing.T) { scratchAliasingWorkload(t, forced, 5) })
}

func scratchAliasingWorkload(t *testing.T, cfg Config, customers int) {
	tree := newTestTree(t, cfg)
	rng := rand.New(rand.NewSource(57))
	recs := make([]cube.Record, 700)
	for i := range recs {
		var err error
		recs[i], err = tree.Schema().InternRecord([][]string{
			{fmt.Sprintf("R%d", rng.Intn(2)), fmt.Sprintf("N%d", rng.Intn(3)), fmt.Sprintf("C%d", rng.Intn(customers))},
			{fmt.Sprintf("B%d", rng.Intn(3)), fmt.Sprintf("P%d", rng.Intn(customers))},
			{fmt.Sprintf("Y%d", rng.Intn(2)), fmt.Sprintf("M%d", rng.Intn(customers))},
		}, []float64{float64(i)})
		if err != nil {
			t.Fatal(err)
		}
	}
	live := make(map[int]bool)
	check := func(op string, i int) {
		t.Helper()
		if err := tree.Validate(); err != nil {
			t.Fatalf("after %s %d: %v", op, i, err)
		}
	}
	for i, r := range recs {
		// The caller's record must not be retained: scribble over a copy.
		own := r.Clone()
		if err := tree.Insert(own); err != nil {
			t.Fatal(err)
		}
		for d := range own.Coords {
			own.Coords[d] = hierarchy.ALL
		}
		own.Measures[0] = -1
		live[i] = true
		check("insert", i)
		if i%3 == 2 {
			victim := rng.Intn(i + 1)
			if live[victim] {
				if err := tree.Delete(recs[victim]); err != nil {
					t.Fatalf("delete %d: %v", victim, err)
				}
				delete(live, victim)
				check("delete", victim)
			}
		}
	}
	if cfg.DisableSupernodes && tree.Metrics().SplitsForced == 0 {
		t.Fatal("no split was forced: the fallback partition was never used")
	}
	var all []cube.Record
	for i := range live {
		all = append(all, recs[i])
	}
	for i := 0; i < 50; i++ {
		q := randomQuery(rng, tree.Schema(), 0.3)
		got, err := rangeAgg(tree, q, 0)
		if err != nil {
			t.Fatal(err)
		}
		if want := bruteAgg(t, tree.Schema(), all, q, 0); !aggMatches(got, want) {
			t.Fatalf("query %d: got %+v want %+v", i, got, want)
		}
	}
}
