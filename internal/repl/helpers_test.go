package repl

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/dcindex/dctree/internal/core"
	"github.com/dcindex/dctree/internal/cube"
	"github.com/dcindex/dctree/internal/hierarchy"
)

// testSchema builds the same small TPC-D-like cube the core tests use:
// Customer (Region>Nation>Customer), Part (Brand>Part), Time (Year>Month)
// with one measure.
func testSchema(t testing.TB) *cube.Schema {
	t.Helper()
	cust := hierarchy.MustNew("Customer", "Customer", "Nation", "Region")
	part := hierarchy.MustNew("Part", "Part", "Brand")
	tim := hierarchy.MustNew("Time", "Month", "Year")
	return cube.MustNewSchema([]*hierarchy.Hierarchy{cust, part, tim}, "Price")
}

// genRecords interns n random records into the schema.
func genRecords(t testing.TB, s *cube.Schema, rng *rand.Rand, n int) []cube.Record {
	t.Helper()
	recs := make([]cube.Record, n)
	for i := range recs {
		r, err := s.InternRecord([][]string{
			{fmt.Sprintf("R%d", rng.Intn(4)), fmt.Sprintf("N%d", rng.Intn(12)), fmt.Sprintf("C%d", rng.Intn(500))},
			{fmt.Sprintf("B%d", rng.Intn(8)), fmt.Sprintf("P%d", rng.Intn(300))},
			{fmt.Sprintf("Y%d", rng.Intn(5)), fmt.Sprintf("M%d", rng.Intn(60))},
		}, []float64{math.Round(rng.Float64()*10000) / 100})
		if err != nil {
			t.Fatalf("InternRecord: %v", err)
		}
		recs[i] = r
	}
	return recs
}

// scanMultiset collects a tree's live records keyed by their full content.
func scanMultiset(t testing.TB, tr *core.Tree) map[string]int {
	t.Helper()
	ms := make(map[string]int)
	if err := tr.Scan(func(r cube.Record) bool {
		ms[fmt.Sprint(r.Coords, r.Measures)]++
		return true
	}); err != nil {
		t.Fatalf("Scan: %v", err)
	}
	return ms
}

// assertTreesEqual compares two trees record-for-record via a sequential
// scan — the seqscan oracle for replication equality.
func assertTreesEqual(t testing.TB, want, got *core.Tree) {
	t.Helper()
	if w, g := want.Count(), got.Count(); w != g {
		t.Fatalf("count mismatch: want %d, got %d", w, g)
	}
	if w, g := scanMultiset(t, want), scanMultiset(t, got); !reflect.DeepEqual(w, g) {
		t.Fatalf("record multisets differ: %d vs %d distinct keys", len(w), len(g))
	}
}

// seeded is the test double for a transport that serves no schema (the
// filesystem and HTTP ones): it hands a fresh follower the primary's schema
// blob, as WALSource does, so a test bootstraps an empty replica and
// replays the log from LSN 1 instead of copying the primary's store.
type seeded struct {
	Source
	primary *core.Tree
}

func (s seeded) Schema() ([]byte, error) { return s.primary.EncodeSchema() }

// TipLSN passes the wrapped transport's tip through (Tipper); 0 when it
// knows none.
func (s seeded) TipLSN() uint64 {
	if t, ok := s.Source.(Tipper); ok {
		return t.TipLSN()
	}
	return 0
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t testing.TB, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
