package seqscan

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/dcindex/dctree/internal/cube"
	"github.com/dcindex/dctree/internal/hierarchy"
	"github.com/dcindex/dctree/internal/mds"
)

func testStore(t testing.TB) (*Store, []cube.Record) {
	t.Helper()
	h := hierarchy.MustNew("Dim", "Leaf", "Mid", "Top")
	s := cube.MustNewSchema([]*hierarchy.Hierarchy{h}, "M")
	st := New(s)
	rng := rand.New(rand.NewSource(1))
	var recs []cube.Record
	for i := 0; i < 200; i++ {
		r, err := s.InternRecord([][]string{{
			fmt.Sprintf("T%d", rng.Intn(3)),
			fmt.Sprintf("M%d", rng.Intn(10)),
			fmt.Sprintf("L%d", i),
		}}, []float64{float64(i)})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Insert(r); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, r)
	}
	return st, recs
}

func TestRangeAggAllOps(t *testing.T) {
	st, recs := testStore(t)
	agg, err := st.RangeAgg(mds.Top(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Count != 200 || agg.Min != 0 || agg.Max != 199 {
		t.Fatalf("agg = %+v", agg)
	}
	if v, _ := st.RangeQuery(mds.Top(1), cube.Avg, 0); v != 99.5 {
		t.Fatalf("avg = %g", v)
	}
	// Constrained query at mid level.
	space := st.Schema().Space()
	mid, _ := space[0].AncestorAt(recs[0].Coords[0], 1)
	q := mds.MDS{{Level: 1, IDs: []hierarchy.ID{mid}}}
	var want cube.Fixed // the measures are integers, at scale 0
	for _, r := range recs {
		ok, _ := q.ContainsLeaves(space, r.Coords)
		if ok {
			want.Add(int64(r.Measures[0]))
		}
	}
	got, err := st.RangeAgg(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != st.Schema().Answer(0, want) {
		t.Fatalf("got %+v want %+v", got, want)
	}
	if want.Count == 0 {
		t.Fatal("degenerate query matched nothing")
	}
}

func TestScannerAccounting(t *testing.T) {
	st, _ := testStore(t)
	st.RecordsScanned = 0
	st.RangeAgg(mds.Top(1), 0)
	st.RangeAgg(mds.Top(1), 0)
	if st.RecordsScanned != 400 {
		t.Fatalf("RecordsScanned = %d", st.RecordsScanned)
	}
}

func TestDeleteSemantics(t *testing.T) {
	st, recs := testStore(t)
	if err := st.Delete(recs[7]); err != nil {
		t.Fatal(err)
	}
	if st.Count() != 199 {
		t.Fatalf("count = %d", st.Count())
	}
	if err := st.Delete(recs[7]); err != ErrNotFound {
		t.Fatalf("re-delete = %v", err)
	}
	ghost := recs[8].Clone()
	ghost.Measures[0] += 0.5
	if err := st.Delete(ghost); err != ErrNotFound {
		t.Fatalf("ghost delete = %v", err)
	}
	agg, _ := st.RangeAgg(mds.Top(1), 0)
	if agg.Count != 199 {
		t.Fatalf("agg count = %d", agg.Count)
	}
}

func TestValidationErrors(t *testing.T) {
	st, recs := testStore(t)
	if _, err := st.RangeAgg(mds.Top(1), 5); err == nil {
		t.Fatal("bad measure accepted")
	}
	if _, err := st.RangeAgg(mds.Top(2), 0); err == nil {
		t.Fatal("bad arity accepted")
	}
	bad := recs[0].Clone()
	bad.Coords[0] = hierarchy.MakeID(2, 0)
	if err := st.Insert(bad); err == nil {
		t.Fatal("non-leaf record accepted")
	}
	// Inserted records are copied, not aliased.
	recs[0].Measures[0] = -1
	agg, _ := st.RangeAgg(mds.Top(1), 0)
	if agg.Min < 0 {
		t.Fatal("store aliased caller's record")
	}
}
