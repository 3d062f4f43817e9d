package mds

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/dcindex/dctree/internal/hierarchy"
)

// The allocating functions built on Align, Adapt and liftDim are the
// reference; these tests hold the write-path kernel and the aligned fast
// paths to them on random operands.

// refOverlap and refExtension are Definition 4 computed the long way: both
// operands adapted in full, then the per-dimension counts multiplied.
func refOverlap(t *testing.T, space Space, m, n MDS) float64 {
	t.Helper()
	am, an, err := Align(space, m, n)
	if err != nil {
		t.Fatal(err)
	}
	v := 1.0
	for i := range am {
		c := IntersectCount(am[i].IDs, an[i].IDs)
		if c == 0 {
			return 0
		}
		v *= float64(c)
	}
	return v
}

func refExtension(t *testing.T, space Space, m, n MDS) float64 {
	t.Helper()
	am, an, err := Align(space, m, n)
	if err != nil {
		t.Fatal(err)
	}
	v := 1.0
	for i := range am {
		v *= float64(UnionCount(am[i].IDs, an[i].IDs))
	}
	return v
}

// alignedPair returns two random MDSs lifted to common levels, as the
// hierarchy split's operands are.
func alignedPair(t *testing.T, rng *rand.Rand, space Space, leaves [][]hierarchy.ID) (MDS, MDS) {
	t.Helper()
	m, n, err := Align(space, randomMDS(rng, space, leaves), randomMDS(rng, space, leaves))
	if err != nil {
		t.Fatal(err)
	}
	return m, n
}

func TestOverlapExtensionMatchAlignReference(t *testing.T) {
	space, leaves := randomSpace(t, 21, 300)
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 2000; i++ {
		m, n := randomMDS(rng, space, leaves), randomMDS(rng, space, leaves)
		if i%2 == 0 {
			m, n = alignedPair(t, rng, space, leaves)
		}
		if got, err := Overlap(space, m, n); err != nil || got != refOverlap(t, space, m, n) {
			t.Fatalf("Overlap(%v, %v) = %v, %v; reference %v", m, n, got, err, refOverlap(t, space, m, n))
		}
		if got, err := Extension(space, m, n); err != nil || got != refExtension(t, space, m, n) {
			t.Fatalf("Extension(%v, %v) = %v, %v; reference %v", m, n, got, err, refExtension(t, space, m, n))
		}
	}
}

func TestAlignedOperationsDoNotAllocate(t *testing.T) {
	space, leaves := randomSpace(t, 23, 300)
	m, n := alignedPair(t, rand.New(rand.NewSource(24)), space, leaves)
	allocs := testing.AllocsPerRun(100, func() {
		Overlap(space, m, n)
		Extension(space, m, n)
		Contains(space, m, n)
		for d := range space {
			OverlapIn(space, m, n, d)
			ExtensionIn(space, m, n, d)
		}
	})
	if allocs != 0 {
		t.Fatalf("aligned operations allocate %v times per run", allocs)
	}
}

func TestAppendLiftedMatchesLiftDim(t *testing.T) {
	space, leaves := randomSpace(t, 25, 300)
	rng := rand.New(rand.NewSource(26))
	var buf []hierarchy.ID
	for i := 0; i < 2000; i++ {
		m := randomMDS(rng, space, leaves)
		for d, h := range space {
			levels := []int{hierarchy.LevelALL}
			if m[d].Level != hierarchy.LevelALL {
				for l := m[d].Level; l <= h.TopLevel(); l++ {
					levels = append(levels, l)
				}
			}
			level := levels[rng.Intn(len(levels))]
			want, err := liftDim(h, m[d], level)
			if err != nil {
				t.Fatal(err)
			}
			buf = SortDedupFrom(AppendLifted(buf[:0], h, m[d], level), 0)
			if !(MDS{{Level: level, IDs: buf}}).Equal(MDS{want}) {
				t.Fatalf("lift %v to %d: got %v, want %v", m[d], level, buf, want.IDs)
			}
		}
	}
}

func TestCoverIntoMatchesCover(t *testing.T) {
	space, leaves := randomSpace(t, 27, 300)
	rng := rand.New(rand.NewSource(28))
	var buf CoverBuf // reused throughout: results must not leak between calls
	for i := 0; i < 1500; i++ {
		members := make([]MDS, 1+rng.Intn(12))
		for j := range members {
			members[j] = randomMDS(rng, space, leaves)
		}
		if i%3 == 0 {
			// The split's case: two members at the same levels.
			a, b := alignedPair(t, rng, space, leaves)
			members = []MDS{a, b}
		}
		want, err := Cover(space, members...)
		if err != nil {
			t.Fatal(err)
		}
		var atLeast []int
		if i%2 == 0 {
			floor := randomMDS(rng, space, leaves)
			atLeast = make([]int, len(space))
			for d := range floor {
				atLeast[d] = floor[d].Level
			}
			if want, err = AdaptToLevels(space, want, atLeast); err != nil {
				t.Fatal(err)
			}
		}
		got, err := CoverInto(&buf, space, atLeast, members)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("CoverInto(%v, %v) = %v, want %v", atLeast, members, got, want)
		}
		if err := got.Validate(space); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := CoverInto(&buf, space, nil, nil); err == nil {
		t.Error("cover of zero members must fail")
	}
	if _, err := CoverInto(&buf, space, nil, []MDS{Top(len(space) + 1)}); err == nil {
		t.Error("member of the wrong arity must fail")
	}
}

// randomIDSet draws a sorted duplicate-free set of one level out of a small
// universe, so that empty, equal, nested and disjoint operands all come up.
func randomIDSet(rng *rand.Rand, universe int) []hierarchy.ID {
	var s []hierarchy.ID
	keep := rng.Intn(4) // 0: empty
	for v := 0; v < universe; v++ {
		if rng.Intn(4) < keep {
			s = append(s, hierarchy.MakeID(1, uint32(v)))
		}
	}
	return s
}

// TestCountKernelsMatchSetReferences holds the split's count kernels to the
// sets they count: unionSorted builds the union, a map answers membership.
func TestCountKernelsMatchSetReferences(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var shapes struct{ empty, equal, nested, disjoint int }
	for i := 0; i < 5000; i++ {
		universe := 1 + rng.Intn(40)
		s, a, b := randomIDSet(rng, universe), randomIDSet(rng, universe), randomIDSet(rng, universe)
		switch i % 5 {
		case 1:
			b = a
		case 2:
			b = a[:rng.Intn(len(a)+1)]
		case 3:
			s = s[:min(len(s), 1)] // a record's coordinate
		}
		union := unionSorted(a, b)
		inA, inB := map[hierarchy.ID]bool{}, map[hierarchy.ID]bool{}
		for _, x := range a {
			inA[x] = true
		}
		both := 0
		for _, x := range b {
			inB[x] = true
			if inA[x] {
				both++
			}
		}
		switch {
		case len(a) == 0 || len(b) == 0:
			shapes.empty++
		case len(union) == len(a) && len(a) == len(b):
			shapes.equal++
		case len(union) == len(a) || len(union) == len(b):
			shapes.nested++
		case both == 0:
			shapes.disjoint++
		}

		if got := UnionCount(a, b); got != len(union) {
			t.Fatalf("UnionCount(%v, %v) = %d, want %d", a, b, got, len(union))
		}
		if got := IntersectCount(a, b); got != both {
			t.Fatalf("IntersectCount(%v, %v) = %d, want %d", a, b, got, both)
		}

		var onlyA, onlyB, neither int
		var missing []hierarchy.ID
		for _, x := range s {
			switch {
			case inA[x] && !inB[x]:
				onlyA++
			case inB[x] && !inA[x]:
				onlyB++
			case !inA[x]:
				neither++
			}
			if !inA[x] {
				missing = append(missing, x)
			}
		}
		if gotA, gotB, gotNeither := MemberCounts(s, a, b); gotA != onlyA || gotB != onlyB || gotNeither != neither {
			t.Fatalf("MemberCounts(%v, %v, %v) = %d, %d, %d, want %d, %d, %d", s, a, b, gotA, gotB, gotNeither, onlyA, onlyB, neither)
		}
		prefix := []hierarchy.ID{hierarchy.ALL}
		if got := AppendMissing(prefix, s, a); !slices.Equal(got[1:], missing) || got[0] != hierarchy.ALL {
			t.Fatalf("AppendMissing(%v, %v) = %v, want %v", s, a, got[1:], missing)
		}
		// Merging what is missing into a copy of a is the union of a and s.
		if got := MergeDisjoint(slices.Clone(a), missing); !slices.Equal(got, unionSorted(a, s)) {
			t.Fatalf("MergeDisjoint(%v, %v) = %v, want %v", a, missing, got, unionSorted(a, s))
		}
	}
	if shapes.empty == 0 || shapes.equal == 0 || shapes.nested == 0 || shapes.disjoint == 0 {
		t.Fatalf("operand shapes not all drawn: %+v", shapes)
	}
}

func BenchmarkCoverInto(b *testing.B) {
	space, leaves := randomSpace(b, 3, 500)
	rng := rand.New(rand.NewSource(4))
	members := make([]MDS, 16)
	for i := range members {
		members[i] = randomMDS(rng, space, leaves)
	}
	var buf CoverBuf
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CoverInto(&buf, space, nil, members)
	}
}
