package hierarchy

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustCustomer(t testing.TB) *Hierarchy {
	t.Helper()
	h, err := New("Customer", "Customer", "MktSegment", "Nation", "Region")
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return h
}

func TestIDPacking(t *testing.T) {
	cases := []struct {
		level int
		code  uint32
	}{
		{0, 0}, {0, 1}, {3, 42}, {MaxLevel, MaxCode}, {7, 1 << 20},
	}
	for _, c := range cases {
		id := MakeID(c.level, c.code)
		if id.Level() != c.level {
			t.Errorf("MakeID(%d,%d).Level() = %d", c.level, c.code, id.Level())
		}
		if id.Code() != c.code {
			t.Errorf("MakeID(%d,%d).Code() = %d", c.level, c.code, id.Code())
		}
		if id.IsALL() {
			t.Errorf("MakeID(%d,%d) unexpectedly ALL", c.level, c.code)
		}
	}
	if !ALL.IsALL() {
		t.Error("ALL.IsALL() = false")
	}
	if ALL.Level() != LevelALL {
		t.Errorf("ALL.Level() = %d, want %d", ALL.Level(), LevelALL)
	}
}

func TestIDPackingRoundtripQuick(t *testing.T) {
	f := func(level uint8, code uint32) bool {
		l := int(level) % (LevelALL + 1)
		c := code & MaxCode
		id := MakeID(l, c)
		return id.Level() == l && id.Code() == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMakeIDPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { MakeID(-1, 0) },
		func() { MakeID(LevelALL+1, 0) },
		func() { MakeID(0, MaxCode+1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestIDString(t *testing.T) {
	if got := ALL.String(); got != "ALL" {
		t.Errorf("ALL.String() = %q", got)
	}
	if got := MakeID(2, 7).String(); got != "L2#7" {
		t.Errorf("String() = %q", got)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New("empty"); err == nil {
		t.Error("New with no levels should fail")
	}
	names := make([]string, MaxLevel+2)
	for i := range names {
		names[i] = fmt.Sprintf("L%d", i)
	}
	if _, err := New("toodeep", names...); err == nil {
		t.Error("New with too many levels should fail")
	}
	h, err := New("ok", names[:MaxLevel+1]...)
	if err != nil {
		t.Fatalf("New at max depth: %v", err)
	}
	if h.Depth() != MaxLevel+1 {
		t.Errorf("Depth = %d", h.Depth())
	}
}

func TestRegisterAndLookup(t *testing.T) {
	h := mustCustomer(t)
	leaf, err := h.Register("Europe", "Germany", "Autos", "C#1")
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	if leaf.Level() != 0 {
		t.Errorf("leaf level = %d", leaf.Level())
	}
	again, err := h.Register("Europe", "Germany", "Autos", "C#1")
	if err != nil {
		t.Fatalf("re-Register: %v", err)
	}
	if again != leaf {
		t.Errorf("re-registration returned %v, want %v", again, leaf)
	}
	got, err := h.Lookup("Europe", "Germany", "Autos", "C#1")
	if err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	if got != leaf {
		t.Errorf("Lookup = %v, want %v", got, leaf)
	}
	if _, err := h.Lookup("Europe", "Germany", "Autos", "C#404"); err == nil {
		t.Error("Lookup of unknown leaf should fail")
	}
	if _, err := h.Register("Europe", "Germany"); err == nil {
		t.Error("Register with short path should fail")
	}
	if _, err := h.Lookup("Europe", "Germany", "Autos", "C#1", "extra"); err == nil {
		t.Error("Lookup with long path should fail")
	}
}

// TestScopedNames checks that equal strings under different parents intern
// to distinct IDs (per-nation market segments in the paper's schema).
func TestScopedNames(t *testing.T) {
	h := mustCustomer(t)
	a, _ := h.Register("Europe", "Germany", "Autos", "C#1")
	b, _ := h.Register("Europe", "France", "Autos", "C#2")
	segA, _ := h.AncestorAt(a, 1)
	segB, _ := h.AncestorAt(b, 1)
	if segA == segB {
		t.Errorf("identical segment names under different nations interned to same ID %v", segA)
	}
	nameA, _ := h.ValueName(segA)
	nameB, _ := h.ValueName(segB)
	if nameA != "Autos" || nameB != "Autos" {
		t.Errorf("segment names = %q, %q", nameA, nameB)
	}
}

func TestParentChain(t *testing.T) {
	h := mustCustomer(t)
	leaf, _ := h.Register("Europe", "Germany", "Autos", "C#1")
	seg, err := h.Parent(leaf)
	if err != nil {
		t.Fatalf("Parent: %v", err)
	}
	nat, _ := h.Parent(seg)
	reg, _ := h.Parent(nat)
	top, _ := h.Parent(reg)
	if !top.IsALL() {
		t.Errorf("top parent = %v, want ALL", top)
	}
	if seg.Level() != 1 || nat.Level() != 2 || reg.Level() != 3 {
		t.Errorf("levels = %d,%d,%d", seg.Level(), nat.Level(), reg.Level())
	}
	if p, err := h.Parent(ALL); err != nil || !p.IsALL() {
		t.Errorf("Parent(ALL) = %v, %v", p, err)
	}
	if _, err := h.Parent(MakeID(0, 12345)); err == nil {
		t.Error("Parent of unregistered ID should fail")
	}
}

func TestAncestorAt(t *testing.T) {
	h := mustCustomer(t)
	leaf, _ := h.Register("Europe", "Germany", "Autos", "C#1")
	for level := 0; level <= 3; level++ {
		anc, err := h.AncestorAt(leaf, level)
		if err != nil {
			t.Fatalf("AncestorAt(%d): %v", level, err)
		}
		if anc.Level() != level {
			t.Errorf("AncestorAt(%d).Level() = %d", level, anc.Level())
		}
	}
	if anc, err := h.AncestorAt(leaf, LevelALL); err != nil || !anc.IsALL() {
		t.Errorf("AncestorAt(ALL) = %v, %v", anc, err)
	}
	nat, _ := h.AncestorAt(leaf, 2)
	if _, err := h.AncestorAt(nat, 0); err == nil {
		t.Error("lowering a value should fail")
	}
	if _, err := h.AncestorAt(ALL, 2); err == nil {
		t.Error("specializing ALL should fail")
	}
	if _, err := h.AncestorAt(leaf, 9); err == nil {
		t.Error("AncestorAt above named levels should fail")
	}
}

func TestUnderPartialOrdering(t *testing.T) {
	h := mustCustomer(t)
	c1, _ := h.Register("Europe", "Germany", "Autos", "C#1")
	c2, _ := h.Register("Europe", "France", "Wine", "C#2")
	c3, _ := h.Register("America", "USA", "Tech", "C#3")
	germany, _ := h.AncestorAt(c1, 2)
	europe, _ := h.AncestorAt(c1, 3)
	america, _ := h.AncestorAt(c3, 3)

	if !h.Under(c1, germany) || !h.Under(c1, europe) || !h.Under(germany, europe) {
		t.Error("expected c1 ⪯ Germany ⪯ Europe")
	}
	if !h.Under(c2, europe) {
		t.Error("expected c2 ⪯ Europe")
	}
	if h.Under(c3, europe) || h.Under(c1, america) {
		t.Error("cross-region Under should be false")
	}
	if !h.Under(c1, c1) {
		t.Error("Under must be reflexive")
	}
	if !h.Under(c1, ALL) || !h.Under(europe, ALL) || !h.Under(ALL, ALL) {
		t.Error("everything is under ALL")
	}
	if h.Under(ALL, europe) {
		t.Error("ALL under a named value should be false")
	}
	if h.Under(europe, germany) {
		t.Error("Under must not invert the hierarchy")
	}
	if h.Under(germany, c1) {
		t.Error("a coarser value is not under a finer one")
	}
}

func TestValuesAtAndCounts(t *testing.T) {
	h := mustCustomer(t)
	h.Register("Europe", "Germany", "Autos", "C#1")
	h.Register("Europe", "Germany", "Autos", "C#2")
	h.Register("Europe", "France", "Wine", "C#3")
	h.Register("America", "USA", "Tech", "C#4")

	wantCounts := map[int]int{0: 4, 1: 3, 2: 3, 3: 2}
	for level, want := range wantCounts {
		got, err := h.CountAt(level)
		if err != nil {
			t.Fatalf("CountAt(%d): %v", level, err)
		}
		if got != want {
			t.Errorf("CountAt(%d) = %d, want %d", level, got, want)
		}
		vals, err := h.ValuesAt(level)
		if err != nil || len(vals) != want {
			t.Errorf("ValuesAt(%d) len = %d, want %d (err %v)", level, len(vals), want, err)
		}
		for i, id := range vals {
			if id.Code() != uint32(i) || id.Level() != level {
				t.Errorf("ValuesAt(%d)[%d] = %v: codes must be dense insertion order", level, i, id)
			}
		}
	}
	if n, err := h.CountAt(LevelALL); err != nil || n != 1 {
		t.Errorf("CountAt(ALL) = %d, %v", n, err)
	}
	if _, err := h.CountAt(99); err == nil {
		t.Error("CountAt(99) should fail")
	}
	if _, err := h.ValuesAt(-1); err == nil {
		t.Error("ValuesAt(-1) should fail")
	}
}

func TestChildrenAndLeafCount(t *testing.T) {
	h := mustCustomer(t)
	c1, _ := h.Register("Europe", "Germany", "Autos", "C#1")
	h.Register("Europe", "Germany", "Autos", "C#2")
	h.Register("Europe", "Germany", "Wine", "C#3")
	h.Register("Europe", "France", "Wine", "C#4")
	h.Register("America", "USA", "Tech", "C#5")

	topKids, err := h.Children(ALL)
	if err != nil || len(topKids) != 2 {
		t.Fatalf("Children(ALL) = %v, %v; want 2 regions", topKids, err)
	}
	germany, _ := h.AncestorAt(c1, 2)
	kids, _ := h.Children(germany)
	if len(kids) != 2 {
		t.Errorf("Children(Germany) = %d segments, want 2", len(kids))
	}
	if kids, _ := h.Children(c1); kids != nil {
		t.Errorf("Children(leaf) = %v, want nil", kids)
	}
	if _, err := h.Children(MakeID(2, 999)); err == nil {
		t.Error("Children of unknown ID should fail")
	}

	europe, _ := h.AncestorAt(c1, 3)
	if n, _ := h.LeafCountUnder(europe); n != 4 {
		t.Errorf("LeafCountUnder(Europe) = %d, want 4", n)
	}
	if n, _ := h.LeafCountUnder(germany); n != 3 {
		t.Errorf("LeafCountUnder(Germany) = %d, want 3", n)
	}
	if n, _ := h.LeafCountUnder(ALL); n != 5 {
		t.Errorf("LeafCountUnder(ALL) = %d, want 5", n)
	}
	if n, _ := h.LeafCountUnder(c1); n != 1 {
		t.Errorf("LeafCountUnder(leaf) = %d, want 1", n)
	}
	if _, err := h.LeafCountUnder(MakeID(1, 999)); err == nil {
		t.Error("LeafCountUnder of unknown ID should fail")
	}
}

func TestPathRendering(t *testing.T) {
	h := mustCustomer(t)
	leaf, _ := h.Register("Europe", "Germany", "Autos", "C#1")
	p, err := h.Path(leaf)
	if err != nil {
		t.Fatalf("Path: %v", err)
	}
	if p != "Europe/Germany/Autos/C#1" {
		t.Errorf("Path = %q", p)
	}
	if p, _ := h.Path(ALL); p != "ALL" {
		t.Errorf("Path(ALL) = %q", p)
	}
	if _, err := h.Path(MakeID(0, 777)); err == nil {
		t.Error("Path of unknown ID should fail")
	}
}

func TestValidate(t *testing.T) {
	h := mustCustomer(t)
	for i := 0; i < 100; i++ {
		h.Register(fmt.Sprintf("R%d", i%3), fmt.Sprintf("N%d", i%7), fmt.Sprintf("S%d", i%4), fmt.Sprintf("C%d", i))
	}
	if err := h.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	// Corrupt the parent map and check Validate notices.
	leaf := h.byLevel[0][0]
	h.parents[0][leaf.Code()] = MakeID(3, 0) // skips a level
	if err := h.Validate(); err == nil {
		t.Error("Validate should detect a parent that skips a level")
	}
}

// TestRandomizedPartialOrderLaws drives random registrations and checks the
// algebraic laws of ⪯ (reflexive, antisymmetric across levels, transitive,
// consistent with AncestorAt).
func TestRandomizedPartialOrderLaws(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := mustCustomer(t)
	var leaves []ID
	for i := 0; i < 400; i++ {
		leaf, err := h.Register(
			fmt.Sprintf("R%d", rng.Intn(5)),
			fmt.Sprintf("N%d", rng.Intn(20)),
			fmt.Sprintf("S%d", rng.Intn(5)),
			fmt.Sprintf("C%d", i),
		)
		if err != nil {
			t.Fatalf("Register: %v", err)
		}
		leaves = append(leaves, leaf)
	}
	for i := 0; i < 2000; i++ {
		a := leaves[rng.Intn(len(leaves))]
		lvl := rng.Intn(4)
		anc, err := h.AncestorAt(a, lvl)
		if err != nil {
			t.Fatalf("AncestorAt: %v", err)
		}
		if !h.Under(a, anc) {
			t.Fatalf("a ⪯ AncestorAt(a) violated: %v, %v", a, anc)
		}
		// Transitivity: anc2 above anc implies a under anc2.
		if lvl < 3 {
			anc2, _ := h.AncestorAt(anc, lvl+1)
			if !h.Under(anc, anc2) || !h.Under(a, anc2) {
				t.Fatalf("transitivity violated: %v %v %v", a, anc, anc2)
			}
		}
		b := leaves[rng.Intn(len(leaves))]
		if a != b && h.Under(a, b) {
			t.Fatalf("distinct leaves cannot be ordered: %v %v", a, b)
		}
	}
	if err := h.Validate(); err != nil {
		t.Fatalf("Validate after randomized load: %v", err)
	}
}

// checkAncestorTables compares every composed table row with the checked
// walk of AncestorAt, the reference.
func checkAncestorTables(t testing.TB, h *Hierarchy) {
	t.Helper()
	for from := 0; from < h.TopLevel(); from++ {
		ids, _ := h.ValuesAt(from)
		for to := from + 1; to <= h.TopLevel(); to++ {
			tab := h.AncestorTable(from, to)
			if len(tab) != len(ids) {
				t.Fatalf("table %d→%d has %d rows, level has %d values", from, to, len(tab), len(ids))
			}
			for _, id := range ids {
				want, err := h.AncestorAt(id, to)
				if err != nil {
					t.Fatal(err)
				}
				if got := tab[id.Code()]; got != want {
					t.Fatalf("AncestorTable(%d,%d)[%v] = %v, AncestorAt = %v", from, to, id, got, want)
				}
			}
		}
	}
}

// checkChildLinks walks every value's child list and compares it with the
// father table, the reference: each child listed once, under its father,
// newest first, and every value of a level below the top listed somewhere.
func checkChildLinks(t testing.TB, h *Hierarchy) {
	t.Helper()
	for level := 1; level <= h.TopLevel(); level++ {
		parents, _ := h.ParentTable(level - 1)
		head, next := h.ChildLinks(level)
		count, _ := h.CountAt(level)
		if len(head) != count || len(next) != len(parents) {
			t.Fatalf("level %d: %d heads for %d values, %d links for %d children",
				level, len(head), count, len(next), len(parents))
		}
		listed := 0
		for p := range head {
			prev := NoChild
			for c := head[p]; c != NoChild; c = next[c] {
				if int(c) >= len(parents) || parents[c] != MakeID(level, uint32(p)) {
					t.Fatalf("level %d value %d lists child %d, whose father is not it", level, p, c)
				}
				if prev != NoChild && c >= prev {
					t.Fatalf("level %d value %d lists child %d after %d: not newest first", level, p, c, prev)
				}
				prev = c
				listed++
			}
		}
		if listed != len(parents) {
			t.Fatalf("level %d lists %d children, level %d has %d values", level, listed, level-1, len(parents))
		}
	}
}

// TestAncestorTableMatchesAncestorAt grows a random hierarchy three ways —
// registration, binary decoding, replayed registration deltas — and checks
// the composed ancestor tables against AncestorAt after each.
func TestAncestorTableMatchesAncestorAt(t *testing.T) {
	growThreeWays(t, checkAncestorTables)
}

// TestChildLinksMatchFatherTable checks the child lists the same three ways.
func TestChildLinksMatchFatherTable(t *testing.T) {
	growThreeWays(t, checkChildLinks)
}

// growThreeWays grows a random hierarchy by registration, binary decoding
// and replayed registration deltas, and checks each with check.
func growThreeWays(t *testing.T, check func(testing.TB, *Hierarchy)) {
	rng := rand.New(rand.NewSource(12))
	h := mustCustomer(t)
	type delta struct {
		id, parent ID
		name       string
	}
	var deltas []delta
	h.SetRegisterHook(func(id, parent ID, name string) { deltas = append(deltas, delta{id, parent, name}) })
	for i := 0; i < 3000; i++ {
		_, err := h.Register(fmt.Sprintf("R%d", rng.Intn(5)), fmt.Sprintf("N%d", rng.Intn(9)),
			fmt.Sprintf("S%d", rng.Intn(4)), fmt.Sprintf("C%d", rng.Intn(2000)))
		if err != nil {
			t.Fatal(err)
		}
		if i%500 == 0 {
			check(t, h)
		}
	}
	check(t, h)

	decoded, _, err := DecodeHierarchy(h.AppendEncode(nil))
	if err != nil {
		t.Fatal(err)
	}
	check(t, decoded)
	// A decoded hierarchy keeps extending its tables.
	if _, err := decoded.Register("R9", "N9", "S9", "C-new"); err != nil {
		t.Fatal(err)
	}
	check(t, decoded)

	replayed := mustCustomer(t)
	for _, d := range deltas {
		if err := replayed.RestoreValue(d.id, d.parent, d.name); err != nil {
			t.Fatal(err)
		}
	}
	check(t, replayed)
}

func TestSortIDs(t *testing.T) {
	ids := []ID{MakeID(2, 5), MakeID(0, 9), MakeID(2, 1), MakeID(1, 0), ALL}
	SortIDs(ids)
	for i := 1; i < len(ids); i++ {
		if ids[i-1] > ids[i] {
			t.Fatalf("not sorted: %v", ids)
		}
	}
	if !ids[len(ids)-1].IsALL() {
		t.Errorf("ALL should sort last: %v", ids)
	}
}

func BenchmarkRegister(b *testing.B) {
	h := mustCustomer(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Register(fmt.Sprintf("R%d", i%5), fmt.Sprintf("N%d", i%25), fmt.Sprintf("S%d", i%5), fmt.Sprintf("C%d", i))
	}
}

func BenchmarkAncestorAt(b *testing.B) {
	h := mustCustomer(b)
	leaf, _ := h.Register("Europe", "Germany", "Autos", "C#1")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.AncestorAt(leaf, 3)
	}
}
