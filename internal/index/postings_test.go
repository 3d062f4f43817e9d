package index

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/dcindex/dctree/internal/cube"
	"github.com/dcindex/dctree/internal/hierarchy"
	"github.com/dcindex/dctree/internal/mds"
	"github.com/dcindex/dctree/internal/seqscan"
	"github.com/dcindex/dctree/internal/tpcd"
)

// probeContext returns rec's context as a copy that the write scratch's
// next mutation leaves alone.
func probeContext(t testing.TB, ix *Index, rec cube.Record) *recContext {
	t.Helper()
	rc, err := ix.recContext(rec)
	if err != nil {
		t.Fatal(err)
	}
	anc := make([][]hierarchy.ID, len(rc.anc))
	for d := range anc {
		anc[d] = slices.Clone(rc.anc[d])
	}
	return &recContext{rec: rec, anc: anc}
}

// checkPostings holds directory n's postings, built if stale, to the
// per-entry containment scan (refContaining) for every probe. A table
// still valid must also equal one built afresh from the entries, so a site
// that changed an entry without marking the table stale shows even where
// no probe tells the two apart.
func checkPostings(t testing.TB, ix *Index, n *Node, probes []*recContext) {
	t.Helper()
	if p := n.post; p != nil && p.valid {
		var fresh postings
		fresh.build(ix.ws.entryMDSs(n), ix.schema.Dims(), new(postingScratch))
		if !samePostings(p, &fresh) {
			t.Fatalf("node %d: its valid postings differ from a fresh build of its %d entries", n.id, n.Count())
		}
	}
	var acc []uint64
	p := ix.postings(n)
	entries := dirEntries(n)
	for _, rc := range probes {
		mask := p.containing(rc.anc, &acc)
		if len(mask) != (n.Count()+63)/64 {
			t.Fatalf("node %d: a mask of %d words for %d entries", n.id, len(mask), n.Count())
		}
		want, _ := refContaining(entries, rc)
		for i := range len(mask) * 64 {
			if got := mask[i/64]>>(i%64)&1 == 1; got != (i < len(want) && want[i]) {
				t.Fatalf("node %d record %v: postings say entry %d contains it: %v; of %d entries", n.id, rc.rec.Coords, i, got, len(want))
			}
		}
	}
}

func samePostings(a, b *postings) bool {
	if a.words != b.words || len(a.dims) != len(b.dims) {
		return false
	}
	for d := range a.dims {
		x, y := &a.dims[d], &b.dims[d]
		if x.levels != y.levels || x.stride != y.stride || x.used != y.used || x.shift != y.shift ||
			!slices.Equal(x.all, y.all) || !slices.Equal(x.tab, y.tab) {
			return false
		}
	}
	return true
}

// postingsStream checks postings along a stream of mutations of a bare
// index. After each it checks every directory the mutation minted or marked
// dirty — the only nodes a mutation changes — with the mutation's record
// and the fixed probes, and every 1,000 operations every directory.
type postingsStream struct {
	t      *testing.T
	ix     *Index
	nodes  *memNodes
	probes []*recContext
	ops    int
	widest int // the most entries a checked directory held
}

func newPostingsStream(t *testing.T, ix *Index, nodes *memNodes, probes []cube.Record) *postingsStream {
	s := &postingsStream{t: t, ix: ix, nodes: nodes}
	for _, r := range probes {
		s.probes = append(s.probes, probeContext(t, ix, r))
	}
	nodes.touched = map[NodeID]bool{}
	return s
}

func (s *postingsStream) insert(rec cube.Record) {
	s.t.Helper()
	if err := s.ix.Insert(rec); err != nil {
		s.t.Fatal(err)
	}
	s.after(rec)
}

func (s *postingsStream) delete(rec cube.Record) {
	s.t.Helper()
	if err := s.ix.Delete(rec); err != nil {
		s.t.Fatal(err)
	}
	s.after(rec)
}

func (s *postingsStream) after(rec cube.Record) {
	s.t.Helper()
	probes := append(slices.Clip(s.probes), probeContext(s.t, s.ix, rec))
	for id := range s.nodes.touched {
		if n := s.nodes.nodes[id]; n != nil && !n.leaf {
			s.check(n, probes)
		}
	}
	clear(s.nodes.touched)
	if s.ops++; s.ops%1000 == 0 {
		s.sweep(probes)
	}
}

// sweep checks every directory of the tree.
func (s *postingsStream) sweep(probes []*recContext) {
	s.t.Helper()
	for _, n := range collectNodes(s.t, s.ix) {
		if !n.leaf {
			s.check(n, probes)
		}
	}
}

func (s *postingsStream) check(n *Node, probes []*recContext) {
	s.t.Helper()
	checkPostings(s.t, s.ix, n, probes)
	s.widest = max(s.widest, n.Count())
}

// TestPostingsMatchContains holds every directory's postings to the
// per-entry containment scan after every operation: on the 15k and 100k
// golden insert streams (TestGoldenShapeGap's), on a random stream of
// inserts and deletes, and on a tree whose supernodes pass 64 entries, so
// that masks of several words are asked.
func TestPostingsMatchContains(t *testing.T) {
	for _, n := range []int{15000, 100000} {
		t.Run(fmt.Sprintf("golden-%dk", n/1000), func(t *testing.T) {
			if n > 15000 && testing.Short() {
				t.Skip("inserts 100k records")
			}
			gen, err := tpcd.New(1, tpcd.ScaleFor(n))
			if err != nil {
				t.Fatal(err)
			}
			recs := gen.Records(n)
			ix, nodes := newBareIndex(t, gen.Schema(), DefaultConfig())
			s := newPostingsStream(t, ix, nodes, gen.Records(3))
			for _, r := range recs {
				s.insert(r)
			}
			s.sweep(s.probes)
		})
	}

	t.Run("insert-delete", func(t *testing.T) {
		ix, nodes := newBareIndexAt(t, testSchema(t), smallConfig(), payload512)
		rng := rand.New(rand.NewSource(41))
		recs := genRecords(t, ix.schema, rng, 3003)
		s := newPostingsStream(t, ix, nodes, recs[3000:])
		var live []cube.Record
		for _, r := range recs[:3000] {
			s.insert(r)
			live = append(live, r)
			if rng.Intn(3) == 0 {
				k := rng.Intn(len(live))
				s.delete(live[k])
				live[k] = live[len(live)-1]
				live = live[:len(live)-1]
			}
		}
		s.sweep(s.probes)
		if err := validate(ix); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("supernodes", func(t *testing.T) {
		ix, nodes := newBareIndexAt(t, testSchema(t), supernodeConfig(), payload1K)
		rng := rand.New(rand.NewSource(42))
		recs := genRecords(t, ix.schema, rng, 4003)
		s := newPostingsStream(t, ix, nodes, recs[4000:])
		for _, r := range recs[:4000] {
			s.insert(r)
		}
		if s.widest <= 64 {
			t.Fatalf("the widest directory held %d entries: no mask had a second word", s.widest)
		}
		// Deletes then shrink the supernodes.
		for i := 0; i < 4000; i += 2 {
			s.delete(recs[i])
		}
		s.sweep(s.probes)
		if err := validate(ix); err != nil {
			t.Fatal(err)
		}
	})
}

// supernodeConfig refuses nearly every directory split, so directories —
// of entries refined to one value a dimension, on blocks of
// payload1K — grow as supernodes past 64 entries.
func supernodeConfig() Config {
	cfg := smallConfig()
	cfg.MaxSupernodeBlocks = 32
	cfg.MaxOverlapRatio = 0.0001
	cfg.MinFillRatio = 0.5
	cfg.RefineBound = 1
	return cfg
}

// TestPostingBuilds pins when postings are built. An insert contained at
// every level changes no entry MDS, so it builds nothing, not even later; a
// data-node split leaves stale only the postings of its parent, the one
// directory that gained an entry; and seed 1's 15k build
// (TestGoldenShapeGap's) builds an exact number of tables — 92. It was 239
// until data nodes began to hold the rows their block fits at their codes'
// byte widths (a third fewer data-node splits, fewer stale tables), and 94
// until a directory overflowed by its bytes, not at 24 entries (one
// level-1 directory fewer to split). A delete that removes no value from
// an entry's MDS leaves every table valid, so the next insert builds
// none; one that removes a value leaves stale exactly the directories
// whose entry on the delete path lost one.
func TestPostingBuilds(t *testing.T) {
	gen, err := tpcd.New(1, tpcd.ScaleFor(15000))
	if err != nil {
		t.Fatal(err)
	}
	ix, nodes := newBareIndex(t, gen.Schema(), DefaultConfig())
	recs := gen.Records(15000)
	for _, r := range recs {
		if err := ix.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	builds := func() int64 { return ix.Counters().PostingBuilds }
	if got, want := builds(), int64(92); got != want {
		t.Errorf("the 15k build built %d postings, pinned %d", got, want)
	}

	// stale lists the directories whose postings are stale, and builds them.
	stale := func() (ids []NodeID) {
		for _, n := range collectNodes(t, ix) {
			if !n.leaf && (n.post == nil || !n.post.valid) {
				ids = append(ids, n.id)
				ix.postings(n)
			}
		}
		return ids
	}
	// descend follows rec's choices down to its data node; ok is false when
	// some directory on the way has no entry containing it.
	descend := func(rec cube.Record) (parent, leaf *Node, ok bool) {
		rc, err := ix.recContext(rec)
		if err != nil {
			t.Fatal(err)
		}
		n, err := ix.store.Get(ix.head.Root)
		for err == nil && !n.leaf {
			idx, contained, cerr := ix.chooseSubtree(n, rc)
			if cerr != nil || !contained {
				return nil, nil, false
			}
			parent = n
			n, err = ix.store.Get(n.flat.Child(idx))
		}
		if err != nil {
			t.Fatal(err)
		}
		return parent, n, true
	}

	stale()
	contained, split := 0, false
	for _, r := range gen.Records(5000) {
		parent, leaf, ok := descend(r)
		if !ok {
			continue // a cover would change entries above
		}
		before, c := builds(), ix.Counters()
		if err := ix.Insert(r); err != nil {
			t.Fatal(err)
		}
		if got := builds() - before; got != 0 {
			t.Fatalf("a contained insert built %d postings", got)
		}
		after := ix.Counters()
		ids := stale()
		if after.SplitsHierarchy+after.SplitsForced == c.SplitsHierarchy+c.SplitsForced {
			if len(ids) != 0 {
				t.Fatalf("a contained insert into data node %d left postings stale: %v", leaf.id, ids)
			}
			contained++
			continue
		}
		if !slices.Equal(ids, []NodeID{parent.id}) {
			t.Fatalf("a split of data node %d under directory %d left postings stale: %v", leaf.id, parent.id, ids)
		}
		split = true
		break
	}
	if contained == 0 || !split {
		t.Fatalf("%d contained inserts, a split: %v; both must occur", contained, split)
	}

	// Deletes. Each one's path is noted with its entries' MDSs before; a
	// delete that empties a node or rebuilds a cover is passed over.
	stale()
	fresh := gen.Records(20)
	kept, lost, skipped := 0, 0, 0
	for i := 0; i < len(recs) && (kept < len(fresh) || lost < 20); i++ {
		path := deletePath(t, ix, recs[i])
		before := make([]mds.MDS, len(path)-1)
		for k, id := range path[:len(path)-1] {
			before[k] = entryTo(nodes.nodes[id], path[k+1]).MDS.Clone()
		}
		c, count := ix.Counters(), len(nodes.nodes)
		if err := ix.Delete(recs[i]); err != nil {
			t.Fatal(err)
		}
		if ix.Counters().DeleteRepairFallbacks != c.DeleteRepairFallbacks || len(nodes.nodes) != count {
			skipped++
			stale()
			continue
		}
		var changed []NodeID
		for k, id := range path[:len(path)-1] {
			if !entryTo(nodes.nodes[id], path[k+1]).MDS.Equal(before[k]) {
				changed = append(changed, id)
			}
		}
		ids := stale()
		slices.Sort(ids)
		slices.Sort(changed)
		if !slices.Equal(ids, changed) {
			t.Fatalf("delete %d: entries on the path lost a value in directories %v; stale postings: %v", i, changed, ids)
		}
		if len(changed) > 0 {
			lost++
			continue
		}
		if kept == len(fresh) {
			continue
		}
		// Every table is valid: the next insert builds none.
		b := builds()
		if err := ix.Insert(fresh[kept]); err != nil {
			t.Fatal(err)
		}
		if got := builds() - b; got != 0 {
			t.Fatalf("an insert after a delete that removed no value built %d postings", got)
		}
		kept++
		stale()
	}
	if kept < len(fresh) || lost < 20 {
		t.Fatalf("%d deletes removed no value, %d removed one (%d passed over); 20 of each must occur", kept, lost, skipped)
	}
}

// entryTo returns directory n's entry for child.
func entryTo(n *Node, child NodeID) entry {
	for _, e := range dirEntries(n) {
		if e.Child == child {
			return e
		}
	}
	panic(fmt.Sprintf("node %d has no entry for %d", n.id, child))
}

// FuzzPostings drives a tree of small nodes through the inserts and
// deletes its input spells, and holds every directory's postings to the
// per-entry containment scan after each (postingsStream). An odd seed
// builds under supernodeConfig, so that supernodes pass 64 entries.
func FuzzPostings(f *testing.F) {
	f.Add(int64(1), []byte("inserts, splits and deletes"))
	f.Add(int64(2), bytes.Repeat([]byte{1, 2, 3, 4}, 300))
	f.Add(int64(3), bytes.Repeat([]byte{7, 9, 11, 13, 15, 17, 19}, 200))
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 1024 {
			ops = ops[:1024]
		}
		cfg, payload := smallConfig(), payload512
		if seed&1 == 1 {
			cfg, payload = supernodeConfig(), payload1K
		}
		ix, nodes := newBareIndexAt(t, testSchema(t), cfg, payload)
		recs := genRecords(t, ix.schema, rand.New(rand.NewSource(seed)), len(ops)+2)
		s := newPostingsStream(t, ix, nodes, recs[len(ops):])
		var live []cube.Record
		for i, op := range ops {
			// One op in four deletes the live record its other bits pick.
			if op%4 == 0 && len(live) > 0 {
				k := int(op/4) % len(live)
				s.delete(live[k])
				live[k] = live[len(live)-1]
				live = live[:len(live)-1]
				continue
			}
			s.insert(recs[i])
			live = append(live, recs[i])
		}
		s.sweep(s.probes)
		if err := validate(ix); err != nil {
			t.Fatal(err)
		}
	})
}

// TestRollingWindowPostingBuilds runs the paper's fully dynamic scenario
// (tpcd.Window) on the bare index: a 15k random-order window over one
// turnover, each step the insert of the newest record and the delete of the
// oldest. A delete that only repairs aggregates leaves every table valid,
// so the steps build an exact, small number of postings — pinned, and at
// most 0.05 a step; when every delete marked its path stale, the steps
// built 23,538, 1.57 a step. At each half turnover the tree is validated
// and every query class is answered as the sequential scan of the live
// records answers it.
func TestRollingWindowPostingBuilds(t *testing.T) {
	const size, pinned = 15000, 117
	gen, err := tpcd.New(1, tpcd.ScaleFor(size))
	if err != nil {
		t.Fatal(err)
	}
	w := gen.Window(size, size, tpcd.Random)
	ix, nodes := newBareIndex(t, gen.Schema(), DefaultConfig())
	for _, r := range w.Build() {
		if err := ix.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	queries := drawQueryClasses(t, gen, 77, 20)
	built := ix.Counters().PostingBuilds
	for i := 0; i < w.Steps(); i++ {
		newest, oldest := w.Step(i)
		if err := ix.Insert(newest); err != nil {
			t.Fatalf("step %d: Insert: %v", i, err)
		}
		if err := ix.Delete(oldest); err != nil {
			t.Fatalf("step %d: Delete: %v", i, err)
		}
		if (i+1)%(size/2) != 0 {
			continue
		}
		if err := validate(ix); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		oracle := seqscan.New(gen.Schema())
		for _, r := range w.Live(i) {
			if err := oracle.Insert(r); err != nil {
				t.Fatal(err)
			}
		}
		for _, class := range queryClassNames {
			for k, q := range queries[class] {
				res, err := ix.Execute(context.Background(), nodes, ix.head.Root, Query{MDS: q})
				if err != nil {
					t.Fatal(err)
				}
				want, err := oracle.RangeAgg(q, 0)
				if err != nil {
					t.Fatal(err)
				}
				if !aggClose(res.Agg, want) {
					t.Fatalf("step %d %s query %d: %+v, scan %+v", i, class, k, res.Agg, want)
				}
			}
		}
	}
	got := ix.Counters().PostingBuilds - built
	t.Logf("%d posting builds over %d steps: %.4f a step", got, w.Steps(), float64(got)/float64(w.Steps()))
	if got != pinned {
		t.Errorf("the steps built %d postings, pinned %d", got, pinned)
	}
	if float64(got) > 0.05*float64(w.Steps()) {
		t.Errorf("%d posting builds over %d steps: more than 0.05 a step", got, w.Steps())
	}
}
