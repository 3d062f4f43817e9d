package index

import (
	"math/rand"
	"testing"

	"github.com/dcindex/dctree/internal/cube"
	"github.com/dcindex/dctree/internal/hierarchy"
	"github.com/dcindex/dctree/internal/mds"
)

// The write-path kernel (scratch.go, insert.go, split.go, delete.go) is held
// here to reference implementations written on the allocating mds functions
// and the checked hierarchy walk — the write path as it was before the
// kernel. TestGoldenTreeShape pins the trees the two build; these tests
// compare them decision by decision on random inputs, on a bare index.

// refEnlargementCost is the choose-subtree cost function on AncestorAt: no
// tables, no weight table, no bound.
func refEnlargementCost(t *testing.T, tree *Index, entryMDS mds.MDS, rec cube.Record) float64 {
	t.Helper()
	weight := float64(levelWeight)
	if tree.cfg.FlatChooseSubtree {
		weight = 1
	}
	cost := 0.0
	for d, h := range tree.space() {
		ds := entryMDS[d]
		if ds.Level == hierarchy.LevelALL {
			continue
		}
		for level := ds.Level; level <= h.TopLevel(); level++ {
			anc, err := h.AncestorAt(rec.Coords[d], level)
			if err != nil {
				t.Fatal(err)
			}
			covered := false
			for _, v := range ds.IDs {
				va, err := h.AncestorAt(v, level)
				if err != nil {
					t.Fatal(err)
				}
				if va == anc {
					covered = true
					break
				}
			}
			if covered {
				break
			}
			cost += pow(weight, level)
		}
	}
	return cost
}

// refChooseSubtree evaluates every entry in full and applies the
// (cost, volume, size, first index) order.
func refChooseSubtree(t *testing.T, tree *Index, n *Node, rec cube.Record) int {
	t.Helper()
	best := -1
	var bestCost, bestVol float64
	var bestSize int
	for i := range n.entries {
		m := n.entries[i].MDS
		cost, vol, size := refEnlargementCost(t, tree, m, rec), m.Volume(), m.Size()
		if best == -1 || cost < bestCost ||
			(cost == bestCost && vol < bestVol) ||
			(cost == bestCost && vol == bestVol && size < bestSize) {
			best, bestCost, bestVol, bestSize = i, cost, vol, size
		}
	}
	return best
}

// refDescribeEntryAt and refDescribeNodeAt are the split's entry adaptation
// on whole MDSs: lift with AdaptToLevels, descend where the entry is coarser
// than a target, merge with Cover.
func refDescribeEntryAt(t *testing.T, tree *Index, e *Entry, leaf bool, targets []int) mds.MDS {
	t.Helper()
	descend := false
	for i, target := range targets {
		if !leaf && levelAboveInt(e.MDS[i].Level, target) {
			descend = true
		}
	}
	if descend {
		child, err := tree.store.Get(e.Child)
		if err != nil {
			t.Fatal(err)
		}
		return refDescribeNodeAt(t, tree, child, targets)
	}
	m, err := mds.AdaptToLevels(tree.space(), e.MDS, targets)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func refDescribeNodeAt(t *testing.T, tree *Index, n *Node, targets []int) mds.MDS {
	t.Helper()
	members := make([]mds.MDS, n.Count())
	for i, e := range entriesOf(n) {
		members[i] = refDescribeEntryAt(t, tree, &e, n.leaf, targets)
	}
	m, err := mds.Cover(tree.space(), members...)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// allNodes lists every node of the tree with the MDS its parent holds
// for it (the top MDS for the root).
func allNodes(t *testing.T, tree *Index) (nodes []*Node, nodeMDSs []mds.MDS) {
	t.Helper()
	var walk func(id NodeID, m mds.MDS)
	walk = func(id NodeID, m mds.MDS) {
		n, err := tree.store.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		nodes, nodeMDSs = append(nodes, n), append(nodeMDSs, m)
		if !n.leaf {
			for i := range n.entries {
				walk(n.entries[i].Child, n.entries[i].MDS)
			}
		}
	}
	walk(tree.root, mds.Top(tree.schema.Dims()))
	return nodes, nodeMDSs
}

// kernelTestTree grows a tree of a few levels, with deletes mixed in so that
// repaired entries are among the operands.
func kernelTestTree(t *testing.T, cfg Config, seed int64) (*Index, []cube.Record) {
	t.Helper()
	tree := newTestIndex(t, cfg)
	rng := rand.New(rand.NewSource(seed))
	recs := genRecords(t, tree.schema, rng, 1500)
	for i, r := range recs[:1200] {
		if err := tree.Insert(r); err != nil {
			t.Fatal(err)
		}
		if i%7 == 3 {
			if err := tree.Delete(recs[i-2]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	return tree, recs
}

func TestChooseSubtreeMatchesReference(t *testing.T) {
	flat := smallConfig()
	flat.FlatChooseSubtree = true
	for name, cfg := range map[string]Config{"weighted": smallConfig(), "flat": flat} {
		t.Run(name, func(t *testing.T) {
			tree, recs := kernelTestTree(t, cfg, 51)
			nodes, _ := allNodes(t, tree)
			checked := 0
			// Records both in the tree and new to it.
			for _, rec := range recs[1000:] {
				rc, err := tree.recContext(rec)
				if err != nil {
					t.Fatal(err)
				}
				for _, n := range nodes {
					if n.leaf {
						continue
					}
					got, err := tree.chooseSubtree(n, rc)
					if err != nil {
						t.Fatal(err)
					}
					if want := refChooseSubtree(t, tree, n, rec); got != want {
						t.Fatalf("node %d record %v: chooseSubtree = %d, reference = %d", n.id, rec.Coords, got, want)
					}
					for i := range n.entries {
						m := n.entries[i].MDS
						if cost, _ := tree.enlargementCost(m, rc, 0, false); cost != refEnlargementCost(t, tree, m, rec) {
							t.Fatalf("node %d entry %d: cost %v, reference %v", n.id, i, cost, refEnlargementCost(t, tree, m, rec))
						}
					}
					checked++
				}
			}
			if checked < 1000 {
				t.Fatalf("only %d choices compared", checked)
			}
		})
	}
}

func TestRecContextMatchesMDS(t *testing.T) {
	tree, recs := kernelTestTree(t, smallConfig(), 52)
	space := tree.space()
	nodes, _ := allNodes(t, tree)
	for _, rec := range recs[1100:1300] {
		rc, err := tree.recContext(rec)
		if err != nil {
			t.Fatal(err)
		}
		recMDS := mds.FromLeaves(rec.Coords)
		for _, n := range nodes {
			for _, e := range entriesOf(n) {
				m := e.MDS
				want, err := mds.Contains(space, m, recMDS)
				if err != nil {
					t.Fatal(err)
				}
				if got := rc.contains(m); got != want {
					t.Fatalf("contains(%v, %v) = %v, mds.Contains = %v", m, recMDS, got, want)
				}
				wantCover, err := mds.Cover(space, m, recMDS)
				if err != nil {
					t.Fatal(err)
				}
				folded := m.Clone()
				rc.cover(folded)
				if !folded.Equal(wantCover) {
					t.Fatalf("cover(%v, %v) = %v, mds.Cover = %v", m, recMDS, folded, wantCover)
				}
			}
		}
	}
}

func TestDescribeMatchesReference(t *testing.T) {
	tree, _ := kernelTestTree(t, smallConfig(), 53)
	space := tree.space()
	nodes, nodeMDSs := allNodes(t, tree)
	rng := rand.New(rand.NewSource(54))
	descents := 0
	for ni, n := range nodes {
		// The split's view: the node's relevant levels, one dimension lowered.
		nodeMDS := nodeMDSs[ni]
		targets := make([]int, len(space))
		for d := range targets {
			targets[d] = nodeMDS[d].Level
		}
		dim := rng.Intn(len(space))
		top := nodeMDS[dim].Level
		if top == hierarchy.LevelALL {
			top = space[dim].TopLevel() + 1
		}
		targets[dim] = rng.Intn(top + 1)
		if targets[dim] > space[dim].TopLevel() {
			targets[dim] = space[dim].TopLevel()
		}
		tree.ws.split.reset()
		adapted, err := tree.adaptEntries(n, nodeMDS, dim, targets[dim])
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range entriesOf(n) {
			if want := refDescribeEntryAt(t, tree, &e, n.leaf, targets); !adapted[i].Equal(want) {
				t.Fatalf("node %d entry %d at %v: adapted %v, reference %v", n.id, i, targets, adapted[i], want)
			}
			if !n.leaf && levelAboveInt(e.MDS[dim].Level, targets[dim]) {
				descents++
			}
		}
		// Refinement's view: the whole node in one dimension.
		want := refDescribeNodeAt(t, tree, n, targets)
		got, err := tree.describeNode(n, dim, targets[dim])
		if err != nil {
			t.Fatal(err)
		}
		if !(mds.MDS{{Level: targets[dim], IDs: got}}).Equal(mds.MDS{want[dim]}) {
			t.Fatalf("node %d dim %d at %d: describeNode %v, reference %v", n.id, dim, targets[dim], got, want[dim])
		}
	}
	if descents == 0 {
		t.Fatal("no description had to descend: the test tree is too shallow")
	}
}

// TestSplitAllocationsIndependentOfEntryCount splits leaf nodes of one and
// of four blocks: the split allocates what the tree keeps (two entry arrays,
// a node, two MDSs, two aggregates), never per entry or per compared pair.
func TestSplitAllocationsIndependentOfEntryCount(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxSupernodeBlocks = 0
	tree := newTestIndex(t, cfg)
	rng := rand.New(rand.NewSource(56))
	recs := genRecords(t, tree.schema, rng, 4000)
	measure := func(blocks int) float64 {
		const runs = 5
		entries := blocks*cfg.LeafCapacity + 1
		nodes := make([]*Node, 0, runs+1)
		for len(nodes) < cap(nodes) {
			n := tree.store.New(true)
			n.blocks = blocks
			for _, r := range recs[len(nodes)*entries:][:entries] {
				n.appendRecord(r)
			}
			nodes = append(nodes, n)
		}
		next := 0
		return testing.AllocsPerRun(runs, func() {
			res, err := tree.splitNode(nodes[next], tree.ws.topMDS)
			if err != nil || !res.split {
				t.Fatalf("split of %d entries: split=%v err=%v", entries, res.split, err)
			}
			next++
		})
	}
	// Before the kernel a 49-entry split allocated some 15,000 times. The
	// node map grows now and then, hence a ceiling and not equality.
	if small, large := measure(1), measure(4); small > 16 || large > 16 {
		t.Fatalf("split allocates %.0f times for one block, %.0f for four; ceiling 16 for both", small, large)
	}
}

func TestSplitDimensionOrder(t *testing.T) {
	tree := newTestIndex(t, smallConfig())
	m := mds.MDS{
		{Level: 1, IDs: []hierarchy.ID{hierarchy.MakeID(1, 0)}},
		mds.AllDim(),
		{Level: 0, IDs: []hierarchy.ID{hierarchy.MakeID(0, 0)}},
	}
	order := tree.splitDimensionOrder(m)
	if order[0] != 1 {
		t.Fatalf("ALL dimension must be tried first, got %v", order)
	}
	if order[1] != 0 || order[2] != 2 {
		t.Fatalf("expected level order [1 0 2], got %v", order)
	}
}
