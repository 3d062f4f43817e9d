package index

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/dcindex/dctree/internal/cube"
	"github.com/dcindex/dctree/internal/hierarchy"
	"github.com/dcindex/dctree/internal/mds"
	"github.com/dcindex/dctree/internal/tpcd"
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
			cost += math.Pow(levelWeight, float64(level))
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
	for i, e := range dirEntries(n) {
		m := e.MDS
		cost, vol, size := refEnlargementCost(t, tree, m, rec), m.Volume(), m.Size()
		if best == -1 || cost < bestCost ||
			(cost == bestCost && vol < bestVol) ||
			(cost == bestCost && vol == bestVol && size < bestSize) {
			best, bestCost, bestVol, bestSize = i, cost, vol, size
		}
	}
	return best
}

// contains reports whether m contains the record: per dimension, the
// record's ancestor at m's relevant level is among m's values
// (mds.Contains against the record's leaf MDS, without building it). It is
// the postings' oracle: the containment passes of choose-subtree and the
// delete probe ask a node's postings, which answer it for every entry at
// once.
func (rc *recContext) contains(m mds.MDS) bool {
	for d := range m {
		ds := &m[d]
		if ds.Level != hierarchy.LevelALL && !idMember(ds.IDs, rc.anc[d][ds.Level]) {
			return false
		}
	}
	return true
}

// refContaining is chooseSubtree's containment pass as it was before the
// postings: every entry of a directory asked by rc.contains, in order,
// under the volume → size → first-index tie-break. It returns each entry's
// answer and the entry chosen, -1 when none contains the record.
func refContaining(entries []entry, rc *recContext) (contains []bool, best int) {
	contains = make([]bool, len(entries))
	best = -1
	var bestVol float64
	var bestSize int
	for i, e := range entries {
		m := e.MDS
		if contains[i] = rc.contains(m); !contains[i] {
			continue
		}
		vol, size := m.Volume(), m.Size()
		if best == -1 || vol < bestVol || (vol == bestVol && size < bestSize) {
			best, bestVol, bestSize = i, vol, size
		}
	}
	return contains, best
}

// refDescribeEntryAt and refDescribeNodeAt are the split's entry adaptation
// on whole MDSs: lift with AdaptToLevels, descend where the entry is coarser
// than a target, merge with Cover.
func refDescribeEntryAt(t *testing.T, tree *Index, e *entry, leaf bool, targets []int) mds.MDS {
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
			for _, e := range dirEntries(n) {
				walk(e.Child, e.MDS)
			}
		}
	}
	walk(tree.head.Root, mds.Top(tree.schema.Dims()))
	return nodes, nodeMDSs
}

// kernelTestTree grows a tree of a few levels, on blocks of the given
// payload, with deletes mixed in so that repaired entries are among the
// operands.
func kernelTestTree(t *testing.T, cfg Config, payload int, seed int64) (*Index, []cube.Record) {
	t.Helper()
	tree, _ := newBareIndexAt(t, testSchema(t), cfg, payload)
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
	if err := validate(tree); err != nil {
		t.Fatal(err)
	}
	return tree, recs
}

// TestChooseSubtreeMatchesReference holds chooseSubtree to the full
// evaluation of every entry, its containment flag to a reference cost of 0,
// and a containing choice to the per-entry containment scan (refContaining)
// the postings replaced. Without the entry bound (RefineBound -1) entries
// hold sets longer than idMember scans, so its binary search is reached too.
func TestChooseSubtreeMatchesReference(t *testing.T) {
	unbounded := smallConfig()
	unbounded.RefineBound = -1
	for name, cfg := range map[string]Config{"weighted": smallConfig(), "unbounded": unbounded} {
		t.Run(name, func(t *testing.T) {
			tree, recs := kernelTestTree(t, cfg, payload512, 51)
			nodes, _ := allNodes(t, tree)
			long := 0
			for _, n := range nodes {
				for _, e := range dirEntries(n) {
					for _, ds := range e.MDS {
						if len(ds.IDs) > scanMax {
							long++
						}
					}
				}
			}
			if cfg.RefineBound < 0 && long == 0 {
				t.Fatalf("no entry holds more than %d values in a dimension: the binary search is not reached", scanMax)
			}
			checked, contained := 0, 0
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
					got, gotContained, err := tree.chooseSubtree(n, rc)
					if err != nil {
						t.Fatal(err)
					}
					want := refChooseSubtree(t, tree, n, rec)
					entries := dirEntries(n)
					if got != want {
						t.Fatalf("node %d record %v: chooseSubtree = %d, reference = %d", n.id, rec.Coords, got, want)
					}
					if wantContained := refEnlargementCost(t, tree, entries[want].MDS, rec) == 0; gotContained != wantContained {
						t.Fatalf("node %d record %v: contained = %v, reference cost 0 = %v", n.id, rec.Coords, gotContained, wantContained)
					}
					if _, scan := refContaining(entries, rc); (gotContained && got != scan) || (!gotContained && scan != -1) {
						t.Fatalf("node %d record %v: chooseSubtree = %d (contained %v), containment scan = %d", n.id, rec.Coords, got, gotContained, scan)
					}
					if gotContained {
						contained++
					}
					for i, e := range entries {
						m := e.MDS
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
			if contained == 0 || contained == checked {
				t.Fatalf("%d of %d choices found a containing entry: both arms must occur", contained, checked)
			}
		})
	}
}

// TestIDMemberMatchesBinarySearch holds idMember to slices.BinarySearch on
// random sorted sets on either side of the scan's longest set, for values
// in the set, between its values and past either end.
func TestIDMemberMatchesBinarySearch(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	for n := 0; n <= 40; n++ {
		for round := 0; round < 50; round++ {
			ids := make([]hierarchy.ID, 0, n)
			code := uint32(rng.Intn(3))
			for len(ids) < n {
				ids = append(ids, hierarchy.MakeID(1, code))
				code += 1 + uint32(rng.Intn(3))
			}
			for probe := uint32(0); probe <= code+1; probe++ {
				id := hierarchy.MakeID(1, probe)
				if _, want := slices.BinarySearch(ids, id); idMember(ids, id) != want {
					t.Fatalf("idMember(%v, %v) = %v, binary search %v", ids, id, !want, want)
				}
			}
		}
	}
}

// TestContainingInsertStillBounds inserts, into a packed tree, records that
// the root routes into a containing entry holding more than 2 × RefineBound
// values in some dimension — bulk-loaded entries are refined, never bounded.
// The containing path skips the record's cover, which would change nothing,
// but not the bound: each such entry is lifted by the insert that enters it.
// Every eighth record is deleted first, so that the inserts split nothing
// (a split would rebuild the entry, bounded, whatever the descent did). The
// lift changes the entry's MDS, so it must leave the root's postings stale,
// and the table rebuilt from the lifted entries must answer as the scan.
// 5,000 records pack into one root over data nodes; 6,250 would make a root
// level of two blocks, which BulkLoad splits, bounding the root's entries.
func TestContainingInsertStillBounds(t *testing.T) {
	const n = 5000
	gen, err := tpcd.New(1, tpcd.ScaleFor(n))
	if err != nil {
		t.Fatal(err)
	}
	all := gen.Records(n)
	ix, _ := newBareIndex(t, gen.Schema(), DefaultConfig())
	if err := ix.BulkLoad(all); err != nil {
		t.Fatal(err)
	}
	var recs []cube.Record
	for i := 0; i < n; i += 8 {
		if err := ix.Delete(all[i]); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, all[i])
	}
	root, err := ix.store.Get(ix.head.Root)
	if err != nil {
		t.Fatal(err)
	}
	bound := 2 * ix.cfg.RefineBound
	overBound := func(m mds.MDS) bool {
		for _, ds := range m {
			if ds.Level != hierarchy.LevelALL && len(ds.IDs) > bound {
				return true
			}
		}
		return false
	}
	var probes []*recContext
	for _, rec := range recs {
		probes = append(probes, probeContext(t, ix, rec))
	}
	lifted := 0
	for _, rec := range recs {
		rc, err := ix.recContext(rec)
		if err != nil {
			t.Fatal(err)
		}
		idx, contained, err := ix.chooseSubtree(root, rc)
		if err != nil {
			t.Fatal(err)
		}
		if !contained || !overBound(dirEntries(root)[idx].MDS) {
			continue
		}
		if err := ix.Insert(rec); err != nil {
			t.Fatal(err)
		}
		if c := ix.Counters(); c.SplitsHierarchy+c.SplitsForced+c.SupernodesCreated+c.SupernodesGrown > 0 {
			t.Fatalf("the insert split or grew a node (%+v): the entry was rebuilt, not lifted", c)
		}
		if m := dirEntries(root)[idx].MDS; overBound(m) {
			t.Fatalf("root entry %d contained the record and still holds more than %d values: %v", idx, bound, m)
		}
		if root.post.valid {
			t.Fatalf("root entry %d was lifted and the root's postings are still marked valid", idx)
		}
		checkPostings(t, ix, root, probes)
		lifted++
	}
	if lifted == 0 {
		t.Fatal("no record was routed into a containing entry past the bound")
	}
	if err := validate(ix); err != nil {
		t.Fatal(err)
	}
}

func TestRecContextMatchesMDS(t *testing.T) {
	tree, recs := kernelTestTree(t, smallConfig(), payload512, 52)
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

// TestDescribeMatchesReference holds the split's descriptions — the columns
// of adaptEntries and describeNode's — to the reference, on a tree of small
// nodes and on one of the default, block-filled data nodes.
func TestDescribeMatchesReference(t *testing.T) {
	for name, tc := range map[string]struct {
		cfg     Config
		payload int
	}{"small": {smallConfig(), payload512}, "block-filled": {DefaultConfig(), testBlockPayload}} {
		t.Run(name, func(t *testing.T) {
			tree, _ := kernelTestTree(t, tc.cfg, tc.payload, 53)
			if tree.Height() < 2 {
				t.Fatalf("height %d: the test tree has no directory", tree.Height())
			}
			checkDescriptions(t, tree, rand.New(rand.NewSource(54)))
		})
	}
}

func checkDescriptions(t *testing.T, tree *Index, rng *rand.Rand) {
	t.Helper()
	space := tree.space()
	nodes, nodeMDSs := allNodes(t, tree)
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
		if err := tree.adaptEntries(n, nodeMDS, dim, targets[dim]); err != nil {
			t.Fatal(err)
		}
		adapted := columnMDSs(tree.ws.split.cols)
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

// TestSplitAllocationsIndependentOfEntryCount splits data nodes and
// directories of one and of four blocks: the split allocates what the tree
// keeps (the sibling, the pair of entries that describes the halves, two
// aggregates), never per entry or per compared pair. The directories are
// filled as BenchmarkSplit fills them, from the entries right above the data
// nodes of a grown TPC-D tree.
func TestSplitAllocationsIndependentOfEntryCount(t *testing.T) {
	const runs, maxBlocks = 5, 4
	// measure splits the nodes fill makes, one to warm up and runs counted.
	measure := func(tree *Index, fill func() *Node) float64 {
		nodes := make([]*Node, runs+1)
		for i := range nodes {
			nodes[i] = fill()
		}
		next := 0
		return testing.AllocsPerRun(runs, func() {
			res, err := tree.splitNode(nodes[next], tree.ws.topMDS)
			if err != nil || res == nil {
				t.Fatalf("split of %d entries: split=%v err=%v", nodes[next].Count(), res != nil, err)
			}
			next++
		})
	}
	tree := newTestIndex(t, DefaultConfig())
	rng := rand.New(rand.NewSource(56))
	// A row takes at least 4 bytes: three 1-byte codes and the measure.
	recs := genRecords(t, tree.schema, rng, (runs+1)*(maxBlocks*testBlockPayload/4+1))
	dirTree, _, entries := grownDirEntries(t, maxBlocks)
	for _, blocks := range []int{1, maxBlocks} {
		pool := recs
		leaf := measure(tree, func() *Node {
			n := overflowingNode(tree, true, blocks, pool, nil)
			pool = pool[n.Count():]
			return n
		})
		dir := measure(dirTree, func() *Node { return overflowingNode(dirTree, false, blocks, nil, entries) })
		// Before the kernel a 49-entry split allocated some 15,000 times.
		// The node map grows now and then, hence a ceiling and not equality.
		if leaf > 16 || dir > 16 {
			t.Errorf("%d blocks: a data node's split allocates %.0f times, a directory's %.0f; ceiling 16 for both", blocks, leaf, dir)
		}
	}
}

// refHierarchySplit is the hierarchy split as it was before it ran on counts:
// Fig. 6 over whole MDSs — mds.Extension on every pair for the seeds, two
// CoverInto and two Overlap per pick to choose a side, ExtensionIn against
// every remaining entry after every pick. It tallies what its input made it
// do, so that a test can tell its cases reached every branch.
func refHierarchySplit(space mds.Space, adapted []mds.MDS, dim, minFill int, tally *splitTally) (g1, g2 []int, cov1, cov2 mds.MDS, err error) {
	var ss struct {
		g, gain   [2][]int
		remaining []int
		bufs      [2][2]mds.CoverBuf
	}
	k := len(adapted)
	if k < 2 {
		return nil, nil, nil, nil, nil
	}

	// Seed selection: pair with the largest covering MDS. The volume of
	// the pair's cover is the product of its per-dimension union counts,
	// which is Extension — the cover itself is never needed.
	seedA, seedB := -1, -1
	var worst float64 = -1
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			v, err := mds.Extension(space, adapted[i], adapted[j])
			if err != nil {
				return nil, nil, nil, nil, err
			}
			if v > worst {
				worst, seedA, seedB = v, i, j
			}
		}
	}

	g := [2][]int{append(ss.g[0][:0], seedA), append(ss.g[1][:0], seedB)}
	cov := [2]mds.MDS{adapted[seedA], adapted[seedB]}
	// A group's cover sits in one of its two buffers (the seeds' in the
	// entry descriptions); absorbing members builds the grown cover in the
	// other, and keeping it flips the two.
	var cur [2]int
	grow := func(side int, members []mds.MDS) (mds.MDS, error) {
		return mds.CoverInto(&ss.bufs[side][1-cur[side]], space, nil, members)
	}

	remaining := ss.remaining[:0]
	for i := 0; i < k; i++ {
		if i != seedA && i != seedB {
			remaining = append(remaining, i)
		}
	}
	// gain[side][i] is how many values cov[side] would gain in the split
	// dimension by absorbing entry i; a side's row is recomputed only when
	// its cover has grown.
	gain := [2][]int{slices.Grow(ss.gain[0][:0], k)[:k], slices.Grow(ss.gain[1][:0], k)[:k]}
	regain := func(side int) error {
		for _, i := range remaining {
			union, err := mds.ExtensionIn(space, cov[side], adapted[i], dim)
			if err != nil {
				return err
			}
			gain[side][i] = union - len(cov[side][dim].IDs)
		}
		return nil
	}
	for side := range gain {
		if err = regain(side); err != nil {
			return nil, nil, nil, nil, err
		}
	}

	for len(remaining) > 0 {
		// Guttman's termination rule: if a group needs every remaining
		// entry just to reach the minimum fill, hand them all over.
		short := -1
		switch {
		case len(g[0])+len(remaining) <= minFill:
			short = 0
		case len(g[1])+len(remaining) <= minFill:
			short = 1
		}
		if short >= 0 {
			tally.handedOver[short]++
			members := []mds.MDS{cov[short]}
			for _, i := range remaining {
				members = append(members, adapted[i])
			}
			if cov[short], err = grow(short, members); err != nil {
				return nil, nil, nil, nil, err
			}
			g[short] = append(g[short], remaining...)
			break
		}
		// Pick the MDS with the greatest difference between the two groups'
		// enlargements in the split dimension.
		pick := -1
		var pickDiff float64 = -1
		for ri, i := range remaining {
			diff := abs(float64(gain[0][i] - gain[1][i]))
			if diff > pickDiff {
				pickDiff, pick = diff, ri
			}
		}
		if pickDiff > 0 {
			tally.picked[0]++
		} else {
			tally.picked[1]++
		}
		i := remaining[pick]
		remaining = append(remaining[:pick], remaining[pick+1:]...)

		var grown [2]mds.MDS
		for side := range grown {
			if grown[side], err = grow(side, []mds.MDS{cov[side], adapted[i]}); err != nil {
				return nil, nil, nil, nil, err
			}
		}
		// Criterion 1: minimum resulting overlap between the groups.
		ov1, err := mds.Overlap(space, grown[0], cov[1])
		if err != nil {
			return nil, nil, nil, nil, err
		}
		ov2, err := mds.Overlap(space, cov[0], grown[1])
		if err != nil {
			return nil, nil, nil, nil, err
		}
		into := 1
		tally.criterion[0]++
		switch {
		case ov1 < ov2:
			into = 0
		case ov1 > ov2:
		default:
			tally.criterion[0]--
			// Criterion 2: minimum sum of extensions (volume enlargement).
			vol1, vol2 := grown[0].Volume(), grown[1].Volume()
			ext1 := vol1 - cov[0].Volume()
			ext2 := vol2 - cov[1].Volume()
			switch {
			case ext1 != ext2:
				tally.criterion[1]++
			case vol1 != vol2:
				tally.criterion[2]++
			default:
				tally.criterion[3]++
			}
			switch {
			case ext1 < ext2:
				into = 0
			case ext1 > ext2:
			// Criterion 3: minimum sum of volumes.
			case vol1 < vol2:
				into = 0
			case vol1 > vol2:
			// Final tie: keep the groups balanced.
			case len(g[0]) <= len(g[1]):
				into = 0
			}
		}
		g[into], cov[into] = append(g[into], i), grown[into]
		cur[into] = 1 - cur[into]
		if err = regain(into); err != nil {
			return nil, nil, nil, nil, err
		}
	}
	return g[0], g[1], cov[0], cov[1], nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// splitTally counts the picks settled by each of Fig. 6's four criteria
// (overlap, extension, volume, balance), Guttman's hand-overs per group, and
// how each entry was picked: by its gain difference (of single values, one
// that lies in exactly one cover), or as the first remaining entry when no
// entry has one.
type splitTally struct {
	criterion  [4]int
	handedOver [2]int
	picked     [2]int
}

// columnMDSs lists the operands of the hierarchy split as MDSs: entry i's
// description over the columns.
func columnMDSs(cols []*column) []mds.MDS {
	out := make([]mds.MDS, cols[0].count())
	for i := range out {
		for _, c := range cols {
			out[i] = append(out[i], mds.DimSet{Level: c.level, IDs: c.set(i)})
		}
	}
	return out
}

// The shapes of a split test column.
const (
	colSingle = iota // one value per entry: a data node, or a narrow directory
	colMulti         // a value set per entry: a directory
	colSparse        // few values per entry out of a thousand times the universe
	colSame          // every entry carries the same set
	colALL           // the dimension sits at ALL
	colShapes
)

// randomColumn draws k value sets of one shape over a universe of the given
// size; small universes make equal sets, contained sets and ties common.
// Under single every set is one value, as in a data node: colMulti draws
// from as many codes as there are entries, colSparse from codes 997 apart.
func randomColumn(rng *rand.Rand, k, shape, universe int, single bool) *column {
	c := &column{level: rng.Intn(3)}
	draw := func() []hierarchy.ID {
		if single {
			return []hierarchy.ID{hierarchy.MakeID(c.level, uint32(rng.Intn(universe)))}
		}
		var s []hierarchy.ID
		for v := 0; v < universe; v++ {
			if rng.Intn(3) == 0 {
				s = append(s, hierarchy.MakeID(c.level, uint32(v)))
			}
		}
		if len(s) == 0 {
			s = append(s, hierarchy.MakeID(c.level, uint32(rng.Intn(universe))))
		}
		return s
	}
	common := draw()
	for i := 0; i < k; i++ {
		c.off = append(c.off, len(c.ids))
		switch {
		case shape == colSingle:
			c.ids = append(c.ids, hierarchy.MakeID(c.level, uint32(rng.Intn(universe))))
		case shape == colMulti && single:
			c.ids = append(c.ids, hierarchy.MakeID(c.level, uint32(rng.Intn(k))))
		case shape == colMulti:
			c.ids = append(c.ids, draw()...)
		case shape == colSparse && single:
			c.ids = append(c.ids, hierarchy.MakeID(c.level, uint32(997*rng.Intn(2*universe))))
		case shape == colSparse:
			// Sets that share next to nothing: the two largest sizes bound a
			// union below the column's distinct values.
			for v := 0; v < universe; v++ {
				if v == 0 || rng.Intn(4) == 0 {
					c.ids = append(c.ids, hierarchy.MakeID(c.level, uint32(1000*v+rng.Intn(1000))))
				}
			}
		case shape == colSame:
			c.ids = append(c.ids, common...)
		case shape == colALL:
			c.level = hierarchy.LevelALL
			c.ids = append(c.ids, hierarchy.ALL)
		}
	}
	c.close(nil)
	return c
}

// checkSplitAgainstReference runs both splits over the columns along every
// dimension and demands the same groups, in order, under the same covers.
func checkSplitAgainstReference(t *testing.T, space mds.Space, cols []*column, minFill int, tally *splitTally) {
	t.Helper()
	for dim := range cols {
		checkSplitAlong(t, space, cols, dim, minFill, tally)
	}
}

func checkSplitAlong(t *testing.T, space mds.Space, cols []*column, dim, minFill int, tally *splitTally) {
	t.Helper()
	var ss splitScratch
	ss.init(len(cols))
	copy(ss.cols, cols)
	adapted := columnMDSs(cols)
	want1, want2, wantCov1, wantCov2, err := refHierarchySplit(space, adapted, dim, minFill, tally)
	if err != nil {
		t.Fatal(err)
	}
	g1, g2, cov1, cov2 := ss.hierarchySplit(dim, minFill)
	if !slices.Equal(g1, want1) || !slices.Equal(g2, want2) {
		t.Fatalf("k=%d dim %d minFill %d: groups %v | %v, reference %v | %v\noperands %v",
			len(adapted), dim, minFill, g1, g2, want1, want2, adapted)
	}
	if !cov1.Equal(wantCov1) || !cov2.Equal(wantCov2) {
		t.Fatalf("k=%d dim %d minFill %d: covers %v | %v, reference %v | %v\noperands %v",
			len(adapted), dim, minFill, cov1, cov2, wantCov1, wantCov2, adapted)
	}
}

// splitTestSpace is a space of the given arity; the split never looks a
// value up in it, so the test's IDs need not be registered.
func splitTestSpace(dims int) mds.Space {
	space := make(mds.Space, dims)
	for d := range space {
		space[d] = hierarchy.MustNew(fmt.Sprintf("D%d", d), "L0", "L1", "L2")
	}
	return space
}

// fourBlockCounts returns how many TPC-D rows, and how many of the
// smallest TPC-D directory entries (one leaf value per dimension), fill a
// node of four blocks one past its bytes: the most a four-block data node
// or directory splits.
func fourBlockCounts(t *testing.T) (rows, entries int) {
	t.Helper()
	gen, err := tpcd.New(1, tpcd.ScaleFor(0))
	if err != nil {
		t.Fatal(err)
	}
	ix, _ := newBareIndex(t, gen.Schema(), DefaultConfig())
	recs := gen.Records(4 * testBlockPayload)
	rows = overflowingNode(ix, true, 4, recs, nil).Count()
	dir := ix.store.New(false)
	for _, r := range recs {
		if ix.nodeBlocks(dir) > 4 {
			break
		}
		dir.appendEntry(mds.FromLeaves(r.Coords), fixedOf(unitsOf(ix.schema, r)), NilNode)
	}
	return rows, dir.Count()
}

// TestHierarchySplitMatchesReference holds the split to its reference on
// random columns: in a third of the rounds every set is one value, as in a
// data node, up to a four-block data node of TPC-D rows; in the others some
// sets hold several values, as in a directory, up to a four-block directory
// of the smallest TPC-D entries. The reference is quadratic, so few rounds
// are that large.
func TestHierarchySplitMatchesReference(t *testing.T) {
	maxRanksK, maxSetsK := fourBlockCounts(t)
	rng := rand.New(rand.NewSource(57))
	var ranks, sets splitTally
	for round := 0; round < 1500; round++ {
		dims := 2 + rng.Intn(4)
		leafShaped := round%3 == 0
		k := 2 + rng.Intn(24)
		switch {
		case round%90 == 0:
			k = 2 + rng.Intn(maxRanksK-1)
		case round%10 == 1:
			k = 2 + rng.Intn(maxSetsK-1)
		}
		cols := make([]*column, dims)
		for d := range cols {
			cols[d] = randomColumn(rng, k, rng.Intn(colShapes), 1+rng.Intn(12), leafShaped)
		}
		if round%4 == 1 || round%90 == 0 && round%4 == 0 {
			// Duplicated entries: every criterion ties, balance decides.
			for _, c := range cols {
				ids, off := c.ids, c.off[:k]
				c.ids, c.off = nil, nil
				for i := 0; i < k; i++ {
					src := rng.Intn(i/2 + 1)
					c.off = append(c.off, len(c.ids))
					c.ids = append(c.ids, ids[off[src]:off[src+1]]...)
				}
				c.close(nil)
			}
		}
		tally := &sets
		if leafShaped {
			tally = &ranks
			for d, c := range cols {
				if !c.single {
					t.Fatalf("round %d: column %d of a leaf-shaped round holds a set of several values", round, d)
				}
			}
		}
		// From "never short" to "short at once", on whichever side stays small.
		minFill := 1 + rng.Intn(k/2+1)
		checkSplitAgainstReference(t, splitTestSpace(dims), cols, minFill, tally)
	}
	for name, tally := range map[string]splitTally{"ranks": ranks, "sets": sets} {
		for criterion, picks := range tally.criterion {
			if picks == 0 {
				t.Errorf("%s: no pick was settled by criterion %d: the ties are not covered", name, criterion+1)
			}
		}
		if tally.handedOver[0] == 0 || tally.handedOver[1] == 0 {
			t.Errorf("%s: Guttman's hand-over filled the groups %v times: both sides must occur", name, tally.handedOver)
		}
		if tally.picked[0] == 0 || tally.picked[1] == 0 {
			t.Errorf("%s: picked %d entries by their difference and %d as the first remaining: both must occur", name, tally.picked[0], tally.picked[1])
		}
	}
}

// FuzzHierarchySplit holds the split to its reference on columns read from
// the fuzzer's bytes: the dimensions (1–5), the split dimension, the entries
// (2–677), the minimum fill, one shape byte per dimension, then each
// dimension's sets entry by entry. A shape's bit 0 makes the column multi-valued, a set being one
// byte's bits over eight codes, else a set is one code byte; bit 1 spreads
// the codes 997 apart; bits 2–3 are the level, 3 meaning ALL. Bytes past
// the end read as zero.
func FuzzHierarchySplit(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 1, 0, 30, 9, 0, 1, 5, 5, 7, 7, 5, 5, 7, 7, 5, 5})
	rng := rand.New(rand.NewSource(60))
	for _, n := range []int{64, 700} {
		seed := make([]byte, n)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		dims := 1 + next()%5
		dim := next() % dims
		k := 2 + (next()<<8|next())%676
		minFill := 1 + next()%(k/2+1)
		shapes := make([]int, dims)
		for d := range shapes {
			shapes[d] = next()
		}
		cols := make([]*column, dims)
		for d, shape := range shapes {
			c := &column{level: shape >> 2 & 3}
			code := func(v int) uint32 {
				if shape&2 != 0 {
					v *= 997
				}
				return uint32(v)
			}
			for i := 0; i < k; i++ {
				c.off = append(c.off, len(c.ids))
				switch {
				case c.level == 3:
					c.ids = append(c.ids, hierarchy.ALL)
				case shape&1 != 0:
					set := next() | 1<<(i%8) // never empty
					for v := 0; v < 8; v++ {
						if set>>v&1 != 0 {
							c.ids = append(c.ids, hierarchy.MakeID(c.level, code(v)))
						}
					}
				default:
					c.ids = append(c.ids, hierarchy.MakeID(c.level, code(next())))
				}
			}
			if c.level == 3 {
				c.level = hierarchy.LevelALL
			}
			c.close(nil)
			cols[d] = c
		}
		var tally splitTally
		checkSplitAlong(t, splitTestSpace(dims), cols, dim, minFill, &tally)
	})
}

// TestHierarchySplitProductsPast2to53 splits entries whose volumes and
// extensions need more than a float64's 53 bits: the counts are exact, the
// products are rounded, and they agree with mds.Overlap, Extension and
// Volume only when multiplied in the same (dimension) order.
func TestHierarchySplitProductsPast2to53(t *testing.T) {
	rng := rand.New(rand.NewSource(58))
	const dims, k = 5, 9
	space := splitTestSpace(dims)
	var tally splitTally
	for round := 0; round < 6; round++ {
		cols := make([]*column, dims)
		for d := range cols {
			cols[d] = randomColumn(rng, k, colMulti, 5000+rng.Intn(1000), false)
		}
		adapted := columnMDSs(cols)
		if ext, err := mds.Extension(space, adapted[0], adapted[1]); err != nil || ext <= 1<<53 {
			t.Fatalf("extension %g (err %v) does not pass 2^53", ext, err)
		}
		checkSplitAgainstReference(t, space, cols, 3, &tally)
	}
}

// TestZeroSupernodeCapSelectsDefault pins what a zero MaxSupernodeBlocks
// means: the default cap, not "no cap". A node of identical records cannot be
// separated in any dimension, so it grows block by block — and at the cap it
// takes the forced split instead of a 65th block.
func TestZeroSupernodeCapSelectsDefault(t *testing.T) {
	cfg := Config{MaxSupernodeBlocks: 0}
	if err := cfg.Normalize(); err != nil {
		t.Fatal(err)
	}
	limit := DefaultConfig().MaxSupernodeBlocks
	if cfg.MaxSupernodeBlocks != limit || limit != 64 {
		t.Fatalf("Normalize turned a zero cap into %d, want the default %d = 64", cfg.MaxSupernodeBlocks, limit)
	}
	tree, _ := newBareIndexAt(t, testSchema(t), cfg, payload512)
	rec := genRecords(t, tree.schema, rand.New(rand.NewSource(59)), 1)[0]
	n := tree.store.New(true)
	for tree.nodeBlocks(n) < limit {
		n.appendRecord(rowOf(tree.schema, rec))
	}

	n.setBlocks(limit - 1)
	res, err := tree.splitNode(n, tree.ws.topMDS)
	if err != nil || res != nil || n.Blocks() != limit {
		t.Fatalf("below the cap: split=%v blocks=%d err=%v, want one more block (%d)", res != nil, n.Blocks(), err, limit)
	}
	res, err = tree.splitNode(n, tree.ws.topMDS)
	if err != nil || res == nil || n.Blocks() > limit {
		t.Fatalf("at the cap: split=%v blocks=%d err=%v, want the forced split", res != nil, n.Blocks(), err)
	}
	if c := tree.Counters(); c.SplitsForced != 1 || c.SupernodesGrown != 1 {
		t.Fatalf("counters %+v, want one supernode growth and one forced split", c)
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
