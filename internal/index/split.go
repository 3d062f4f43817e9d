package index

import (
	"slices"

	"github.com/dcindex/dctree/internal/hierarchy"
	"github.com/dcindex/dctree/internal/mds"
)

// splitNode implements the split algorithm of Fig. 5 for an overflowing
// node n. nodeMDS is the describing MDS held by the parent (the top MDS
// (ALL,…,ALL) for the root): its relevant levels drive both the
// split-dimension order and the adaptation of the entries.
//
// The algorithm tries one split dimension after another, ordered by the
// hierarchy level of the node MDS's values in that dimension (highest
// level first: a dimension still described by ALL, or by coarse values,
// has the most headroom to separate the entries). For each candidate
// dimension d the entry MDSs are made mutually comparable — §3.2 requires
// all operands of MDS operations to carry values of the same level per
// dimension — by adapting them to the node's relevant levels, except that
// in dimension d the target level drops one below the node's level. That
// drop is the heart of the DC-tree: the node described by ({Europe},…)
// splits into two *nation-level* groups ("the relevant level of this
// dimension may be decreased by one for the MDSs of the two resulting
// subgroups", §3.2), so directory MDSs stay coarse — a handful of values
// per dimension — and refine one hierarchy level per split on the way
// down. Each candidate dimension is partitioned by the hierarchy split of
// Fig. 6; the first partition that is balanced and has acceptably low
// overlap wins, and the two groups' MDSs are the covers of the adapted
// members (coarse in every non-split dimension, one level finer in the
// split dimension).
//
// If no dimension yields an acceptable split, the node becomes (or grows
// as) a supernode; at the supernode cap, or with supernodes disabled, the
// best partition seen so far is forced instead.
//
// Everything up to the chosen partition lives in the tree's write scratch
// (splitScratch); buildSplit copies out what the tree keeps.
func (ix *Index) splitNode(n *Node, nodeMDS mds.MDS) (insertResult, error) {
	total := n.Count()
	minFill := int(ix.cfg.MinFillRatio * float64(total))
	if minFill < 1 {
		minFill = 1
	}
	space := ix.space()
	ss := &ix.ws.split
	ss.reset()

	for _, dim := range ix.splitDimensionOrder(nodeMDS) {
		// The split dimension's relevant level decreases as far as needed:
		// on uniform data the coarse levels saturate (every subtree covers
		// every region, every brand, ...) and separation only exists at
		// finer levels, down to the leaf values in the worst case. A split
		// dimension already at the leaf level is separated there.
		level := nodeMDS[dim].Level
		if level == hierarchy.LevelALL {
			level = space[dim].TopLevel() + 1
		}
		if level > 0 {
			level--
		}
		for ; level >= 0; level-- {
			if err := ix.adaptEntries(n, nodeMDS, dim, level); err != nil {
				return insertResult{}, err
			}
			g1, g2, cov1, cov2 := ss.hierarchySplit(dim, minFill)
			if len(g1) == 0 || len(g2) == 0 {
				continue
			}
			ratio, err := groupOverlapRatio(space, cov1, cov2)
			if err != nil {
				return insertResult{}, err
			}
			balanced := len(g1) >= minFill && len(g2) >= minFill
			if balanced && ratio <= ix.cfg.MaxOverlapRatio {
				ix.c.splitsHierarchy.Inc()
				return ix.buildSplit(n, g1, g2, cov1, cov2)
			}
			if !ss.fallback.ok || ratio < ss.fallback.ratio {
				if err := ss.fallback.save(space, ratio, g1, g2, cov1, cov2); err != nil {
					return insertResult{}, err
				}
			}
		}
	}

	// No acceptable split in any dimension (Fig. 5: "Create supernode").
	mayGrow := !ix.cfg.DisableSupernodes && n.blocks < ix.cfg.MaxSupernodeBlocks
	fb := &ss.fallback
	if mayGrow || !fb.ok {
		// A missing fallback cannot happen with ≥ 2 entries, but guard by
		// growing anyway.
		if n.blocks == 1 {
			ix.c.supernodeCreated.Inc()
		} else {
			ix.c.supernodeGrown.Inc()
		}
		n.blocks++
		return insertResult{}, nil
	}
	ix.c.splitsForced.Inc()
	return ix.buildSplit(n, fb.g[0], fb.g[1], fb.cov[0], fb.cov[1])
}

// splitScratch is the workspace of one splitNode call. The entries'
// descriptions the hierarchy split compares are one column of value sets per
// dimension, all of a column at one level, so its operands are aligned by
// construction; the two groups' covers grow in storage the scratch owns.
// Nothing here survives the call: see writeScratch's ownership rule.
type splitScratch struct {
	// base[d] holds the entries' value sets in dimension d at the node's
	// own relevant level — what every (split dimension, rung) other than
	// d's own compares — and is built on first use; rung holds the split
	// dimension's sets at the ladder rung being tried. cols lists the
	// candidate's operands: base, with rung in the split dimension.
	base     []column
	haveBase []bool
	rung     column
	cols     []*column
	order    []int

	g         [2][]int
	gain      [2][]int
	remaining []int
	cov       [2]groupCover
	inter     []int          // |cov[0] ∩ cov[1]| per dimension
	counts    [2][]sideCount // what the picked entry would add to either cover
	added     []hierarchy.ID // the values one cover just gained in one dimension

	fallback splitFallback
}

func (ss *splitScratch) init(dims int) {
	ss.base = make([]column, dims)
	ss.haveBase = make([]bool, dims)
	ss.cols = make([]*column, dims)
	ss.order = make([]int, dims)
	ss.inter = make([]int, dims)
	for side := range ss.cov {
		ss.cov[side].ids = make([][]hierarchy.ID, dims)
		ss.counts[side] = make([]sideCount, dims)
	}
}

func (ss *splitScratch) reset() {
	clear(ss.haveBase)
	ss.fallback.ok = false
}

// column is the value sets of a node's entries in one dimension at one
// level: entry i's set is ids[off[i]:off[i+1]].
type column struct {
	level int
	ids   []hierarchy.ID
	off   []int

	// Filled by close, for the seed search: single when every set is one
	// value (a data node's always are), same when every entry carries the
	// same set, and bound, the largest union two sets of the column can have
	// — the common size under same, else the two largest sizes added or the
	// number of distinct values, whichever is less.
	//
	// No set of a column is empty: an entry describes a non-empty node
	// (Validate; delete unlinks a node it empties), so k values in k sets
	// are k singletons, and the split reads ids[i] for set(i) under single.
	single, same bool
	bound        int
}

func (c *column) count() int { return len(c.off) - 1 }

func (c *column) set(i int) []hierarchy.ID { return c.ids[c.off[i]:c.off[i+1]] }

// close ends the column after its last set and takes its statistics. The
// distinct values are counted in scratch, which is returned, grown if need be.
func (c *column) close(scratch []hierarchy.ID) []hierarchy.ID {
	c.off = append(c.off, len(c.ids))
	k := c.count()
	c.single, c.same = len(c.ids) == k, true
	largest, second := 0, 0
	for i := 0; i < k; i++ {
		s := c.set(i)
		switch {
		case len(s) > largest:
			largest, second = len(s), largest
		case len(s) > second:
			second = len(s)
		}
		c.same = c.same && slices.Equal(s, c.set(0))
	}
	c.bound = largest + second
	if c.same {
		c.bound = largest
	}
	if c.same || c.single {
		return scratch // the seed search compares such sets without a union
	}
	scratch = mds.SortDedupFrom(append(scratch[:0], c.ids...), 0)
	c.bound = min(c.bound, len(scratch))
	return scratch
}

// groupCover is the cover of one group of the hierarchy split: per
// dimension a sorted value set that absorbs the group's members in place.
// The sets are carved from one slab kept from split to split, each with
// room for every value of its column, so none ever moves. view hands the
// cover out as an MDS.
type groupCover struct {
	ids  [][]hierarchy.ID
	slab []hierarchy.ID
	dims []mds.DimSet
}

// seed makes the cover a copy of entry i's description.
func (gc *groupCover) seed(cols []*column, i int) {
	room := 0
	for _, c := range cols {
		room += len(c.ids)
	}
	gc.slab = slices.Grow(gc.slab[:0], room)
	at := 0
	for d, c := range cols {
		gc.ids[d] = append(gc.slab[at:at:at+len(c.ids)], c.set(i)...)
		at += len(c.ids)
	}
}

func (gc *groupCover) view(cols []*column) mds.MDS {
	gc.dims = gc.dims[:0]
	for d, c := range cols {
		gc.dims = append(gc.dims, mds.DimSet{Level: c.level, IDs: gc.ids[d]})
	}
	return gc.dims
}

// sideCount is what one group's cover would gain in one dimension by
// absorbing the picked entry: fresh values, and how many of those the other
// group's cover holds already — the growth of the groups' intersection.
type sideCount struct{ fresh, shared int }

// splitFallback keeps the best-ratio partition seen, for forced splits: a
// copy of the groups and their covers, because the buffers they were built
// in are reused by the next candidate.
type splitFallback struct {
	ok    bool
	ratio float64
	g     [2][]int
	cov   [2]mds.MDS
	bufs  [2]mds.CoverBuf
}

func (fb *splitFallback) save(space mds.Space, ratio float64, g1, g2 []int, cov1, cov2 mds.MDS) error {
	fb.ok, fb.ratio = true, ratio
	fb.g[0] = append(fb.g[0][:0], g1...)
	fb.g[1] = append(fb.g[1][:0], g2...)
	for side, cov := range [2]mds.MDS{cov1, cov2} {
		// The cover of one member is a copy of it.
		var err error
		if fb.cov[side], err = mds.CoverInto(&fb.bufs[side], space, nil, []mds.MDS{cov}); err != nil {
			return err
		}
	}
	return nil
}

// adaptEntries describes every entry of n at the node's relevant levels,
// with the split dimension at the given rung level, into the scratch's
// columns: the operands of the hierarchy split. An entry's description in
// one dimension does not depend on the levels asked of the others, so only
// the split dimension's column is rebuilt from rung to rung. The columns
// are valid until the next call.
func (ix *Index) adaptEntries(n *Node, nodeMDS mds.MDS, splitDim, level int) error {
	ss := &ix.ws.split
	for d := range nodeMDS {
		ss.cols[d] = &ss.base[d]
		if d == splitDim || ss.haveBase[d] {
			continue
		}
		if err := ix.fillColumn(&ss.base[d], n, d, nodeMDS[d].Level); err != nil {
			return err
		}
		ss.haveBase[d] = true
	}
	ss.cols[splitDim] = &ss.rung
	return ix.fillColumn(&ss.rung, n, splitDim, level)
}

// fillColumn describes every entry of n in one dimension at one level.
func (ix *Index) fillColumn(c *column, n *Node, dim, level int) error {
	c.level, c.ids, c.off = level, c.ids[:0], c.off[:0]
	for i, count := 0, n.Count(); i < count; i++ {
		start := len(c.ids)
		c.off = append(c.off, start)
		var err error
		if c.ids, err = ix.appendDescribed(c.ids, n, i, dim, level); err != nil {
			return err
		}
		c.ids = mds.SortDedupFrom(c.ids, start)
	}
	// The first group's slab is idle until the seeds are chosen, and will
	// be asked for this room and more then.
	slab := &ix.ws.split.cov[0].slab
	*slab = c.close(*slab)
	return nil
}

// appendDescribed appends the values that describe the content of n's
// entry i in one dimension at the target level, unsorted and possibly
// repeated. When the entry's stored MDS is at or below the target its
// values are simply lifted; when the entry is *coarser* than the target
// (its MDS says ALL or a single high-level value, but the split needs one
// level finer), the description is derived from the entry's subtree —
// lifting can only generalize, so the finer values must come from below.
// Records ground the recursion: a record's coordinate is its singleton set,
// describable at every level.
func (ix *Index) appendDescribed(dst []hierarchy.ID, n *Node, i, dim, level int) ([]hierarchy.ID, error) {
	if n.leaf {
		c := n.Row(i)[dim : dim+1]
		return mds.AppendLifted(dst, ix.space()[dim], mds.DimSet{Level: c[0].Level(), IDs: c}, level), nil
	}
	e := &n.entries[i]
	if !levelAboveInt(e.MDS[dim].Level, level) {
		return mds.AppendLifted(dst, ix.space()[dim], e.MDS[dim], level), nil
	}
	child, err := ix.store.Get(e.Child)
	if err != nil {
		return nil, err
	}
	return ix.appendNodeDescribed(dst, child, dim, level)
}

// describeCompactAt is the number of values a node may append to a
// description before they are sorted and deduplicated in place, so that a
// deep descent carries the distinct values of a subtree, not one per record.
const describeCompactAt = 256

// appendNodeDescribed is appendDescribed over a whole node's entries.
func (ix *Index) appendNodeDescribed(dst []hierarchy.ID, n *Node, dim, level int) ([]hierarchy.ID, error) {
	start := len(dst)
	for i, count := 0, n.Count(); i < count; i++ {
		var err error
		if dst, err = ix.appendDescribed(dst, n, i, dim, level); err != nil {
			return nil, err
		}
	}
	if len(dst)-start > describeCompactAt {
		dst = mds.SortDedupFrom(dst, start)
	}
	return dst, nil
}

// describeNode computes, in the scratch's description buffer, the minimal
// describing value set of a whole node's content in one dimension at the
// target level.
func (ix *Index) describeNode(n *Node, dim, level int) ([]hierarchy.ID, error) {
	desc, err := ix.appendNodeDescribed(ix.ws.desc[:0], n, dim, level)
	if err != nil {
		return nil, err
	}
	ix.ws.desc = mds.SortDedupFrom(desc, 0)
	return ix.ws.desc, nil
}

// levelAboveInt mirrors mds's level ordering with LevelALL on top.
func levelAboveInt(a, b int) bool {
	if a == b {
		return false
	}
	if a == hierarchy.LevelALL {
		return true
	}
	if b == hierarchy.LevelALL {
		return false
	}
	return a > b
}

// splitDimensionOrder returns the dimensions ordered by decreasing
// hierarchy level of the node MDS ("the algorithm always selects the
// dimension with the highest hierarchy level of the elements of the MDS"),
// ties broken by fewer values (more concentrated, hence more separable),
// then by dimension number. The result is valid until the next split.
func (ix *Index) splitDimensionOrder(nodeMDS mds.MDS) []int {
	// LevelALL is the largest level tag, so the tags order as the levels do.
	before := func(a, b int) bool {
		if nodeMDS[a].Level != nodeMDS[b].Level {
			return nodeMDS[a].Level > nodeMDS[b].Level
		}
		return len(nodeMDS[a].IDs) < len(nodeMDS[b].IDs)
	}
	dims := ix.ws.split.order
	for i := range dims {
		j := i
		for ; j > 0 && before(i, dims[j-1]); j-- {
			dims[j] = dims[j-1]
		}
		dims[j] = i
	}
	return dims
}

// hierarchySplit is the quadratic split of Fig. 6 over the scratch's
// columns, splitting along one dimension. It returns the two groups as
// lists of entry numbers, and the groups' covers.
//
// Seeds: the pair whose covering MDS is largest (most dead space if kept
// together). Then, repeatedly, the remaining entry with the greatest
// difference between its enlargements of the two groups in the split
// dimension is assigned to the group with the minimum resulting overlap,
// ties broken by minimum sum of extensions (volume enlargement), then by
// minimum sum of volumes, then by fewer entries. Per Guttman's original
// quadratic split (which Fig. 6 is based on), once one group grows so
// large that the other needs every remaining entry to reach the minimum
// fill, the remainder is assigned to the smaller group outright —
// without this rule the greedy loop degenerates on large supernodes,
// where the bigger group's cover swallows everything.
//
// Fig. 6 consumes every set operation as a count, so the loop keeps counts
// and builds one set only, the cover of the group that wins an entry. With
// inter = |cov₀ ∩ cov₁| per dimension, and for the picked set S and either
// group g: fresh = |S \ cov_g| and shared = |(S \ cov_g) ∩ cov_other|, the
// overlap of cov_g ∪ S with the other cover is Π(inter + shared), its
// volume Π(|cov_g| + fresh), and another entry's gain shrinks by the number
// of its values among the ones the cover just took in. The products are
// multiplied in dimension order as mds.Overlap, Extension and Volume
// multiply theirs, so they are the same floats and break every tie alike.
func (ss *splitScratch) hierarchySplit(dim, minFill int) (g1, g2 []int, cov1, cov2 mds.MDS) {
	cols := ss.cols
	split := cols[dim]
	k := split.count()
	if k < 2 {
		return nil, nil, nil, nil
	}
	seedA, seedB, _ := ss.seedPair(k)

	g := [2][]int{append(ss.g[0][:0], seedA), append(ss.g[1][:0], seedB)}
	cov, inter, counts := &ss.cov, ss.inter, &ss.counts
	cov[0].seed(cols, seedA)
	cov[1].seed(cols, seedB)
	for d, c := range cols {
		inter[d] = mds.IntersectCount(c.set(seedA), c.set(seedB))
		// A dimension in which every entry carries the same set adds
		// nothing to either cover, ever.
		counts[0][d], counts[1][d] = sideCount{}, sideCount{}
	}

	remaining := ss.remaining[:0]
	for i := 0; i < k; i++ {
		if i != seedA && i != seedB {
			remaining = append(remaining, i)
		}
	}
	// gain[side][i] is how many values cov[side] would gain in the split
	// dimension by absorbing entry i.
	gain := [2][]int{slices.Grow(ss.gain[0][:0], k)[:k], slices.Grow(ss.gain[1][:0], k)[:k]}
	for _, i := range remaining {
		s := split.set(i)
		gain[0][i] = len(s) - mds.IntersectCount(s, cov[0].ids[dim])
		gain[1][i] = len(s) - mds.IntersectCount(s, cov[1].ids[dim])
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
			for d, c := range cols {
				if c.same {
					continue
				}
				ids := cov[short].ids[d]
				for _, i := range remaining {
					ss.added = mds.AppendMissing(ss.added[:0], c.set(i), ids)
					ids = mds.MergeDisjoint(ids, ss.added)
				}
				cov[short].ids[d] = ids
			}
			g[short] = append(g[short], remaining...)
			break
		}
		// Pick the entry with the greatest difference between the two
		// groups' enlargements in the split dimension.
		pick, pickDiff := -1, -1
		for ri, i := range remaining {
			diff := gain[0][i] - gain[1][i]
			if diff < 0 {
				diff = -diff
			}
			if diff > pickDiff {
				pickDiff, pick = diff, ri
			}
		}
		i := remaining[pick]
		remaining = append(remaining[:pick], remaining[pick+1:]...)

		for d, c := range cols {
			if c.same {
				continue
			}
			only0, only1, neither := mds.MemberCounts(c.set(i), cov[0].ids[d], cov[1].ids[d])
			counts[0][d] = sideCount{fresh: only1 + neither, shared: only1}
			counts[1][d] = sideCount{fresh: only0 + neither, shared: only0}
		}
		// Criterion 1: minimum resulting overlap between the groups.
		ov1, ov2 := 1.0, 1.0
		for d := range cols {
			ov1 *= float64(inter[d] + counts[0][d].shared)
			ov2 *= float64(inter[d] + counts[1][d].shared)
		}
		into := 1
		switch {
		case ov1 < ov2:
			into = 0
		case ov1 > ov2:
		default:
			// Criterion 2: minimum sum of extensions (volume enlargement).
			var vol, old [2]float64
			for side := range vol {
				vol[side], old[side] = 1, 1
				for d := range cols {
					size := len(cov[side].ids[d])
					vol[side] *= float64(size + counts[side][d].fresh)
					old[side] *= float64(size)
				}
			}
			ext1, ext2 := vol[0]-old[0], vol[1]-old[1]
			switch {
			case ext1 < ext2:
				into = 0
			case ext1 > ext2:
			// Criterion 3: minimum sum of volumes.
			case vol[0] < vol[1]:
				into = 0
			case vol[0] > vol[1]:
			// Final tie: keep the groups balanced.
			case len(g[0]) <= len(g[1]):
				into = 0
			}
		}

		g[into] = append(g[into], i)
		for d, c := range cols {
			cnt := counts[into][d]
			if cnt.fresh == 0 {
				continue
			}
			add := c.set(i)
			if cnt.fresh < len(add) {
				ss.added = mds.AppendMissing(ss.added[:0], add, cov[into].ids[d])
				add = ss.added
			}
			cov[into].ids[d] = mds.MergeDisjoint(cov[into].ids[d], add)
			inter[d] += cnt.shared
			if d != dim {
				continue
			}
			// The cover grew in the split dimension: what it took in, no
			// other entry can bring again.
			if split.single {
				for _, r := range remaining {
					if split.ids[r] == add[0] {
						gain[into][r]--
					}
				}
				continue
			}
			for _, r := range remaining {
				gain[into][r] -= mds.IntersectCount(split.set(r), add)
			}
		}
	}
	ss.g, ss.gain, ss.remaining = g, gain, remaining[:0]
	return g[0], g[1], cov[0].view(cols), cov[1].view(cols)
}

// seedPair returns the first pair of entries, in (i<j) order, whose
// extension — the volume of the pair's cover, the product of its
// per-dimension union counts — is strictly the largest. The scan is
// all-pairs only in the worst case: no extension exceeds the product of
// the columns' bounds, so a pair that reaches it ends the search (every
// later pair is at most equal, and only a greater one would replace it),
// and a pair whose own bound Π min(boundᵢ, |aᵢ|+|bᵢ|) does not exceed the
// best so far is passed over without a union. Rounding is monotone, so a
// product of bounds taken in the same order is a bound of the product.
// evaluated is the number of pairs whose extension was computed.
func (ss *splitScratch) seedPair(k int) (seedA, seedB, evaluated int) {
	cols := ss.cols
	// Without a multi-valued column every pair's bound is the limit itself.
	limit, multi := 1.0, false
	for _, c := range cols {
		limit *= float64(c.bound)
		multi = multi || !(c.same || c.single)
	}
	seedA, seedB = -1, -1
	var worst float64 = -1
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			if multi {
				most := 1.0
				for _, c := range cols {
					most *= float64(min(c.bound, c.off[i+1]-c.off[i]+c.off[j+1]-c.off[j]))
				}
				if most <= worst {
					continue
				}
			}
			evaluated++
			v := 1.0
			for _, c := range cols {
				switch {
				case c.same:
					v *= float64(c.bound)
				case c.single:
					if c.ids[i] != c.ids[j] {
						v *= 2
					}
				default:
					v *= float64(mds.UnionCount(c.set(i), c.set(j)))
				}
			}
			if v > worst {
				worst, seedA, seedB = v, i, j
				if v >= limit {
					return seedA, seedB, evaluated
				}
			}
		}
	}
	return seedA, seedB, evaluated
}

// groupOverlapRatio measures overlap(G1,G2)/extension(G1,G2) of the two
// groups' covers — the "overlap is not too high" acceptance test.
func groupOverlapRatio(space mds.Space, cov1, cov2 mds.MDS) (float64, error) {
	ov, err := mds.Overlap(space, cov1, cov2)
	if err != nil {
		return 0, err
	}
	if ov == 0 {
		return 0, nil
	}
	ext, err := mds.Extension(space, cov1, cov2)
	if err != nil {
		return 0, err
	}
	return ov / ext, nil
}

// buildSplit materializes a chosen partition: the original node keeps
// group 1, a fresh sibling receives group 2, and both groups' describing
// MDSs — the covers of the *adapted* members, i.e. at the node's relevant
// levels with the split dimension one level lower, then refined — are
// copied out of the scratch and returned to the parent together with the
// groups' aggregates.
func (ix *Index) buildSplit(n *Node, g1, g2 []int, cov1, cov2 mds.MDS) (insertResult, error) {
	measures := ix.schema.Measures()

	sibling := ix.store.New(n.leaf)
	e1, c1, m1 := n.pick(g1)
	sibling.entries, sibling.coords, sibling.measures = n.pick(g2)
	n.entries, n.coords, n.measures = e1, c1, m1
	n.blocks = blocksForEntries(len(g1), n.leaf, &ix.cfg)
	sibling.blocks = blocksForEntries(len(g2), n.leaf, &ix.cfg)
	ix.markDirty(n)
	ix.markDirty(sibling)

	// Refine the relevant levels of the fresh nodes: a narrow subtree can
	// usually be described at a much finer level without blowing up the
	// MDS, and finer descriptions mean more pruning and more materialized
	// hits on the query path. The first result is copied out before the
	// second refinement reuses the scratch.
	if err := ix.refineMDS(n, cov1); err != nil {
		return insertResult{}, err
	}
	ix.boundMDS(cov1)
	origMDS := packMDS(cov1)
	if err := ix.refineMDS(sibling, cov2); err != nil {
		return insertResult{}, err
	}
	ix.boundMDS(cov2)
	newMDS := packMDS(cov2)

	return insertResult{
		split:   true,
		newID:   sibling.id,
		origMDS: origMDS,
		newMDS:  newMDS,
		origAgg: n.aggregate(measures),
		newAgg:  sibling.aggregate(measures),
	}, nil
}

// refineMDS lowers, in place, the relevant level of every dimension of a
// node's MDS as long as the description at the finer level keeps at most
// Config.RefineBound values in that dimension. Refinement preserves
// coverage and minimality (the description is recomputed exactly from the
// subtree at each step; the other dimensions' sets already are the node's
// description at their levels and stay) and realizes the paper's
// observation that node MDSs become more specific further down the tree.
// Refined value sets live in the write scratch: the caller copies m out.
func (ix *Index) refineMDS(n *Node, m mds.MDS) error {
	bound := ix.cfg.RefineBound
	if bound <= 0 {
		return nil
	}
	space := ix.space()
	refined := ix.ws.refined
	for changed := true; changed; {
		changed = false
		for d := range m {
			var next int
			switch {
			case m[d].Level == hierarchy.LevelALL:
				next = space[d].TopLevel()
			case m[d].Level > 0:
				next = m[d].Level - 1
			default:
				continue
			}
			desc, err := ix.describeNode(n, d, next)
			if err != nil {
				return err
			}
			if len(desc) <= bound {
				refined[d] = append(refined[d][:0], desc...)
				m[d] = mds.DimSet{Level: next, IDs: refined[d]}
				changed = true
			}
		}
	}
	return nil
}

// boundMDS is the inverse of refineMDS: in place, every dimension of m that
// holds more than 2 × Config.RefineBound values at its level is lifted one
// level, and again until it fits; past the top named level it is ALL. An
// entry is refined to at most RefineBound values and lifted only past twice
// that, so the two never undo each other. Lifting the exact cover at one
// level gives the exact cover one level up, so coverage and minimality hold.
// A lifted set is never longer than its source, so it is written over it.
func (ix *Index) boundMDS(m mds.MDS) {
	bound := 2 * ix.cfg.RefineBound
	if bound <= 0 {
		return
	}
	for d, h := range ix.space() {
		ds := &m[d]
		for ds.Level != hierarchy.LevelALL && len(ds.IDs) > bound {
			if ds.Level == h.TopLevel() {
				ds.Level, ds.IDs = hierarchy.LevelALL, append(ds.IDs[:0], hierarchy.ALL)
				break
			}
			lifted := mds.AppendLifted(ds.IDs[:0], h, *ds, ds.Level+1)
			ds.Level, ds.IDs = ds.Level+1, mds.SortDedupFrom(lifted, 0)
		}
	}
}

// blocksForEntries returns the smallest block count whose capacity holds
// the given number of entries.
func blocksForEntries(entries int, leaf bool, cfg *Config) int {
	per := cfg.DirCapacity
	if leaf {
		per = cfg.LeafCapacity
	}
	b := (entries + per - 1) / per
	if b < 1 {
		b = 1
	}
	return b
}
