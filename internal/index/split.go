package index

import (
	"math/bits"
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
// A split returns the pair (buildSplit); a supernode, nil. Everything up to
// the chosen partition lives in the tree's write scratch (splitScratch);
// buildSplit copies out what the tree keeps.
func (ix *Index) splitNode(n *Node, nodeMDS mds.MDS) (*Node, error) {
	total := n.Count()
	minFill := int(ix.cfg.MinFillRatio * float64(total))
	if minFill < 1 {
		minFill = 1
	}
	space := ix.space()
	ss := &ix.ws.split
	ss.reset()

	// A directory of two entries tries no dimension and grows: split, it
	// would hand its parent two covers that overflow there as here.
	dims := ix.splitDimensionOrder(nodeMDS)
	if !n.leaf && total <= 2 {
		dims = nil
	}
	for _, dim := range dims {
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
				return nil, err
			}
			g1, g2, cov1, cov2 := ss.hierarchySplit(dim, minFill)
			if len(g1) == 0 || len(g2) == 0 {
				continue
			}
			ratio, err := groupOverlapRatio(space, cov1, cov2)
			if err != nil {
				return nil, err
			}
			balanced := len(g1) >= minFill && len(g2) >= minFill
			if balanced && ratio <= ix.cfg.MaxOverlapRatio {
				ix.c.splitsHierarchy.Inc()
				return ix.buildSplit(n, g1, g2, cov1, cov2)
			}
			if !ss.fallback.ok || ratio < ss.fallback.ratio {
				if err := ss.fallback.save(space, ratio, g1, g2, cov1, cov2); err != nil {
					return nil, err
				}
			}
		}
	}

	// No acceptable split in any dimension (Fig. 5: "Create supernode").
	mayGrow := n.Blocks() < ix.cfg.MaxSupernodeBlocks
	fb := &ss.fallback
	if mayGrow || !fb.ok {
		// Only a directory of two entries has no fallback: it grows
		// whatever the cap.
		if n.Blocks() == 1 {
			ix.c.supernodeCreated.Inc()
		} else {
			ix.c.supernodeGrown.Inc()
		}
		// One block more holds the entry or row that overflowed, or the
		// blocks its bytes need if more — a directory entry that grew, data
		// rows a wider code widened.
		n.setBlocks(max(n.Blocks()+1, ix.nodeBlocks(n)))
		return nil, nil
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

	g      [2][]int
	cov    [2]groupCover
	size   [2][]int       // |cov[side]| per dimension
	inter  []int          // |cov[0] ∩ cov[1]| per dimension
	counts [2][]sideCount // what the picked entry would add to either cover

	// The assignment on value sets (assignSets).
	gain      [2][]int
	remaining []int
	added     []hierarchy.ID // the values one cover just gained in one dimension

	// The assignment on ranks (assignRanks).
	in   [2][]codeSet // cov[side] per dimension as a bitmap of codes
	head []int32      // per split-dimension code: 1 + an entry of it, 0 if none
	next []int32      // per entry: 1 + another entry of its value, 0 if none
	done []bool       // per entry: assigned to a group
	cand entryHeap    // entries whose value may lie in exactly one cover

	fallback splitFallback
}

func (ss *splitScratch) init(dims int) {
	ss.base = make([]column, dims)
	ss.haveBase = make([]bool, dims)
	ss.cols = make([]*column, dims)
	ss.order = make([]int, dims)
	ss.inter = make([]int, dims)
	ss.head = make([]int32, codeBlock)
	for side := range ss.cov {
		ss.cov[side].ids = make([][]hierarchy.ID, dims)
		ss.size[side] = make([]int, dims)
		ss.counts[side] = make([]sideCount, dims)
		ss.in[side] = make([]codeSet, dims)
		for d := range ss.in[side] {
			ss.in[side][d] = newCodeSet()
		}
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
// dimension a sorted value set that absorbs the group's members in place,
// or, on ranks, is read back from the group's bitmaps. The sets are carved
// from one slab kept from split to split, each with room for every value of
// its column, so none ever moves. view hands the cover out as an MDS.
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

// codeSet is a set of one level's values as a bitmap of their codes. A
// level's codes are dense (hierarchy.MakeID) and its IDs sort by code, so a
// code is its value's rank: marking costs one load and store, membership one
// load, and the set reads back sorted and duplicate-free without a sort.
// Marks lie in words[lo:hi]; every other word is zero, and reading the set
// back zeroes those too.
type codeSet struct {
	words  []uint64
	lo, hi int
}

func newCodeSet() codeSet { return codeSet{words: make([]uint64, codeBlock/64)} }

func (s *codeSet) add(id hierarchy.ID) {
	w := int(id.Code() / 64)
	if w >= len(s.words) {
		s.words = extendByCode(s.words, w+1, codeBlock/64)
	}
	if s.hi == 0 || w < s.lo {
		s.lo = w
	}
	s.hi = max(s.hi, w+1)
	s.words[w] |= 1 << (id.Code() % 64)
}

func (s *codeSet) has(id hierarchy.ID) bool {
	w := int(id.Code() / 64)
	return w < len(s.words) && s.words[w]&(1<<(id.Code()%64)) != 0
}

// appendTo appends the set's values, IDs of the given level, to dst in code
// order and empties the set.
func (s *codeSet) appendTo(dst []hierarchy.ID, level int) []hierarchy.ID {
	base := hierarchy.MakeID(level, 0)
	for w := s.lo; w < s.hi; w++ {
		for x := s.words[w]; x != 0; x &= x - 1 {
			dst = append(dst, base|hierarchy.ID(w*64+bits.TrailingZeros64(x)))
		}
	}
	s.clear()
	return dst
}

func (s *codeSet) clear() {
	clear(s.words[s.lo:s.hi])
	s.lo, s.hi = 0, 0
}

// codeBlock is the number of codes a scratch table indexed by code is sized
// for when the tree opens, so that inserts rarely grow one: every level of
// TPC-D at 15k records fits.
const codeBlock = 4096

// extendByCode returns s lengthened with zeros to at least n elements,
// doubling and never below least, so that a scratch table indexed by code
// follows a growing hierarchy level in few allocations.
func extendByCode[T any](s []T, n, least int) []T {
	grown := make([]T, max(n, 2*len(s), least))
	copy(grown, s)
	return grown
}

// entryHeap is a min-heap of entry numbers.
type entryHeap []int32

func (h *entryHeap) push(i int32) {
	s := append(*h, i)
	for j := len(s) - 1; j > 0; {
		p := (j - 1) / 2
		if s[p] <= s[j] {
			break
		}
		s[p], s[j] = s[j], s[p]
		j = p
	}
	*h = s
}

// pop removes the least entry number.
func (h *entryHeap) pop() {
	s := *h
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	for j := 0; ; {
		m := j
		if l := 2*j + 1; l < len(s) && s[l] < s[m] {
			m = l
		}
		if r := 2*j + 2; r < len(s) && s[r] < s[m] {
			m = r
		}
		if m == j {
			break
		}
		s[j], s[m] = s[m], s[j]
		j = m
	}
	*h = s
}

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

// fillColumn describes every entry of n in one dimension at one level: a
// record by its coordinate lifted, a directory entry by its value set lifted
// — or, when the entry is *coarser* than the level (its MDS says ALL or a
// single high-level value, but the split needs one level finer), by its
// subtree's description (markNode): lifting can only generalize, so the
// finer values must come from below.
func (ix *Index) fillColumn(c *column, n *Node, dim, level int) error {
	c.level, c.ids, c.off = level, c.ids[:0], c.off[:0]
	h := ix.space()[dim]
	if n.leaf {
		f, up := &n.flat, liftTo(h, 0, level)
		o, cut := f.column(dim)
		for i := 0; i < f.count; i, o = i+1, o+f.stride {
			c.off = append(c.off, len(c.ids))
			c.ids = append(c.ids, up.of(loadCode(f.b[o:], cut)))
		}
	}
	for i := 0; !n.leaf && i < n.flat.count; i++ {
		start := len(c.ids)
		c.off = append(c.off, start)
		if ds := ix.ws.dimOf(&n.flat, i, dim); !levelAboveInt(ds.Level, level) {
			c.ids = mds.SortDedupFrom(mds.AppendLifted(c.ids, h, ds, level), start)
			continue
		}
		child, err := ix.store.Get(n.flat.Child(i))
		if err != nil {
			return err
		}
		if err := ix.markNode(&ix.ws.codes, child, dim, level); err != nil {
			return err
		}
		c.ids = ix.ws.codes.appendTo(c.ids, level)
	}
	// The first group's slab is idle until the seeds are chosen, and will
	// be asked for this room and more then.
	slab := &ix.ws.split.cov[0].slab
	*slab = c.close(*slab)
	return nil
}

// markNode marks in s the values that describe the content of n in one
// dimension at the target level: its records' coordinates and its entries'
// value sets lifted, and the subtree of an entry coarser than the level.
// Records ground the recursion: a record's coordinate is describable at
// every level. On an error s is left empty.
func (ix *Index) markNode(s *codeSet, n *Node, dim, level int) error {
	h := ix.space()[dim]
	if n.leaf {
		f, up := &n.flat, liftTo(h, 0, level)
		o, cut := f.column(dim)
		for i := 0; i < f.count; i, o = i+1, o+f.stride {
			s.add(up.of(loadCode(f.b[o:], cut)))
		}
		return nil
	}
	for i := 0; i < n.flat.count; i++ {
		if ds := ix.ws.dimOf(&n.flat, i, dim); !levelAboveInt(ds.Level, level) {
			up := liftTo(h, ds.Level, level)
			for _, id := range ds.IDs {
				s.add(up.of(id))
			}
			continue
		}
		child, err := ix.store.Get(n.flat.Child(i))
		if err != nil {
			s.clear()
			return err
		}
		if err := ix.markNode(s, child, dim, level); err != nil {
			return err
		}
	}
	return nil
}

// describeNode computes, in the scratch's description buffer, the minimal
// describing value set of a whole node's content in one dimension at the
// target level.
func (ix *Index) describeNode(n *Node, dim, level int) ([]hierarchy.ID, error) {
	if err := ix.markNode(&ix.ws.codes, n, dim, level); err != nil {
		return nil, err
	}
	ix.ws.desc = ix.ws.codes.appendTo(ix.ws.desc[:0], level)
	return ix.ws.desc, nil
}

// lift maps the values of one level to their ancestors at a level at or
// above it: one table load each, or the value itself, or ALL.
type lift struct {
	tab []hierarchy.ID
	all bool
}

func liftTo(h *hierarchy.Hierarchy, from, to int) lift {
	switch to {
	case from:
		return lift{}
	case hierarchy.LevelALL:
		return lift{all: true}
	}
	return lift{tab: h.AncestorTable(from, to)}
}

func (l lift) of(id hierarchy.ID) hierarchy.ID {
	switch {
	case l.tab != nil:
		return l.tab[id.Code()]
	case l.all:
		return hierarchy.ALL
	}
	return id
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
// Fig. 6 consumes every set operation as a count, so the loop keeps counts.
// With inter = |cov₀ ∩ cov₁| per dimension, and for the picked set S and
// either group g: fresh = |S \ cov_g| and shared = |(S \ cov_g) ∩
// cov_other|, the overlap of cov_g ∪ S with the other cover is
// Π(inter + shared), its volume Π(|cov_g| + fresh) (chooseGroup). The
// products are multiplied in dimension order as mds.Overlap, Extension and
// Volume multiply theirs, so they are the same floats and break every tie
// alike. A data node's entries are assigned on ranks (assignRanks), a
// directory's on value sets (assignSets) unless its sets too are single
// values.
func (ss *splitScratch) hierarchySplit(dim, minFill int) (g1, g2 []int, cov1, cov2 mds.MDS) {
	cols := ss.cols
	k := cols[dim].count()
	if k < 2 {
		return nil, nil, nil, nil
	}
	seedA, seedB, _ := ss.seedPair(k)

	g := [2][]int{append(ss.g[0][:0], seedA), append(ss.g[1][:0], seedB)}
	ss.cov[0].seed(cols, seedA)
	ss.cov[1].seed(cols, seedB)
	single := true
	for d, c := range cols {
		ss.inter[d] = mds.IntersectCount(c.set(seedA), c.set(seedB))
		ss.size[0][d], ss.size[1][d] = len(c.set(seedA)), len(c.set(seedB))
		// A dimension in which every entry carries the same set adds
		// nothing to either cover, ever.
		ss.counts[0][d], ss.counts[1][d] = sideCount{}, sideCount{}
		single = single && c.single
	}
	if single {
		g = ss.assignRanks(g, dim, minFill)
	} else {
		g = ss.assignSets(g, dim, minFill)
	}
	ss.g = g
	return g[0], g[1], ss.cov[0].view(cols), ss.cov[1].view(cols)
}

// shortGroup is Guttman's termination rule: the group that needs every one
// of the left entries just to reach the minimum fill, or -1.
func shortGroup(g [2][]int, left, minFill int) int {
	switch {
	case len(g[0])+left <= minFill:
		return 0
	case len(g[1])+left <= minFill:
		return 1
	}
	return -1
}

// chooseGroup is the group the picked entry joins, given in ss.counts what
// it would add to either cover: the minimum resulting overlap, then the
// minimum extension, then the minimum volume, then the smaller group. The
// chosen group's sizes and the groups' intersection grow by its counts.
func (ss *splitScratch) chooseGroup(g [2][]int) int {
	inter, counts, size := ss.inter, &ss.counts, &ss.size
	// Criterion 1: minimum resulting overlap between the groups.
	ov1, ov2 := 1.0, 1.0
	for d := range inter {
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
			for d := range inter {
				vol[side] *= float64(size[side][d] + counts[side][d].fresh)
				old[side] *= float64(size[side][d])
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
	for d := range inter {
		size[into][d] += counts[into][d].fresh
		inter[d] += counts[into][d].shared
	}
	return into
}

// assignSets is the assignment over value sets, for columns of which some
// set holds several values. Only the cover of the group that wins an entry
// is built, in place; another entry's gain shrinks by the number of its
// values among the ones the cover just took in.
func (ss *splitScratch) assignSets(g [2][]int, dim, minFill int) [2][]int {
	cols, cov, counts := ss.cols, &ss.cov, &ss.counts
	split := cols[dim]
	k := split.count()
	remaining := ss.remaining[:0]
	for i := 0; i < k; i++ {
		if i != g[0][0] && i != g[1][0] {
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
		if short := shortGroup(g, len(remaining), minFill); short >= 0 {
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
		into := ss.chooseGroup(g)
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
			if d != dim {
				continue
			}
			// The cover grew in the split dimension: what it took in, no
			// other entry can bring again.
			for _, r := range remaining {
				gain[into][r] -= mds.IntersectCount(split.set(r), add)
			}
		}
	}
	ss.gain, ss.remaining = gain, remaining[:0]
	return g
}

// assignRanks is the assignment when every set of every column is one
// value, as a data node's always are. A value's code is its rank (codeSet),
// so each group's cover is a bitmap of codes per dimension beside its size:
// the counts of the picked entry are two loads per dimension, and the sorted
// covers are read back once, at the end.
//
// An entry's gain for a group is then 1 when the group's cover lacks its
// split-dimension value, so Fig. 6's pick — the first remaining entry with
// the greatest |gain₀ − gain₁| — is the first remaining entry whose value
// lies in exactly one cover, else the first remaining entry. The candidates
// wait in a min-heap of entry numbers: an entry enters when its value
// enters its first cover, and is dropped when it surfaces once the value is
// in both.
func (ss *splitScratch) assignRanks(g [2][]int, dim, minFill int) [2][]int {
	cols, in, counts := ss.cols, &ss.in, &ss.counts
	split := cols[dim]
	k := split.count()
	ss.done = append(ss.done[:0], make([]bool, k)...)
	ss.next = slices.Grow(ss.next[:0], k)[:k]
	ss.cand = slices.Grow(ss.cand[:0], k)
	// Chain each split-dimension value's entries, for take to feed.
	for i := 0; i < k; i++ {
		c := int(split.ids[i].Code())
		if c >= len(ss.head) {
			ss.head = extendByCode(ss.head, c+1, codeBlock)
		}
		ss.next[i], ss.head[c] = ss.head[c], int32(i+1)
	}
	for side := range g {
		ss.done[g[side][0]] = true
		ss.take(side, g[side][0], dim)
	}

	first := 0 // no entry before it remains
	for left := k - 2; left > 0; left-- {
		if short := shortGroup(g, left, minFill); short >= 0 {
			for i := first; i < k; i++ {
				if !ss.done[i] {
					g[short] = append(g[short], i)
					ss.take(short, i, dim)
				}
			}
			break
		}
		i := -1
		for len(ss.cand) > 0 && i < 0 {
			j := int(ss.cand[0])
			ss.cand.pop()
			if v := split.ids[j]; !ss.done[j] && !(in[0][dim].has(v) && in[1][dim].has(v)) {
				i = j
			}
		}
		if i < 0 {
			for ss.done[first] {
				first++
			}
			i = first
		}
		ss.done[i] = true

		for d, c := range cols {
			if c.same {
				continue
			}
			in0, in1 := in[0][d].has(c.ids[i]), in[1][d].has(c.ids[i])
			counts[0][d] = sideCount{fresh: one(!in0), shared: one(!in0 && in1)}
			counts[1][d] = sideCount{fresh: one(!in1), shared: one(!in1 && in0)}
		}
		into := ss.chooseGroup(g)
		g[into] = append(g[into], i)
		ss.take(into, i, dim)
	}

	for d, c := range cols {
		if c.same {
			continue // both covers are the seeds' sets, every entry's
		}
		for side := range in {
			ss.cov[side].ids[d] = in[side][d].appendTo(ss.cov[side].ids[d][:0], c.level)
		}
	}
	for _, v := range split.ids {
		ss.head[v.Code()] = 0
	}
	return g
}

// take adds entry i's values to group side's cover. A split-dimension value
// that enters its first cover makes its entries candidates.
func (ss *splitScratch) take(side, i, dim int) {
	for d, c := range ss.cols {
		v := c.ids[i]
		if c.same || ss.in[side][d].has(v) {
			continue
		}
		ss.in[side][d].add(v)
		if d != dim || ss.in[1-side][d].has(v) {
			continue
		}
		for j := ss.head[v.Code()]; j != 0; j = ss.next[j-1] {
			ss.cand.push(j - 1)
		}
	}
}

func one(b bool) int {
	if b {
		return 1
	}
	return 0
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
// group 1, a fresh sibling receives group 2, and the pair of entries that
// describe them is returned to the parent: a directory no store holds,
// whose entries carry the groups' describing MDSs — the covers of the
// *adapted* members, i.e. at the node's relevant levels with the split
// dimension one level lower, then refined and bounded — and aggregates.
func (ix *Index) buildSplit(n *Node, g1, g2 []int, cov1, cov2 mds.MDS) (*Node, error) {
	// A group can still overflow one block — a directory's entries by their
	// bytes, a data node's rows when a wider code widened them all: it takes
	// the blocks its bytes need, as a supernode does.
	sibling := ix.store.New(n.leaf)
	sibling.take(n, g2)
	n.take(n, g1)
	n.setBlocks(ix.nodeBlocks(n))
	sibling.setBlocks(ix.nodeBlocks(sibling))
	n.invalidatePostings()
	ix.store.MarkDirty(n.id)
	ix.store.MarkDirty(sibling.id)

	// Refine the relevant levels of the fresh nodes: a narrow subtree can
	// usually be described at a much finer level without blowing up the
	// MDS, and finer descriptions mean more pruning and more materialized
	// hits on the query path. Each cover is encoded into the pair before
	// the next refinement reuses the scratch.
	pair := NewNode(NilNode, false, ix.schema.Dims(), ix.schema.Measures())
	for _, half := range [2]struct {
		n   *Node
		cov mds.MDS
	}{{n, cov1}, {sibling, cov2}} {
		if err := ix.refineMDS(half.n, half.cov); err != nil {
			return nil, err
		}
		ix.boundMDS(half.cov)
		pair.appendEntry(half.cov, half.n.aggregate(ix.ws.agg), half.n.id)
	}
	return pair, nil
}

// refineMDS lowers, in place, the relevant level of every dimension of a
// node's MDS as long as the description at the finer level keeps at most
// Config.RefineBound values in that dimension. Refinement preserves
// coverage and minimality (the description is recomputed exactly from the
// subtree at each step; the other dimensions' sets already are the node's
// description at their levels and stay) and realizes the paper's
// observation that node MDSs become more specific further down the tree.
// A dimension's description depends on the node and that dimension alone,
// so each descends on its own, one description per level, and stops at
// the first level past the bound.
// Refined value sets live in the write scratch: the caller copies m out.
func (ix *Index) refineMDS(n *Node, m mds.MDS) error {
	bound := ix.cfg.RefineBound
	if bound <= 0 {
		return nil
	}
	space := ix.space()
	refined := ix.ws.refined
	for d := range m {
		for m[d].Level != 0 {
			next := m[d].Level - 1
			if m[d].Level == hierarchy.LevelALL {
				next = space[d].TopLevel()
			}
			desc, err := ix.describeNode(n, d, next)
			if err != nil {
				return err
			}
			if len(desc) > bound {
				break
			}
			refined[d] = append(refined[d][:0], desc...)
			m[d] = mds.DimSet{Level: next, IDs: refined[d]}
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
// It reports whether any dimension was lifted.
func (ix *Index) boundMDS(m mds.MDS) (lifted bool) {
	bound := 2 * ix.cfg.RefineBound
	if bound <= 0 {
		return false
	}
	for d, h := range ix.space() {
		ds := &m[d]
		for ds.Level != hierarchy.LevelALL && len(ds.IDs) > bound {
			lifted = true
			if ds.Level == h.TopLevel() {
				ds.Level, ds.IDs = hierarchy.LevelALL, append(ds.IDs[:0], hierarchy.ALL)
				break
			}
			up := mds.AppendLifted(ds.IDs[:0], h, *ds, ds.Level+1)
			ds.Level, ds.IDs = ds.Level+1, mds.SortDedupFrom(up, 0)
		}
	}
	return lifted
}
