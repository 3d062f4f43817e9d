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
	in     [2][]codeSet   // each group's cover per dimension as a bitmap of codes
	size   [2][]int       // |cover| per group and dimension
	inter  []int          // |cover₀ ∩ cover₁| per dimension
	counts [2][]sideCount // what the picked entry would add to either cover

	// The split dimension's values, entry by entry, chained per value so that
	// a value entering a cover reaches every entry whose set holds it.
	head  []int32   // per split-dimension code: 1 + a slot of it, 0 if none
	next  []int32   // per slot of the split column: 1 + another slot of its value, 0 if none
	entry []int32   // per slot: the entry whose set it is in
	done  []bool    // per entry: assigned to a group
	diff  []int     // per entry: its gain₀ − gain₁ in the split dimension
	cand  entryHeap // entries whose one value may lie in exactly one cover

	// The covers read back from the bitmaps, handed out as MDSs; ids[0] is
	// also the distinct-value scratch of column.close, idle until then.
	cov [2]mds.MDS
	ids [2][]hierarchy.ID

	fallback splitFallback
}

func (ss *splitScratch) init(dims int) {
	ss.base = make([]column, dims)
	ss.haveBase = make([]bool, dims)
	ss.cols = make([]*column, dims)
	ss.order = make([]int, dims)
	ss.inter = make([]int, dims)
	ss.head = make([]int32, codeBlock)
	for side := range ss.in {
		ss.cov[side] = make(mds.MDS, dims)
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
	// The first cover's storage is idle until the covers are read back.
	scratch := &ix.ws.split.ids[0]
	*scratch = c.close(*scratch)
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
// alike.
func (ss *splitScratch) hierarchySplit(dim, minFill int) (g1, g2 []int, cov1, cov2 mds.MDS) {
	k := ss.cols[dim].count()
	if k < 2 {
		return nil, nil, nil, nil
	}
	seedA, seedB, _ := ss.seedPair(k)
	g := ss.assign(seedA, seedB, dim, minFill)
	ss.readCovers()
	return g[0], g[1], ss.cov[0], ss.cov[1]
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

// assign is the assignment of Fig. 6 to the groups seeded by entries a and
// b. A value's code is its rank (codeSet), so each group's cover is a bitmap
// of codes per dimension beside its size: the counts of the picked entry are
// two bit tests per value, and the sorted covers are read back once, at the
// end (readCovers).
//
// An entry's gain for a group is the number of its split-dimension values
// the group's cover lacks, and the pick is the first remaining entry with
// the greatest |gain₀ − gain₁| (pick).
func (ss *splitScratch) assign(a, b, dim, minFill int) [2][]int {
	cols, in, counts := ss.cols, &ss.in, &ss.counts
	split := cols[dim]
	k := split.count()
	ss.done = append(ss.done[:0], make([]bool, k)...)
	ss.diff = append(ss.diff[:0], make([]int, k)...)
	ss.cand = slices.Grow(ss.cand[:0], k)
	// Chain each split-dimension value's slots, for take to follow.
	slots := len(split.ids)
	ss.next = slices.Grow(ss.next[:0], slots)[:slots]
	ss.entry = slices.Grow(ss.entry[:0], slots)[:slots]
	for i := 0; i < k; i++ {
		for s := split.off[i]; s < split.off[i+1]; s++ {
			c := int(split.ids[s].Code())
			if c >= len(ss.head) {
				ss.head = extendByCode(ss.head, c+1, codeBlock)
			}
			ss.next[s], ss.head[c], ss.entry[s] = ss.head[c], int32(s+1), int32(i)
		}
	}
	g := [2][]int{append(ss.g[0][:0], a), append(ss.g[1][:0], b)}
	for side := range g {
		ss.done[g[side][0]] = true
		ss.take(side, g[side][0], dim)
	}
	for d, c := range cols {
		ss.size[0][d], ss.size[1][d] = len(c.set(a)), len(c.set(b))
		ss.inter[d] = 0
		for _, v := range c.set(b) {
			ss.inter[d] += one(c.same || in[0][d].has(v))
		}
		// A dimension in which every entry carries the same set adds
		// nothing to either cover, ever: both covers are that set, and
		// take marks neither.
		counts[0][d], counts[1][d] = sideCount{}, sideCount{}
	}

	first := 0 // no entry before it remains
	for left := k - 2; left > 0; left-- {
		for ss.done[first] {
			first++
		}
		if short := shortGroup(g, left, minFill); short >= 0 {
			for i := first; i < k; i++ {
				if !ss.done[i] {
					g[short] = append(g[short], i)
					ss.take(short, i, dim)
				}
			}
			break
		}
		i := ss.pick(first, dim)
		ss.done[i] = true

		// Two bit tests per value of the picked set.
		for d, c := range cols {
			switch {
			case c.same:
			case c.single:
				in0, in1 := in[0][d].has(c.ids[i]), in[1][d].has(c.ids[i])
				counts[0][d] = sideCount{fresh: one(!in0), shared: one(!in0 && in1)}
				counts[1][d] = sideCount{fresh: one(!in1), shared: one(!in1 && in0)}
			default:
				var cnt [2]sideCount
				for _, v := range c.set(i) {
					in0, in1 := in[0][d].has(v), in[1][d].has(v)
					cnt[0].fresh, cnt[0].shared = cnt[0].fresh+one(!in0), cnt[0].shared+one(!in0 && in1)
					cnt[1].fresh, cnt[1].shared = cnt[1].fresh+one(!in1), cnt[1].shared+one(!in1 && in0)
				}
				counts[0][d], counts[1][d] = cnt[0], cnt[1]
			}
		}
		into := ss.chooseGroup(g)
		g[into] = append(g[into], i)
		ss.take(into, i, dim)
	}

	for _, v := range split.ids {
		ss.head[v.Code()] = 0
	}
	ss.g = g
	return g
}

// pick is the next entry to assign, given the first remaining one: the first
// remaining entry with the greatest |gain₀ − gain₁|. It is the one step that
// depends on the shape of the split column. On value sets, as a directory's,
// every entry keeps its difference, which take moves as the covers grow, and
// the pick is a forward scan. On one value per entry, as a data node's
// always are, the difference is 1 exactly when the value lies in one cover:
// such entries wait in a min-heap of entry numbers, entering when their
// value enters its first cover and dropped when they surface once it is in
// both; with none the pick is the first remaining entry.
func (ss *splitScratch) pick(first, dim int) int {
	split := ss.cols[dim]
	if !split.single {
		i, most := first, -1
		for j := first; j < len(ss.diff); j++ {
			if d := max(ss.diff[j], -ss.diff[j]); d > most && !ss.done[j] {
				i, most = j, d
			}
		}
		return i
	}
	for len(ss.cand) > 0 {
		j := int(ss.cand[0])
		ss.cand.pop()
		if v := split.ids[j]; !ss.done[j] && !(ss.in[0][dim].has(v) && ss.in[1][dim].has(v)) {
			return j
		}
	}
	return first
}

// take adds entry i's values to group side's cover. A split-dimension value
// entering it lowers the gain of every entry whose set holds it: on one value
// per entry those entries become candidates if the other cover lacks the
// value; on value sets their differences move. A set of one value is read
// without a loop, which a data node's split, run for each of its rows, shows.
func (ss *splitScratch) take(side, i, dim int) {
	own := ss.in[side]
	for d, c := range ss.cols {
		switch {
		case c.same:
		case c.single:
			v := c.ids[i]
			if own[d].has(v) {
				continue
			}
			own[d].add(v)
			if d != dim || ss.in[1-side][d].has(v) {
				continue
			}
			for s := ss.head[v.Code()]; s != 0; s = ss.next[s-1] {
				ss.cand.push(s - 1)
			}
		default:
			for _, v := range c.set(i) {
				if own[d].has(v) {
					continue
				}
				own[d].add(v)
				if d != dim {
					continue
				}
				for s := ss.head[v.Code()]; s != 0; s = ss.next[s-1] {
					ss.diff[ss.entry[s-1]] += 2*side - 1
				}
			}
		}
	}
}

func one(b bool) int {
	if b {
		return 1
	}
	return 0
}

// readCovers reads the groups' covers back from their bitmaps into ss.cov,
// sorted, and empties the bitmaps. A column whose entries all carry one set
// gives both covers a copy of it.
func (ss *splitScratch) readCovers() {
	for side := range ss.cov {
		// A set handed out stays where it is if ids moves on growing.
		ids := ss.ids[side][:0]
		for d, c := range ss.cols {
			start := len(ids)
			if c.same {
				ids = append(ids, c.set(0)...)
			} else {
				ids = ss.in[side][d].appendTo(ids, c.level)
			}
			ss.cov[side][d] = mds.DimSet{Level: c.level, IDs: ids[start:len(ids):len(ids)]}
		}
		ss.ids[side] = ids
	}
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
