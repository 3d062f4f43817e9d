package index

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/dcindex/dctree/internal/cube"
	"github.com/dcindex/dctree/internal/hierarchy"
	"github.com/dcindex/dctree/internal/mds"
)

// BulkLoad fills an empty tree from a record set in one pass: the records
// are sorted by their hierarchical key (sortRecords), and the tree is
// packed bottom-up from them, one level of full nodes at a time (pack),
// with exact covers, refined relevant levels, and materialized aggregates.
// A level of directory entries that two blocks hold is split instead, as
// an overflowing root is (splitLevel).
//
// This is the "bulk incremental update" mode of the systems the paper
// compares against (§1): it produces a well-clustered tree faster than
// record-at-a-time insertion, at the price of the warehouse being offline
// while it runs. It exists here to quantify that trade-off (see the
// BulkVsDynamic benchmark); the paper's contribution is that the DC-tree
// makes the trade-off unnecessary.
func (ix *Index) BulkLoad(recs []cube.Record) error {
	if ix.head.Count > 0 {
		return fmt.Errorf("%w: BulkLoad requires an empty tree", ErrBadConfig)
	}
	if len(recs) == 0 {
		return nil
	}
	nm := ix.schema.Measures()
	units, span := make([]int64, len(recs)*nm), make([]uint64, nm)
	for i := range recs {
		if err := ix.schema.ValidateRecord(recs[i]); err != nil {
			return fmt.Errorf("record %d: %w", i, err)
		}
		for j, x := range recs[i].Measures {
			units[i*nm+j], _ = ix.schema.Units(j, x)
			span[j] = max(span[j], absUnits(units[i*nm+j]))
		}
	}
	for j, s := range span {
		if err := admitSpan(j, int64(len(recs)), s); err != nil {
			return err
		}
	}
	ix.span = span
	order, err := ix.sortRecords(recs)
	if err != nil {
		return err
	}

	// The data level takes the sorted records; every level above, the
	// entries of the one below. A level's entries are built as one
	// directory's, level, which no store holds.
	cols := ix.schema.Dims() + nm
	row := func(i int) ([]hierarchy.ID, []int64) { return recs[order[i]].Coords, units[order[i]*nm:][:nm] }
	level, err := ix.pack(true, len(order),
		func(n *Node, _, i int) int { return leafSize(cols, n.Count()+1, n.rowSize(row(i))) },
		func(n *Node, i int) { n.appendRecord(row(i)) })
	if err != nil {
		return err
	}
	ix.head.Height = 1
	for level.Count() > 1 {
		children := &level.flat
		if ix.blocksFor(len(children.b)) == 2 {
			// Entries that two blocks hold make one directory, split as
			// the dynamic tree splits a root that overflows (Figs. 5–6),
			// not a full directory that the first insert to reach it
			// would split, and the rest.
			level, err = ix.splitLevel(children)
		} else {
			level, err = ix.pack(false, children.count,
				func(_ *Node, size, i int) int { return size + entrySize(len(children.EntryMDS(i)), nm) },
				func(n *Node, i int) { n.copyEntry(children, i) })
		}
		if err != nil {
			return err
		}
		ix.head.Height++
	}

	// Drop the old empty root and install the packed one.
	if err := ix.store.Drop(ix.head.Root); err != nil {
		return err
	}
	ix.head.Root = level.flat.Child(0)
	ix.head.RootMDS, _, err = mds.Decode(level.flat.EntryMDS(0))
	ix.head.Count = int64(len(recs))
	return err
}

// sortRecords returns the order of recs under BulkLoad's hierarchical key:
// the records' concept paths compared level by level, cycling through the
// dimensions at each depth, so that records sharing coarse ancestors in any
// dimension end up adjacent — the clustering the dynamic insert develops
// incrementally. Equal keys keep input order, as a stable sort would.
func (ix *Index) sortRecords(recs []cube.Record) ([]int, error) {
	// Every key has one code per level of every dimension, so the keys
	// share one arena and record i's is keys[i*width:][:width].
	space := ix.space()
	maxDepth, width := 0, 0
	for _, h := range space {
		maxDepth = max(maxDepth, h.Depth())
		width += h.Depth()
	}
	keys := make([]uint32, 0, len(recs)*width)
	for _, r := range recs {
		for depth := 0; depth < maxDepth; depth++ {
			for d, h := range space {
				level := h.TopLevel() - depth
				if level < 0 {
					continue
				}
				anc, err := h.AncestorAt(r.Coords[d], level)
				if err != nil {
					return nil, err
				}
				keys = append(keys, anc.Code())
			}
		}
	}
	order := make([]int, len(recs))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := slices.Compare(keys[a*width:][:width], keys[b*width:][:width]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return order, nil
}

// pack builds one level of full nodes of the given kind over count sorted
// children, in order, and returns the level of entries that reference them:
// a node takes children while its encoding, with the next one added, still
// fits one block, and at least two, in the blocks they need. grow(n, size,
// i) is the length of n's encoding, size long now, once child i joins it;
// add(n, i) adds child i.
func (ix *Index) pack(leaf bool, count int, grow func(n *Node, size, i int) int, add func(n *Node, i int)) (*Node, error) {
	level := NewNode(NilNode, false, ix.schema.Dims(), ix.schema.Measures())
	for lo := 0; lo < count; lo++ {
		n := ix.store.New(leaf)
		size := grow(n, len(n.flat.b), lo)
		add(n, lo)
		for ; lo+1 < count; lo++ {
			next := grow(n, size, lo+1)
			if n.Count() >= 2 && ix.blocksFor(next) > 1 {
				break
			}
			size = next
			add(n, lo+1)
		}
		n.setBlocks(ix.blocksFor(size))
		if err := ix.describe(n, level); err != nil {
			return nil, err
		}
	}
	return level, nil
}

// splitLevel builds the level over children as the split of one directory
// of them all: two directories, or, when no split is acceptable, the
// supernode it grew into (§4.2), and returns the level of entries that
// reference them.
func (ix *Index) splitLevel(children *FlatNode) (*Node, error) {
	n := ix.store.New(false)
	n.frame(slices.Clone(children.b), children.count)
	level := NewNode(NilNode, false, ix.schema.Dims(), ix.schema.Measures())
	if err := ix.describe(n, level); err != nil {
		return nil, err
	}
	if pair, err := ix.splitNode(n, ix.ws.edit.one(level.flat.EntryMDS(0))); err != nil || pair != nil {
		return pair, err
	}
	return level, nil
}

// describe appends to level the entry that references node n, as a split
// describes a node: its cover, refined, and its aggregates.
func (ix *Index) describe(n *Node, level *Node) error {
	ws := ix.ws
	m, err := mds.CoverInto(&ws.cover, ix.space(), ws.top, ws.entryMDSs(n))
	if err == nil {
		err = ix.refineMDS(n, m)
	}
	if err == nil {
		level.appendEntry(m, n.aggregate(ws.agg), n.id)
	}
	return err
}
