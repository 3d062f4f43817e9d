package index

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/dcindex/dctree/internal/cube"
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
	for i := range recs {
		if err := ix.schema.ValidateRecord(recs[i]); err != nil {
			return fmt.Errorf("record %d: %w", i, err)
		}
	}
	order, err := ix.sortRecords(recs)
	if err != nil {
		return err
	}

	// The data level takes the sorted records; every level above, the
	// entries of the one below.
	dims, measures := ix.schema.Dims(), ix.schema.Measures()
	level, err := ix.pack(true, len(order),
		func(n *Node, _, i int) int { return leafSize(dims, n.Count()+1, n.rowSize(recs[order[i]].Coords)) },
		func(n *Node, i int) { n.appendRecord(recs[order[i]]) })
	if err != nil {
		return err
	}
	ix.head.Height = 1
	for len(level) > 1 {
		children := level
		size := dirSize
		for _, e := range children {
			size += entrySize(e.MDS, measures)
		}
		if ix.blocksFor(size) == 2 {
			// Entries that two blocks hold make one directory, split as
			// the dynamic tree splits a root that overflows (Figs. 5–6),
			// not a full directory that the first insert to reach it
			// would split, and the rest.
			level, err = ix.splitLevel(children)
		} else {
			level, err = ix.pack(false, len(children),
				func(_ *Node, size, i int) int { return size + entrySize(children[i].MDS, measures) },
				func(n *Node, i int) { n.entries = append(n.entries, children[i]) })
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
	ix.head.Root = level[0].Child
	ix.head.RootMDS = level[0].MDS
	ix.head.Count = int64(len(recs))
	return nil
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
// children, in order, and returns the entries that reference them: a node
// takes children while its encoding, with the next one added, still fits
// one block, and at least two, in the blocks they need. grow(n, size, i) is
// the length of n's encoding, size long now, once child i joins it; add(n,
// i) adds child i.
func (ix *Index) pack(leaf bool, count int, grow func(n *Node, size, i int) int, add func(n *Node, i int)) ([]Entry, error) {
	var level []Entry
	for lo := 0; lo < count; lo++ {
		n := ix.store.New(leaf)
		size := grow(n, n.encodedSize(), lo)
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
		e, err := ix.describe(n)
		if err != nil {
			return nil, err
		}
		level = append(level, e)
	}
	return level, nil
}

// splitLevel builds the level over children as the split of one directory
// of them all: two directories, or, when no split is acceptable, the
// supernode it grew into (§4.2), and returns the entries that reference
// them.
func (ix *Index) splitLevel(children []Entry) ([]Entry, error) {
	n := ix.store.New(false)
	n.entries = children
	e, err := ix.describe(n)
	if err != nil {
		return nil, err
	}
	res, err := ix.splitNode(n, e.MDS)
	if err != nil || !res.split {
		return []Entry{e}, err
	}
	return []Entry{
		{MDS: res.origMDS, Agg: res.origAgg, Child: n.id},
		{MDS: res.newMDS, Agg: res.newAgg, Child: res.newID},
	}, nil
}

// describe returns the entry that references node n, as a split describes
// a node: its cover, refined, and its aggregates.
func (ix *Index) describe(n *Node) (Entry, error) {
	ws := ix.ws
	m, err := mds.CoverInto(&ws.cover, ix.space(), ws.top, ws.entryMDSs(n))
	if err == nil {
		err = ix.refineMDS(n, m)
	}
	if err != nil {
		return Entry{}, err
	}
	return Entry{MDS: packMDS(m), Agg: n.aggregate(ix.schema.Measures()), Child: n.id}, nil
}
