package index

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/dcindex/dctree/internal/cube"
	"github.com/dcindex/dctree/internal/mds"
)

// BulkLoad fills an empty tree from a record set in one pass: records are
// sorted hierarchically (per dimension top-down, dimensions
// round-robined), packed into full data nodes, and the directory is built
// bottom-up with exact covers, refined relevant levels, and materialized
// aggregates.
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
	space := ix.space()

	// Hierarchical sort: compare the records' concept paths level by
	// level, cycling through the dimensions at each depth, so that records
	// sharing coarse ancestors in any dimension end up adjacent — the
	// clustering the dynamic insert develops incrementally. Every key has
	// one code per level of every dimension, so the keys share one arena
	// and record i's is keys[i*width:][:width].
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
					return err
				}
				keys = append(keys, anc.Code())
			}
		}
	}
	order := make([]int, len(recs))
	for i := range order {
		order[i] = i
	}
	// Equal keys keep input order, as a stable sort would.
	slices.SortFunc(order, func(a, b int) int {
		if c := slices.Compare(keys[a*width:][:width], keys[b*width:][:width]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})

	// Pack sorted records into full data nodes.
	type built struct {
		id  NodeID
		mds mds.MDS
		agg cube.AggVector
	}
	measures := ix.schema.Measures()
	var level []built
	for lo := 0; lo < len(recs); lo += ix.cfg.LeafCapacity {
		hi := lo + ix.cfg.LeafCapacity
		if hi > len(recs) {
			hi = len(recs)
		}
		n := ix.store.New(true)
		for _, idx := range order[lo:hi] {
			n.appendRecord(recs[idx])
		}
		m, err := ix.bulkDescribe(n)
		if err != nil {
			return err
		}
		level = append(level, built{id: n.id, mds: m, agg: n.aggregate(measures)})
	}
	ix.head.Height = 1

	// Build the directory bottom-up, packing full directory nodes.
	for len(level) > 1 {
		var next []built
		for lo := 0; lo < len(level); lo += ix.cfg.DirCapacity {
			hi := lo + ix.cfg.DirCapacity
			if hi > len(level) {
				hi = len(level)
			}
			n := ix.store.New(false)
			for _, b := range level[lo:hi] {
				n.entries = append(n.entries, Entry{MDS: b.mds, Agg: b.agg, Child: b.id})
			}
			m, err := ix.bulkDescribe(n)
			if err != nil {
				return err
			}
			next = append(next, built{id: n.id, mds: m, agg: n.aggregate(measures)})
		}
		level = next
		ix.head.Height++
	}

	root, err := ix.store.Get(level[0].id)
	if err != nil {
		return err
	}
	// Drop the old empty root and install the packed one.
	if err := ix.store.Drop(ix.head.Root); err != nil {
		return err
	}
	ix.head.Root = root.id
	ix.head.RootMDS = level[0].mds
	ix.head.Count = int64(len(recs))
	return nil
}

// bulkDescribe computes a node's describing MDS for bulk loading: the
// exact cover lifted to coarse relevant levels, refined by the same rule
// the dynamic split path uses.
func (ix *Index) bulkDescribe(n *Node) (mds.MDS, error) {
	// Lift to the coarsest describable form first (one value per
	// dimension where possible keeps the description minimal), then apply
	// the standard refinement bound downward.
	ws := ix.ws
	coarse, err := mds.CoverInto(&ws.cover, ix.space(), ws.top, ws.entryMDSs(n))
	if err != nil {
		return nil, err
	}
	if err := ix.refineMDS(n, coarse); err != nil {
		return nil, err
	}
	return packMDS(coarse), nil
}
