package core

import (
	"sync/atomic"

	"github.com/dcindex/dctree/internal/cube"
	"github.com/dcindex/dctree/internal/hierarchy"
	"github.com/dcindex/dctree/internal/mds"
)

// entry is one slot of a directory node: the child it references, the MDS
// describing everything below it and the materialized aggregate vector of
// that subtree — the paper's "the measure value ... will be stored together
// with the MDS in each node of the DC-tree" (§3.2).
type entry struct {
	MDS   mds.MDS
	Agg   cube.AggVector
	Child nodeID
}

// node is the in-memory form of a DC-tree node. A node's own MDS is not
// stored in the node but in its parent's entry (the root's in the tree
// metadata); it always equals the cover of the node's entry MDSs.
//
// A directory node keeps its entries as the write path's representation
// (choose-subtree and the in-place cover updates work on the per-dimension
// sets) and, beside them, an immutable read image: the node's own flat
// encoding, built by the first reader after a mutation and dropped by
// markDirty, so that the descent matches heap and mapped directories with
// the same code over contiguous bytes.
//
// A data node is struct-of-arrays: record i's coordinates are
// coords[i*dims:(i+1)*dims], its measures measures[i*nm:(i+1)*nm]. The
// singleton MDS and the one-record aggregates the encoding carries for a
// data entry are functions of the row and are synthesized where needed.
type node struct {
	id     nodeID
	leaf   bool
	blocks int // logical size in blocks; >1 marks a supernode

	entries []entry
	img     atomic.Pointer[flatNode]

	dims, nm int // row widths of a data node
	coords   []hierarchy.ID
	measures []float64
}

// count returns the number of entries: directory entries or data records.
func (n *node) count() int {
	if n.leaf {
		return len(n.coords) / n.dims
	}
	return len(n.entries)
}

// row returns record i's coordinates; rowMeasures its measures.
func (n *node) row(i int) []hierarchy.ID { return n.coords[i*n.dims : (i+1)*n.dims : (i+1)*n.dims] }

func (n *node) rowMeasures(i int) []float64 { return n.measures[i*n.nm : (i+1)*n.nm : (i+1)*n.nm] }

// appendRecord adds a record to a data node.
func (n *node) appendRecord(rec cube.Record) {
	n.coords = append(n.coords, rec.Coords...)
	n.measures = append(n.measures, rec.Measures...)
}

// removeRecord deletes record i of a data node, keeping the order of the rest.
func (n *node) removeRecord(i int) {
	n.coords = append(n.coords[:i*n.dims], n.coords[(i+1)*n.dims:]...)
	n.measures = append(n.measures[:i*n.nm], n.measures[(i+1)*n.nm:]...)
}

// pick returns exactly sized copies of the listed entries of a directory
// node, or of the listed records of a data node, in the order listed.
func (n *node) pick(group []int) (entries []entry, coords []hierarchy.ID, measures []float64) {
	if !n.leaf {
		entries = make([]entry, len(group))
		for i, g := range group {
			entries[i] = n.entries[g]
		}
		return entries, nil, nil
	}
	coords = make([]hierarchy.ID, 0, len(group)*n.dims)
	measures = make([]float64, 0, len(group)*n.nm)
	for _, g := range group {
		coords = append(coords, n.row(g)...)
		measures = append(measures, n.rowMeasures(g)...)
	}
	return nil, coords, measures
}

// capacity returns the entry capacity of the node under cfg, accounting for
// supernode extents (§4.2: "directory node capacity multiplied by the
// number of blocks of the supernode").
func (n *node) capacity(cfg *Config) int {
	per := cfg.DirCapacity
	if n.leaf {
		per = cfg.LeafCapacity
	}
	return per * n.blocks
}

// overflowing reports whether the node exceeds its (super)capacity.
func (n *node) overflowing(cfg *Config) bool {
	return n.count() > n.capacity(cfg)
}

// isSuper reports whether the node is a supernode.
func (n *node) isSuper() bool { return n.blocks > 1 }

// aggregate computes the node's aggregate vector from its entries.
func (n *node) aggregate(measures int) cube.AggVector {
	v := cube.NewAggVector(measures)
	if n.leaf {
		for i := 0; i < n.count(); i++ {
			v.AddRecord(n.rowMeasures(i))
		}
		return v
	}
	for i := range n.entries {
		v.Merge(n.entries[i].Agg)
	}
	return v
}
