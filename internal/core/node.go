package core

import (
	"github.com/dcindex/dctree/internal/cube"
	"github.com/dcindex/dctree/internal/mds"
)

// entry is one slot of a DC-tree node. In a directory node it references a
// child node; in a data node it holds one data record. Either way it
// carries the describing MDS and the materialized aggregate vector of
// everything below it (for a record: the record's own measures) — the
// paper's "the measure value ... will be stored together with the MDS in
// each node of the DC-tree" (§3.2).
type entry struct {
	MDS   mds.MDS
	Agg   cube.AggVector
	Child nodeID      // directory entries only
	Rec   cube.Record // data entries only
}

// node is the in-memory form of a DC-tree node. A node's own MDS is not
// stored in the node but in its parent's entry (the root's in the tree
// metadata); it always equals the cover of the node's entry MDSs.
type node struct {
	id      nodeID
	leaf    bool
	blocks  int // logical size in blocks; >1 marks a supernode
	entries []entry
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
	return len(n.entries) > n.capacity(cfg)
}

// isSuper reports whether the node is a supernode.
func (n *node) isSuper() bool { return n.blocks > 1 }

// aggregate computes the node's aggregate vector from its entries.
func (n *node) aggregate(measures int) cube.AggVector {
	v := cube.NewAggVector(measures)
	for i := range n.entries {
		v.Merge(n.entries[i].Agg)
	}
	return v
}
