package index

import (
	"sync/atomic"

	"github.com/dcindex/dctree/internal/cube"
	"github.com/dcindex/dctree/internal/hierarchy"
	"github.com/dcindex/dctree/internal/mds"
)

// Entry is one slot of a directory node: the child it references, the MDS
// describing everything below it and the materialized aggregate vector of
// that subtree — the paper's "the measure value ... will be stored together
// with the MDS in each node of the DC-tree" (§3.2).
type Entry struct {
	MDS   mds.MDS
	Agg   cube.AggVector
	Child NodeID
}

// Node is the in-memory form of a DC-tree node. A node's own MDS is not
// stored in the node but in its parent's entry (the root's in the tree
// metadata); it always equals the cover of the node's entry MDSs.
//
// A directory node keeps its entries as the write path's representation
// (choose-subtree and the in-place cover updates work on the per-dimension
// sets) and, beside them, an immutable read image: the node's own flat
// encoding, built by the first reader after a mutation and dropped by
// markDirty, so that the descent matches heap and mapped directories with
// the same code over contiguous bytes. Its choose-subtree keeps a third
// form, post: the postings that answer containment (postings.go), built by
// the first chooseSubtree after the entries change and marked stale by
// invalidatePostings at every site that changes an entry's MDS or the entry
// list — not by markDirty, which aggregate-only updates also call.
//
// A data node is struct-of-arrays: record i's coordinates are
// coords[i*dims:(i+1)*dims], its measures measures[i*nm:(i+1)*nm] — the
// same rows its encoding holds. A record's singleton MDS and one-record
// aggregates are functions of the row, kept in neither form and
// synthesized where the write path needs them.
type Node struct {
	id     NodeID
	leaf   bool
	blocks int // logical size in blocks; >1 marks a supernode

	entries []Entry
	img     atomic.Pointer[FlatNode]
	post    *postings

	dims, nm int // row widths of a data node
	coords   []hierarchy.ID
	measures []float64
}

// NewNode returns an empty one-block node for a Store to hand out under a
// freshly minted ID; dims and measures are the schema's row widths.
func NewNode(id NodeID, leaf bool, dims, measures int) *Node {
	return &Node{id: id, leaf: leaf, blocks: 1, dims: dims, nm: measures}
}

// ID returns the node's identifier.
func (n *Node) ID() NodeID { return n.id }

// Leaf reports whether the node is a data node.
func (n *Node) Leaf() bool { return n.leaf }

// Blocks returns the node's logical size in blocks; more than one marks a
// supernode, which occupies its full extent however short its encoding.
func (n *Node) Blocks() int { return n.blocks }

// Entries returns a directory node's entries (nil for a data node). They are
// the node's own: read them under the hold that excludes mutations, never
// write them.
func (n *Node) Entries() []Entry { return n.entries }

// Count returns the number of entries: directory entries or data records.
func (n *Node) Count() int {
	if n.leaf {
		return len(n.coords) / n.dims
	}
	return len(n.entries)
}

// Row returns record i's coordinates, RowMeasures its measures; both alias
// the node's arrays.
func (n *Node) Row(i int) []hierarchy.ID { return n.coords[i*n.dims : (i+1)*n.dims : (i+1)*n.dims] }

func (n *Node) RowMeasures(i int) []float64 { return n.measures[i*n.nm : (i+1)*n.nm : (i+1)*n.nm] }

// appendRecord adds a record to a data node.
func (n *Node) appendRecord(rec cube.Record) {
	n.coords = append(n.coords, rec.Coords...)
	n.measures = append(n.measures, rec.Measures...)
}

// removeRecord deletes record i of a data node, keeping the order of the rest.
func (n *Node) removeRecord(i int) {
	n.coords = append(n.coords[:i*n.dims], n.coords[(i+1)*n.dims:]...)
	n.measures = append(n.measures[:i*n.nm], n.measures[(i+1)*n.nm:]...)
}

// pick returns exactly sized copies of the listed entries of a directory
// node, or of the listed records of a data node, in the order listed.
func (n *Node) pick(group []int) (entries []Entry, coords []hierarchy.ID, measures []float64) {
	if !n.leaf {
		entries = make([]Entry, len(group))
		for i, g := range group {
			entries[i] = n.entries[g]
		}
		return entries, nil, nil
	}
	coords = make([]hierarchy.ID, 0, len(group)*n.dims)
	measures = make([]float64, 0, len(group)*n.nm)
	for _, g := range group {
		coords = append(coords, n.Row(g)...)
		measures = append(measures, n.RowMeasures(g)...)
	}
	return nil, coords, measures
}

// capacity returns the entry capacity of a node of the given kind and size
// under c, accounting for supernode extents (§4.2: "directory node capacity
// multiplied by the number of blocks of the supernode").
func (c *Config) capacity(leaf bool, blocks int) int {
	per := c.DirCapacity
	if leaf {
		per = c.LeafCapacity
	}
	return per * blocks
}

// aggregate computes the node's aggregate vector from its entries.
func (n *Node) aggregate(measures int) cube.AggVector {
	v := cube.NewAggVector(measures)
	n.aggregateInto(v)
	return v
}

// aggregateInto refolds the node's aggregate vector into v in place: v is
// emptied, then the node's rows or entries are folded in, in order.
func (n *Node) aggregateInto(v cube.AggVector) {
	clear(v)
	if n.leaf {
		for i := 0; i < n.Count(); i++ {
			v.AddRecord(n.RowMeasures(i))
		}
		return
	}
	for i := range n.entries {
		v.Merge(n.entries[i].Agg)
	}
}

// HeapView fills nv with the read-only view of a heap node: a data node
// itself, a directory through its read image.
func (ix *Index) HeapView(n *Node, nv *NodeView) {
	if n.leaf {
		nv.n = n
		return
	}
	nv.n, nv.f = nil, *ix.image(n)
}

// image returns a directory node's read image — its flat encoding behind an
// already-trusted FlatNode — building and publishing it if the node has
// none. Readers share the host's hold (or walk a version whose nodes never
// change), so racing builders encode the same state and whichever image is
// stored last serves; the write path drops the image in markDirty, under
// the exclusive hold.
func (ix *Index) image(n *Node) *FlatNode {
	if img := n.img.Load(); img != nil {
		return img
	}
	dims, measures := ix.schema.Dims(), ix.schema.Measures()
	img := new(FlatNode)
	img.trust(n.id, n.appendEncodeFlat(nil, dims, measures), dims, measures)
	ix.c.readImageBuilds.Inc()
	n.img.Store(img)
	return img
}

// Encode returns the node's flat encoding, for the host to persist or to
// freeze into a version. A directory's read image IS that encoding, so a
// still-valid one is shared (payloads are never written to) and a fresh one
// stays behind for the readers. Call it under the hold that excludes
// mutations.
func (ix *Index) Encode(n *Node) []byte {
	if n.leaf {
		return n.appendEncodeFlat(nil, ix.schema.Dims(), ix.schema.Measures())
	}
	return ix.image(n).b
}
