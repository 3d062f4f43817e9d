package index

import (
	"math/bits"
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
// synthesized where the write path needs them. Beside the rows it keeps
// top, each dimension's largest code: the widths its encoding stores the
// codes at (codeWidth), and so the bytes the node needs, are functions of
// it, kept exact by every change to the rows.
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
	top      []uint32
}

// NewNode returns an empty one-block node for a Store to hand out under a
// freshly minted ID; dims and measures are the schema's row widths.
func NewNode(id NodeID, leaf bool, dims, measures int) *Node {
	n := &Node{id: id, leaf: leaf, blocks: 1, dims: dims, nm: measures}
	if leaf {
		n.top = make([]uint32, dims)
	}
	return n
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
	for d, c := range rec.Coords {
		n.top[d] = max(n.top[d], c.Code())
	}
}

// removeRecord deletes record i of a data node, keeping the order of the
// rest. A dimension whose largest code leaves with the row has its column
// rescanned.
func (n *Node) removeRecord(i int) {
	for d, c := range n.Row(i) {
		if c.Code() == n.top[d] {
			n.top[d] = n.columnTop(d, i)
		}
	}
	n.coords = append(n.coords[:i*n.dims], n.coords[(i+1)*n.dims:]...)
	n.measures = append(n.measures[:i*n.nm], n.measures[(i+1)*n.nm:]...)
}

// columnTop returns the largest code of dimension d among a data node's
// rows other than row skip (-1: all of them).
func (n *Node) columnTop(d, skip int) uint32 {
	var top uint32
	for i, k := 0, d; k < len(n.coords); i, k = i+1, k+n.dims {
		if i != skip {
			top = max(top, n.coords[k].Code())
		}
	}
	return top
}

// codeWidth returns the bytes a data node's encoding stores codes up to c
// in: 1 to 4.
func codeWidth(c uint32) int { return max(1, (bits.Len32(c)+7)/8) }

// rowSize returns the stride of a data node's encoded rows: each code at
// its dimension's width, then the measures. With coords non-nil it is the
// stride once a row of those coordinates joins.
func (n *Node) rowSize(coords []hierarchy.ID) int {
	size := 8 * n.nm
	for d, c := range n.top {
		if coords != nil {
			c = max(c, coords[d].Code())
		}
		size += codeWidth(c)
	}
	return size
}

// encodedSize returns the length of a data node's encoding.
func (n *Node) encodedSize() int { return leafSize(n.dims, n.Count(), n.rowSize(nil)) }

// take replaces the node's entries, or rows, by exactly sized copies of the
// listed ones of src, in the order listed; a data node's largest codes are
// its new rows'.
func (n *Node) take(src *Node, group []int) {
	if !n.leaf {
		entries := make([]Entry, len(group))
		for i, g := range group {
			entries[i] = src.entries[g]
		}
		n.entries = entries
		return
	}
	coords := make([]hierarchy.ID, 0, len(group)*n.dims)
	measures := make([]float64, 0, len(group)*n.nm)
	top := make([]uint32, n.dims)
	for _, g := range group {
		row := src.Row(g)
		coords = append(coords, row...)
		measures = append(measures, src.RowMeasures(g)...)
		for d, c := range row {
			top[d] = max(top[d], c.Code())
		}
	}
	n.coords, n.measures, n.top = coords, measures, top
}

// fill is the one overflow rule: what a node of the given kind, entry count
// and encoded size fills, and what one block holds of it. A directory fills
// DirCapacity entries a block; a data node LeafCapacity rows a block or,
// block-filled (LeafCapacity 0), the one-block payload with the bytes of
// its encoding. A supernode holds its blocks' worth (§4.2: "directory node
// capacity multiplied by the number of blocks of the supernode").
func (ix *Index) fill(leaf bool, count, size int) (used, perBlock int) {
	switch {
	case !leaf:
		return count, ix.cfg.DirCapacity
	case ix.cfg.LeafCapacity > 0:
		return count, ix.cfg.LeafCapacity
	}
	return size, ix.payload
}

// blocksFor returns the fewest blocks that hold a node of the given kind,
// entry count and encoded size.
func (ix *Index) blocksFor(leaf bool, count, size int) int {
	used, per := ix.fill(leaf, count, size)
	return max(1, (used+per-1)/per)
}

// nodeBlocks is blocksFor of a heap node.
func (ix *Index) nodeBlocks(n *Node) int {
	if !n.leaf {
		return ix.blocksFor(false, len(n.entries), 0)
	}
	return ix.blocksFor(true, n.Count(), n.encodedSize())
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

// repairAggregate brings v, a data node's aggregate vector before the row
// whose measures were gone left it, to the node's aggregate after — bit for
// bit what aggregateInto computes, for less. The counts drop by one; the
// sums are refolded alone, in row order from the first row's value, as Add
// folds them (from 0 a sum of −0.0 rows would read +0.0); min and max are
// refolded only when the row held one of them or a NaN, or the first row,
// where the fold starts, is a NaN — otherwise the gone row never decided
// them. The node holds at least one row.
func (n *Node) repairAggregate(v cube.AggVector, gone []float64) {
	for j := range v {
		a, first := &v[j], n.measures[j]
		a.Count--
		a.Sum = first
		for k := j + n.nm; k < len(n.measures); k += n.nm {
			a.Sum += n.measures[k]
		}
		if x := gone[j]; x != a.Min && x != a.Max && x == x && first == first {
			continue
		}
		a.Min, a.Max = first, first
		for k := j + n.nm; k < len(n.measures); k += n.nm {
			// Add's comparisons, not min and max, which a NaN or a signed
			// zero would decide otherwise.
			if x := n.measures[k]; x < a.Min {
				a.Min = x
			} else if x > a.Max {
				a.Max = x
			}
		}
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
