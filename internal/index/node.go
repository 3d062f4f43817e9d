package index

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"slices"

	"github.com/dcindex/dctree/internal/cube"
	"github.com/dcindex/dctree/internal/hierarchy"
	"github.com/dcindex/dctree/internal/mds"
)

// Node is the in-memory form of a DC-tree node: its flat encoding
// (flatnode.go) and nothing else, in a block with spare room to grow. A
// node's own MDS is not stored in the node but in its parent's entry (the
// root's in the tree metadata); it always equals the cover of the node's
// entry MDSs. Every change writes the block's header, so the block is at all
// times what Encode copies out and what HeapView frames for the descent.
//
// A data node's rows sit at their exact widths; a record's singleton MDS and
// one-record aggregates are functions of its row. Beside the block it keeps
// top, each column's largest key — a dimension's largest code, a measure's
// largest magnitude: the widths (widthOf), and so the bytes the node needs,
// are functions of it and of each measure's sign, kept exact by every
// change.
//
// A directory's entries are edited where they lie: an aggregate in its
// fixed slot; an MDS re-encoded and spliced into the MDS area (mdsSlot); an
// entry added or removed by opening or closing its slots (reslot). Beside
// the block it keeps one index over the entries, post: the postings that
// answer containment (postings.go), built from the bytes by the first
// chooseSubtree or delete probe after the entries change and marked stale by
// invalidatePostings wherever an entry's MDS or the entry list changes.
type Node struct {
	id   NodeID
	leaf bool

	dims, nm int // the schema's row widths
	flat     FlatNode
	top      []uint64 // a data node's largest column keys
	post     *postings
}

// NewNode returns an empty one-block node for a Store to hand out under a
// freshly minted ID; dims and measures are the schema's row widths.
func NewNode(id NodeID, leaf bool, dims, measures int) *Node {
	n := &Node{id: id, leaf: leaf, dims: dims, nm: measures}
	n.flat.blocks = 1
	if leaf {
		n.lay(bytes.Repeat([]byte{1}, dims+measures), make([]uint64, dims+measures), 0)
	} else {
		n.layDir(dirSize)
	}
	return n
}

// lay gives a data node an empty block at the given widths, of columns
// whose largest keys are top, with room for rows rows.
func (n *Node) lay(widths []byte, top []uint64, rows int) {
	n.top = top
	stride := 0
	for _, w := range widths {
		stride += bytesOf(w)
	}
	b := make([]byte, leafSize(len(top), 0, 0), leafSize(len(top), rows, stride))
	b[0], b[1] = flatMagic, nodeFlagLeaf
	copy(b[flatHeaderSize:], widths)
	n.frame(b, 0)
}

// frame makes b, holding count rows or entries, the node's encoding: the
// header takes the node's blocks, the count, the MDS base and the length,
// and flat frames b. A data node's pad is zeroed: the stores of its last
// row spill into it.
func (n *Node) frame(b []byte, count int) {
	mdsBase := len(b) - leafPad
	if n.leaf {
		clear(b[mdsBase:])
	} else {
		_, _, mdsBase = dirLayoutSizes(count, n.nm)
	}
	binary.LittleEndian.PutUint32(b[4:], uint32(n.flat.blocks))
	binary.LittleEndian.PutUint32(b[8:], uint32(count))
	binary.LittleEndian.PutUint32(b[12:], uint32(mdsBase))
	binary.LittleEndian.PutUint32(b[16:], uint32(len(b)))
	n.flat.FrameTrusted(n.id, b, n.dims, n.nm)
}

// ID returns the node's identifier.
func (n *Node) ID() NodeID { return n.id }

// Leaf reports whether the node is a data node.
func (n *Node) Leaf() bool { return n.leaf }

// Blocks returns the node's logical size in blocks; more than one marks a
// supernode, which occupies its full extent however short its encoding.
func (n *Node) Blocks() int { return n.flat.blocks }

// setBlocks sets the node's logical size, in its header.
func (n *Node) setBlocks(blocks int) {
	n.flat.blocks = blocks
	binary.LittleEndian.PutUint32(n.flat.b[4:], uint32(blocks))
}

// Count returns the number of entries: directory entries or data records.
func (n *Node) Count() int { return n.flat.count }

// Row returns a copy of a data node's record i: its coordinates and its
// measures in units.
func (n *Node) Row(i int) (coords []hierarchy.ID, units []int64) {
	coords, units = make([]hierarchy.ID, n.dims), make([]int64, n.nm)
	n.flat.row(i, coords, units)
	return coords, units
}

// appendRecord adds a record, its coordinates and its measures in units,
// to a data node: a value wider than its column's width, or a column's
// first negative value, re-strides the rows first.
func (n *Node) appendRecord(coords []hierarchy.ID, units []int64) {
	for d, c := range coords {
		if c := uint64(c.Code()); c > n.top[d] {
			n.top[d] = c
			n.setWidth(d, widthOf(false, c))
		}
	}
	for j, u := range units {
		k := n.dims + j
		if m, signed := magnitude(u), n.flat.widths()[k]&signedWidth != 0; m > n.top[k] || u < 0 && !signed {
			n.top[k] = max(n.top[k], m)
			n.setWidth(k, widthOf(signed || u < 0, n.top[k]))
		}
	}
	f := &n.flat
	o := f.mdsBase
	b := slices.Grow(f.b, f.stride)[:len(f.b)+f.stride]
	// A value is stored as a 4- or 8-byte word whose bytes past its width
	// spill: the next value, or the pad that frame clears, overwrites them.
	widths := b[flatHeaderSize:f.fixBase]
	for d, c := range coords {
		binary.LittleEndian.PutUint32(b[o:], c.Code())
		o += int(widths[d])
	}
	for j, u := range units {
		binary.LittleEndian.PutUint64(b[o:], uint64(u))
		o += bytesOf(widths[n.dims+j])
	}
	n.frame(b, f.count+1)
}

// removeRecord deletes record i of a data node, keeping the order of the
// rest. A column whose largest key, or a negative value, leaves with the
// row is refitted: its width narrowed if what is left allows.
func (n *Node) removeRecord(i int) {
	const stale = ^uint64(0) // no key: codes and magnitudes are smaller
	f := &n.flat
	for k, c := range n.top {
		o, _ := f.column(k)
		if v := loadUnits(f.b[o+i*f.stride:], f.widths()[k]); magnitude(v) == c || v < 0 {
			n.top[k] = stale
		}
	}
	o := f.fixBase + i*f.stride
	n.frame(append(f.b[:o], f.b[o+f.stride:]...), f.count-1)
	for k, c := range n.top {
		if c == stale {
			n.fit(k)
		}
	}
}

// fit gives column k of a data node the largest key and the width its rows
// need.
func (n *Node) fit(k int) {
	var neg bool
	n.top[k], neg = n.columnTop(k)
	n.setWidth(k, widthOf(neg, n.top[k]))
}

// magnitude is a column's key: u for u ≥ 0, −u − 1 below, so that a value
// takes as many bytes as its key's bit length, and a sign bit when its
// column holds a negative value, need.
func magnitude(u int64) uint64 { return uint64(u ^ u>>63) }

// columnTop returns the largest key of column k among a data node's rows,
// and whether any of them is negative.
func (n *Node) columnTop(k int) (top uint64, neg bool) {
	f := &n.flat
	o, _ := f.column(k)
	w, lo, hi := f.widths()[k], int64(0), int64(0)
	for end := f.mdsBase; o < end; o += f.stride {
		v := loadUnits(f.b[o:], w)
		lo, hi = min(lo, v), max(hi, v)
	}
	return max(magnitude(lo), magnitude(hi)), lo < 0
}

// setWidth re-strides a data node's rows, in place, so that column k's
// values take the width byte w. Wider rows move from the last, narrower
// ones from the first, so that no row is written over before it is read;
// each is copied out and rebuilt first, so that its own bytes may overlap
// where they go and no store spills past it.
func (n *Node) setWidth(k int, w byte) {
	f := &n.flat
	old := f.widths()[k]
	if old == w {
		return
	}
	at, _ := f.column(k)
	pre, stride, next := at-f.fixBase, f.stride, f.stride+bytesOf(w)-bytesOf(old)
	b := slices.Grow(f.b, f.count*max(0, next-stride))[:leafSize(len(n.top), f.count, next)]
	var in, out [128]byte
	row, fresh := in[:0], slices.Grow(out[:0], next+8)[:next+8]
	for r := range f.count {
		i := r
		if next > stride {
			i = f.count - 1 - r
		}
		o, p := f.fixBase+i*stride, f.fixBase+i*next
		row = append(row[:0], f.b[o:o+stride+leafPad]...) // the pad keeps the load in bounds
		copy(fresh, row[:pre])
		binary.LittleEndian.PutUint64(fresh[pre:], uint64(loadUnits(row[pre:], old)))
		copy(fresh[pre+bytesOf(w):next], row[pre+bytesOf(old):stride])
		copy(b[p:p+next], fresh[:next])
	}
	b[flatHeaderSize+k] = w
	n.frame(b, f.count)
}

// widthOf returns the width byte of a column whose largest key is top: the
// bytes that key takes, with a sign bit and flagged signedWidth when the
// column holds a negative value.
func widthOf(signed bool, top uint64) byte {
	if signed {
		return byte(bits.Len64(top)/8+1) | signedWidth
	}
	return byte(max(1, (bits.Len64(top)+7)/8))
}

// rowSize returns the stride of a data node's encoded rows, each value at
// its column's width, once a row of coordinates coords and measures units
// joins them.
func (n *Node) rowSize(coords []hierarchy.ID, units []int64) int {
	size := 0
	for k, w := range n.flat.widths() {
		c, signed := n.top[k], w&signedWidth != 0
		switch {
		case k < n.dims:
			c = max(c, uint64(coords[k].Code()))
		default:
			u := units[k-n.dims]
			c, signed = max(c, magnitude(u)), signed || u < 0
		}
		size += bytesOf(widthOf(signed, c))
	}
	return size
}

// take replaces the node's rows, or entries, by copies of the listed ones
// of src, in the order listed, in a block sized for them; a data node's
// largest codes are its new rows', and a width they need less of narrows.
func (n *Node) take(src *Node, group []int) {
	f := src.flat // src may be n
	if !n.leaf {
		n.layDir(len(f.b))
		for _, g := range group {
			n.copyEntry(&f, g)
		}
		return
	}
	n.lay(f.widths(), slices.Clone(src.top), len(group))
	b := n.flat.b[:n.flat.fixBase]
	for _, g := range group {
		o := f.fixBase + g*f.stride
		b = append(b, f.b[o:o+f.stride]...)
	}
	n.frame(b[:len(b)+leafPad], len(group))
	for k := range n.top {
		n.fit(k)
	}
}

// blocksFor is the one overflow rule: the fewest blocks that hold a node
// whose encoding is size bytes, each holding the one-block payload. A
// supernode holds its blocks' worth (§4.2: "directory node capacity
// multiplied by the number of blocks of the supernode").
func (ix *Index) blocksFor(size int) int {
	return max(1, (size+ix.payload-1)/ix.payload)
}

// nodeBlocks is blocksFor of a heap node.
func (ix *Index) nodeBlocks(n *Node) int { return ix.blocksFor(len(n.flat.b)) }

// aggregate loads the node's aggregate vector into v and returns it.
func (n *Node) aggregate(v []cube.Fixed) []cube.Fixed {
	for j := range v {
		v[j] = n.fold(j)
	}
	return v
}

// fold returns the aggregate of measure j over a data node's rows or a
// directory's entries. Folds of units are exact, so any order gives it.
func (n *Node) fold(j int) cube.Fixed {
	f := &n.flat
	var a cube.Fixed
	if !n.leaf {
		for i := 0; i < f.count; i++ {
			a.Merge(f.Agg(i, j))
		}
		return a
	}
	o, _ := f.column(n.dims + j)
	w := f.widths()[n.dims+j]
	for end := f.mdsBase; o < end; o += f.stride {
		a.Add(loadUnits(f.b[o:], w))
	}
	return a
}

// repairAggregate brings v, the aggregate vector of node n's subtree
// before a record of measures gone (in units) left it, to the vector
// after, and returns it: the count drops by one and the sum by the value, exactly; min and
// max are refolded only when the value was one of them. The node holds at
// least one row or entry.
func (n *Node) repairAggregate(v []cube.Fixed, gone []int64) []cube.Fixed {
	for j, u := range gone {
		a := &v[j]
		a.Count--
		a.Sum -= u
		if u == a.Min || u == a.Max {
			f := n.fold(j)
			a.Min, a.Max = f.Min, f.Max
		}
	}
	return v
}

// layDir gives a directory an empty block with room for size bytes.
func (n *Node) layDir(size int) {
	b := make([]byte, dirSize, max(dirSize, size))
	b[0] = flatMagic
	n.frame(b, 0)
}

// reslot opens slot i of a directory's offset table, aggregate area and
// child area, or closes it: the bytes behind each slot move by the widths of
// the slots opened or closed before them. An opened slot's MDS blob is
// empty, and its aggregates and child are the caller's to write; a closed
// slot's blob must be empty.
func (n *Node) reslot(i int, open bool) {
	f := &n.flat
	w := [3]int{4, flatAggStride * n.nm, 8}
	cut := [4]int{flatHeaderSize + 4*i, f.aggBase + w[1]*i, f.fixBase + w[2]*i, len(f.b)}
	slot := w[0] + w[1] + w[2]
	b := f.b
	if open {
		b = slices.Grow(b, slot)[:len(b)+slot]
		for k, by := 2, slot; k >= 0; by, k = by-w[k], k-1 {
			copy(b[cut[k]+by:], b[cut[k]:cut[k+1]])
		}
		// The new slot's blob ends where entry i's now starts.
		copy(b[cut[0]:cut[0]+4], b[cut[0]+4:])
		n.frame(b, f.count+1)
		return
	}
	for k, by := 0, 0; k < 3; k++ {
		by += w[k]
		copy(b[cut[k]+w[k]-by:], b[cut[k]+w[k]:cut[k+1]])
	}
	n.frame(b[:len(b)-slot], f.count-1)
}

// mdsSlot makes directory entry i's MDS blob size bytes long and returns it
// for the caller to write: the MDS area behind it moves, and the later
// offsets with it. Every change to an entry's MDS, and every entry added or
// removed, goes through it.
func (n *Node) mdsSlot(i, size int) []byte {
	f := &n.flat
	start, end := f.mdsBase+f.off(i), f.mdsBase+f.off(i+1)
	delta := size - (end - start)
	b := slices.Grow(f.b, max(0, delta))[:len(f.b)+delta]
	copy(b[start+size:], f.b[end:])
	for k := i + 1; k <= f.count; k++ {
		binary.LittleEndian.PutUint32(b[flatHeaderSize+4*k:], uint32(f.off(k)+delta))
	}
	n.frame(b, f.count)
	return b[start : start+size : start+size]
}

// setMDS re-encodes directory entry i's MDS as m.
func (n *Node) setMDS(i int, m mds.MDS) { m.AppendEncode(n.mdsSlot(i, m.EncodedSize())[:0]) }

// setAgg writes directory entry i's aggregates.
func (n *Node) setAgg(i int, v []cube.Fixed) {
	for j, a := range v {
		b := n.flat.b[n.flat.aggAt(i, j):][:flatAggStride]
		binary.LittleEndian.PutUint64(b, uint64(a.Sum))
		binary.LittleEndian.PutUint64(b[8:], uint64(a.Count))
		binary.LittleEndian.PutUint64(b[16:], uint64(a.Min))
		binary.LittleEndian.PutUint64(b[24:], uint64(a.Max))
	}
}

// setChild writes directory entry i's child.
func (n *Node) setChild(i int, child NodeID) {
	binary.LittleEndian.PutUint64(n.flat.b[n.flat.fixBase+8*i:], uint64(child))
}

// appendEntry adds an entry of MDS m, aggregates v and child to a
// directory.
func (n *Node) appendEntry(m mds.MDS, v []cube.Fixed, child NodeID) {
	i, size := n.flat.count, m.EncodedSize()
	n.frame(slices.Grow(n.flat.b, entrySize(size, n.nm)), i) // one growth for the slots and the blob
	n.reslot(i, true)
	n.setAgg(i, v)
	n.setChild(i, child)
	m.AppendEncode(n.mdsSlot(i, size)[:0])
}

// copyEntry appends entry i of directory f to n, byte for byte.
func (n *Node) copyEntry(f *FlatNode, i int) {
	k := n.flat.count
	n.reslot(k, true)
	copy(n.flat.b[n.flat.aggAt(k, 0):], f.b[f.aggAt(i, 0):f.aggAt(i+1, 0)])
	n.setChild(k, f.Child(i))
	blob := f.EntryMDS(i)
	copy(n.mdsSlot(k, len(blob)), blob)
}

// removeEntry deletes directory entry i, keeping the order of the rest.
func (n *Node) removeEntry(i int) {
	n.mdsSlot(i, 0)
	n.reslot(i, false)
}

// HeapView fills nv with the read-only view of a heap node: its own block.
func (ix *Index) HeapView(n *Node, nv *NodeView) { *nv = n.flat }

// Encode returns a copy of the node's flat encoding, for the host to
// persist or to freeze into a version: the writers go on changing the
// block in place, so no version may alias it. Call it under the hold that
// excludes mutations.
func (ix *Index) Encode(n *Node) []byte { return slices.Clone(n.flat.b) }
