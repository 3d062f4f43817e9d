package index

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
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
// the first chooseSubtree or delete probe after the entries change and
// marked stale by invalidatePostings at every site that changes an entry's
// MDS or the entry list — not by markDirty, which aggregate-only updates
// also call.
//
// A data node is its flat encoding and nothing else: flat frames the
// header, the code widths and the rows, at their exact widths, in a block
// with spare room for the rows to come. Every change to the rows writes
// the header, so the block is at all times what Encode copies out and what
// HeapView frames for the descent. A record's singleton MDS and one-record
// aggregates are functions of its row, synthesized where the write path
// needs them. Beside the block it keeps top, each dimension's largest
// code: the widths (codeWidth), and so the bytes the node needs, are
// functions of it, kept exact by every change to the rows.
type Node struct {
	id     NodeID
	leaf   bool
	blocks int // logical size in blocks; >1 marks a supernode

	entries []Entry
	img     atomic.Pointer[FlatNode]
	post    *postings

	dims, nm int // row widths of a data node
	flat     FlatNode
	top      []uint32
}

// NewNode returns an empty one-block node for a Store to hand out under a
// freshly minted ID; dims and measures are the schema's row widths.
func NewNode(id NodeID, leaf bool, dims, measures int) *Node {
	n := &Node{id: id, leaf: leaf, blocks: 1, dims: dims, nm: measures}
	if leaf {
		n.lay(make([]uint32, dims), 0)
	}
	return n
}

// lay gives a data node an empty block, at the widths of the largest codes
// top, with room for rows rows.
func (n *Node) lay(top []uint32, rows int) {
	n.top = top
	b := make([]byte, flatHeaderSize+n.dims, leafSize(n.dims, rows, n.rowSize(nil)))
	b[0], b[1] = flatMagic, nodeFlagLeaf
	for d, c := range top {
		b[flatHeaderSize+d] = byte(codeWidth(c))
	}
	n.frameRows(b, 0)
}

// frameRows makes b, holding count rows, a data node's encoding: the
// header takes the node's blocks, the count and the length, and flat
// frames b.
func (n *Node) frameRows(b []byte, count int) {
	binary.LittleEndian.PutUint32(b[4:], uint32(n.blocks))
	binary.LittleEndian.PutUint32(b[8:], uint32(count))
	binary.LittleEndian.PutUint32(b[12:], uint32(len(b)))
	binary.LittleEndian.PutUint32(b[16:], uint32(len(b)))
	n.flat.FrameTrusted(n.id, b, n.dims, n.nm)
}

// ID returns the node's identifier.
func (n *Node) ID() NodeID { return n.id }

// Leaf reports whether the node is a data node.
func (n *Node) Leaf() bool { return n.leaf }

// Blocks returns the node's logical size in blocks; more than one marks a
// supernode, which occupies its full extent however short its encoding.
func (n *Node) Blocks() int { return n.blocks }

// setBlocks sets the node's logical size, in a data node's header too.
func (n *Node) setBlocks(blocks int) {
	if n.blocks = blocks; n.leaf {
		n.frameRows(n.flat.b, n.flat.count)
	}
}

// Entries returns a directory node's entries (nil for a data node). They are
// the node's own: read them under the hold that excludes mutations, never
// write them.
func (n *Node) Entries() []Entry { return n.entries }

// Count returns the number of entries: directory entries or data records.
func (n *Node) Count() int {
	if n.leaf {
		return n.flat.count
	}
	return len(n.entries)
}

// Record returns a copy of a data node's record i.
func (n *Node) Record(i int) cube.Record {
	rec := cube.Record{Coords: make([]hierarchy.ID, n.dims), Measures: make([]float64, n.nm)}
	n.flat.row(i, rec)
	return rec
}

// appendRecord adds a record to a data node: a code wider than its
// dimension's width re-strides the rows first.
func (n *Node) appendRecord(rec cube.Record) {
	for d, c := range rec.Coords {
		if c := c.Code(); c > n.top[d] {
			n.top[d] = c
			n.setWidth(d, codeWidth(c))
		}
	}
	f := &n.flat
	o := len(f.b)
	b := slices.Grow(f.b, f.stride)[:o+f.stride]
	// A code is stored as a 4-byte word whose bytes past its width are
	// zero: the next code or the measures overwrite them.
	for d, w := range b[flatHeaderSize:f.fixBase] {
		binary.LittleEndian.PutUint32(b[o:], rec.Coords[d].Code())
		o += int(w)
	}
	for _, x := range rec.Measures {
		binary.LittleEndian.PutUint64(b[o:], math.Float64bits(x))
		o += 8
	}
	n.frameRows(b, f.count+1)
}

// removeRecord deletes record i of a data node, keeping the order of the
// rest. A dimension whose largest code leaves with the row has its column
// rescanned, and its width narrowed if the new largest code allows.
func (n *Node) removeRecord(i int) {
	f := &n.flat
	for d, c := range n.top {
		if f.Coord(i, d).Code() == c {
			n.top[d] = n.columnTop(d, i)
		}
	}
	o := f.fixBase + i*f.stride
	n.frameRows(append(f.b[:o], f.b[o+f.stride:]...), f.count-1)
	for d, c := range n.top {
		n.setWidth(d, codeWidth(c))
	}
}

// columnTop returns the largest coordinate of dimension d among a data
// node's rows other than row skip (-1: all of them): its code, as every
// coordinate is a leaf value.
func (n *Node) columnTop(d, skip int) uint32 {
	f := &n.flat
	o, cut := f.column(d)
	var top uint32
	for i := 0; i < f.count; i, o = i+1, o+f.stride {
		if i != skip {
			top = max(top, uint32(loadCode(f.b[o:], cut)))
		}
	}
	return top
}

// setWidth re-strides a data node's rows, in place, so that dimension d's
// codes take w bytes. Wider rows move from the last, narrower ones from the
// first, so that no row is written over before it is read; each is copied
// out first, so that its own bytes may overlap where they go.
func (n *Node) setWidth(d, w int) {
	f := &n.flat
	at, cut := f.column(d)
	old := int(f.widths()[d])
	if old == w {
		return
	}
	pre, stride, next := at-f.fixBase, f.stride, f.stride+w-old
	b := slices.Grow(f.b, f.count*max(0, next-stride))[:f.fixBase+f.count*next]
	var buf [128]byte
	row := buf[:0]
	for k := range f.count {
		i := k
		if next > stride {
			i = f.count - 1 - k
		}
		o, p := f.fixBase+i*stride, f.fixBase+i*next
		row = append(row[:0], f.b[o:o+stride]...)
		// The code's 4-byte store spills into the bytes behind it, which
		// the rest of the row then covers.
		copy(b[p:], row[:pre])
		binary.LittleEndian.PutUint32(b[p+pre:], uint32(loadCode(row[pre:], cut)))
		copy(b[p+pre+w:p+next], row[pre+old:])
	}
	b[flatHeaderSize+d] = byte(w)
	n.frameRows(b, f.count)
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

// encodedSize returns the length of the node's encoding.
func (n *Node) encodedSize() int {
	if n.leaf {
		return len(n.flat.b)
	}
	size := dirSize
	for i := range n.entries {
		size += entrySize(n.entries[i].MDS, n.nm)
	}
	return size
}

// take replaces the node's entries, or rows, by copies of the listed ones
// of src, in the order listed, in storage sized for them; a data node's
// largest codes are its new rows', and a width they need less of narrows.
func (n *Node) take(src *Node, group []int) {
	if !n.leaf {
		entries := make([]Entry, len(group))
		for i, g := range group {
			entries[i] = src.entries[g]
		}
		n.entries = entries
		return
	}
	f := src.flat // src may be n
	n.lay(slices.Clone(src.top), len(group))
	b := n.flat.b
	for _, g := range group {
		o := f.fixBase + g*f.stride
		b = append(b, f.b[o:o+f.stride]...)
	}
	n.frameRows(b, len(group))
	for d := range n.top {
		n.top[d] = n.columnTop(d, -1)
		n.setWidth(d, codeWidth(n.top[d]))
	}
}

// blocksFor is the one overflow rule: the fewest blocks that hold a node
// whose encoding is size bytes, each holding the one-block payload. A
// supernode holds its blocks' worth (§4.2: "directory node capacity
// multiplied by the number of blocks of the supernode").
func (ix *Index) blocksFor(size int) int {
	return max(1, (size+ix.payload-1)/ix.payload)
}

// nodeBlocks is blocksFor of a heap node. A directory's size is summed over
// its entries' MDSs: the write path asks it only where an entry was added
// or grew, or a supernode may shrink.
func (ix *Index) nodeBlocks(n *Node) int {
	return ix.blocksFor(n.encodedSize())
}

// aggregate computes the node's aggregate vector: its rows or entries
// folded in, in order.
func (n *Node) aggregate(measures int) cube.AggVector {
	v := cube.NewAggVector(measures)
	if n.leaf {
		f := &n.flat
		for i := 0; i < f.count; i++ {
			for j := range v {
				v[j].Add(f.Measure(i, j))
			}
		}
		return v
	}
	for i := range n.entries {
		v.Merge(n.entries[i].Agg)
	}
	return v
}

// repairAggregate brings v, a data node's aggregate vector before the row
// whose measures were gone left it, to the node's aggregate after — bit for
// bit what aggregate computes, for less. The counts drop by one; the
// sums are refolded alone, in row order from the first row's value, as Add
// folds them (from 0 a sum of −0.0 rows would read +0.0); min and max are
// refolded only when the row held one of them or a NaN, or the first row,
// where the fold starts, is a NaN — otherwise the gone row never decided
// them. Each fold runs in locals and is stored once, so that no row waits
// on the store of the row before. The node holds at least one row.
func (n *Node) repairAggregate(v cube.AggVector, gone []float64) {
	b, stride := n.flat.b, n.flat.stride
	for j := range v {
		start := n.flat.fixBase + n.flat.codes + 8*j
		a, first := &v[j], measureAt(b, start)
		sum := first
		for o := start + stride; o < len(b); o += stride {
			sum += measureAt(b, o)
		}
		a.Count--
		a.Sum = sum
		if x := gone[j]; x != a.Min && x != a.Max && x == x && first == first {
			continue
		}
		lo, hi := first, first
		for o := start + stride; o < len(b); o += stride {
			// Add's comparisons, not min and max, which a NaN or a signed
			// zero would decide otherwise.
			if x := measureAt(b, o); x < lo {
				lo = x
			} else if x > hi {
				hi = x
			}
		}
		a.Min, a.Max = lo, hi
	}
}

// refoldEntries loads into v what aggregate computes for a directory whose
// entries all count at least one record, as a valid tree's do: Merge's fold
// over the entries, in order, in locals, stored once per measure. Min and
// max are refolded always. A directory entry's aggregate is kept on insert
// by merging the record into it, in arrival order, which is not the fold
// over its child's entries when signed zeros or NaNs are among the values,
// so only a refold reproduces the aggregate aggregate gives. The node holds
// at least one entry.
func (n *Node) refoldEntries(v cube.AggVector) {
	for j := range v {
		first := &n.entries[0].Agg[j]
		a := *first
		for i := 1; i < len(n.entries); i++ {
			b := &n.entries[i].Agg[j]
			a.Sum += b.Sum
			a.Count += b.Count
			if b.Min < a.Min {
				a.Min = b.Min
			}
			if b.Max > a.Max {
				a.Max = b.Max
			}
		}
		v[j] = a
	}
}

// HeapView fills nv with the read-only view of a heap node: a data node's
// own encoding, a directory's read image.
func (ix *Index) HeapView(n *Node, nv *NodeView) {
	if n.leaf {
		*nv = n.flat
		return
	}
	*nv = *ix.image(n)
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
	img.FrameTrusted(n.id, n.appendEncodeDir(nil, measures), dims, measures)
	ix.c.readImageBuilds.Inc()
	n.img.Store(img)
	return img
}

// Encode returns the node's flat encoding, for the host to persist or to
// freeze into a version. A data node's is a copy of its block, which the
// writers go on changing in place. A directory's read image IS that
// encoding, so a still-valid one is shared (payloads are never written to)
// and a fresh one stays behind for the readers. Call it under the hold that
// excludes mutations.
func (ix *Index) Encode(n *Node) []byte {
	if n.leaf {
		return slices.Clone(n.flat.b)
	}
	return ix.image(n).b
}
