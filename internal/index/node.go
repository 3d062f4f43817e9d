package index

import (
	"encoding/binary"
	"math"
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
// top, each dimension's largest code: the widths (codeWidth), and so the
// bytes the node needs, are functions of it, kept exact by every change.
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
	top      []uint32 // a data node's largest codes
	post     *postings
}

// NewNode returns an empty one-block node for a Store to hand out under a
// freshly minted ID; dims and measures are the schema's row widths.
func NewNode(id NodeID, leaf bool, dims, measures int) *Node {
	n := &Node{id: id, leaf: leaf, dims: dims, nm: measures}
	n.flat.blocks = 1
	if leaf {
		n.lay(make([]uint32, dims), 0)
	} else {
		n.layDir(dirSize)
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
	n.frame(b, 0)
}

// frame makes b, holding count rows or entries, the node's encoding: the
// header takes the node's blocks, the count, the MDS base and the length,
// and flat frames b.
func (n *Node) frame(b []byte, count int) {
	mdsBase := len(b)
	if !n.leaf {
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
	n.frame(b, f.count+1)
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
	n.frame(append(f.b[:o], f.b[o+f.stride:]...), f.count-1)
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
	n.frame(b, f.count)
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
	n.lay(slices.Clone(src.top), len(group))
	b := n.flat.b
	for _, g := range group {
		o := f.fixBase + g*f.stride
		b = append(b, f.b[o:o+f.stride]...)
	}
	n.frame(b, len(group))
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

// nodeBlocks is blocksFor of a heap node.
func (ix *Index) nodeBlocks(n *Node) int { return ix.blocksFor(len(n.flat.b)) }

// aggregate loads the node's aggregate vector into v and returns it: its
// rows folded in, in order, or its entries refolded.
func (n *Node) aggregate(v cube.AggVector) cube.AggVector {
	if !n.leaf {
		n.refoldEntries(v)
		return v
	}
	clear(v)
	f := &n.flat
	for i := 0; i < f.count; i++ {
		for j := range v {
			v[j].Add(f.Measure(i, j))
		}
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
// so only a refold reproduces the aggregate a fresh fold gives. The node
// holds at least one entry.
func (n *Node) refoldEntries(v cube.AggVector) {
	f := &n.flat
	stride := flatAggStride * f.measures
	for j := range v {
		a := f.Agg(0, j)
		for o := f.aggAt(1, j); o < f.fixBase; o += stride {
			b := f.b[o : o+flatAggStride]
			a.Sum += math.Float64frombits(binary.LittleEndian.Uint64(b))
			a.Count += int64(binary.LittleEndian.Uint64(b[8:]))
			if x := math.Float64frombits(binary.LittleEndian.Uint64(b[16:])); x < a.Min {
				a.Min = x
			}
			if x := math.Float64frombits(binary.LittleEndian.Uint64(b[24:])); x > a.Max {
				a.Max = x
			}
		}
		v[j] = a
	}
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
func (n *Node) setAgg(i int, v cube.AggVector) {
	for j, a := range v {
		b := n.flat.b[n.flat.aggAt(i, j):]
		binary.LittleEndian.PutUint64(b, math.Float64bits(a.Sum))
		binary.LittleEndian.PutUint64(b[8:], uint64(a.Count))
		binary.LittleEndian.PutUint64(b[16:], math.Float64bits(a.Min))
		binary.LittleEndian.PutUint64(b[24:], math.Float64bits(a.Max))
	}
}

// setChild writes directory entry i's child.
func (n *Node) setChild(i int, child NodeID) {
	binary.LittleEndian.PutUint64(n.flat.b[n.flat.fixBase+8*i:], uint64(child))
}

// appendEntry adds an entry of MDS m, aggregates v and child to a
// directory.
func (n *Node) appendEntry(m mds.MDS, v cube.AggVector, child NodeID) {
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
