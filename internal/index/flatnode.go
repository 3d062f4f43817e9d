package index

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"github.com/dcindex/dctree/internal/cube"
	"github.com/dcindex/dctree/internal/hierarchy"
)

// Node encoding (one extent per node): a fixed-stride flat layout designed
// to be QUERIED in place, without decoding, so a mapped extent serves MDS
// pruning, aggregate merges and record tests straight from the page cache.
// Both kinds of node open with the same header:
//
//	header (20 bytes):
//	  [0]      magic 0xD3
//	  [1]      flags (bit 0: leaf)
//	  [2:4]    reserved (0)
//	  [4:8]    u32 blocks
//	  [8:12]   u32 entry count
//	  [12:16]  u32 mdsBase — start of the MDS blob area
//	  [16:20]  u32 total payload length
//
// A data node is its code widths and its rows (mdsBase = total length):
//
//	widths:  dims × u8, the bytes (1–4) each dimension's codes take
//	rows:    count × (Σ widths of code bytes + measures × f64)
//
// Row i's coordinate in dimension d is its level-0 code, little-endian in
// widths[d] bytes at offset Σ widths[:d] of the row; the measures follow
// the codes, so a 4-byte load at any code's offset stays inside its row and
// a mask cuts it to the code. A width is exact: the bytes the dimension's
// largest code needs, so a node decoded from its encoding needs the bytes
// its encoder did.
//
// A directory carries, per entry, what the paper stores in a directory
// entry (§3.2) — the MDS, the materialized aggregates, the child:
//
//	offset table:  (count+1) × u32, MDS blob offsets relative to mdsBase;
//	               off[0] = 0, monotone, off[count] = total − mdsBase
//	agg area:      count × measures × 32 bytes
//	               (f64 sum, i64 count, f64 min, f64 max — all LE)
//	child area:    count × u64 child node id
//	MDS area:      the entries' MDS wire encodings (mds codec),
//	               concatenated; entry i's blob is [off[i], off[i+1])
//
// Every per-entry access is index arithmetic: row i at a fixed stride,
// agg i,j at a fixed stride, child i one u64 load, MDS i one offset-table
// pair.

const (
	nodeFlagLeaf = 1

	flatMagic      = 0xD3
	flatHeaderSize = 20
	flatAggStride  = 32
)

// dirLayoutSizes returns the section bases of a flat directory of count
// entries: offset-table end (= agg area start), child area start, MDS area
// start.
func dirLayoutSizes(count, measures int) (aggBase, fixBase, mdsBase int) {
	aggBase = flatHeaderSize + 4*(count+1)
	fixBase = aggBase + flatAggStride*measures*count
	return aggBase, fixBase, fixBase + 8*count
}

// dirSize is the length of an empty directory's encoding: the header and
// the offset table's closing slot. Each entry adds its entrySize.
const dirSize = flatHeaderSize + 4

// entrySize returns the bytes an entry whose MDS blob is blob bytes long
// adds to a directory's encoding: its offset-table slot, aggregates, child
// and MDS blob.
func entrySize(blob, measures int) int { return 4 + flatAggStride*measures + 8 + blob }

// leafSize returns the length of a data node's encoding: the header, the
// widths and count rows of stride bytes.
func leafSize(dims, count, stride int) int { return flatHeaderSize + dims + count*stride }

// widthMask returns the mask that cuts a 4-byte load to a code of w bytes.
func widthMask(w byte) uint32 { return uint32(1)<<(8*w) - 1 }

// FlatNode is a read-only view of an encoded node payload — a mapped
// extent, a pooled read buffer, a version's overlay payload or a heap
// node's own block. It owns nothing: every accessor is pointer math over
// b, and b must stay valid for the FlatNode's lifetime (the descent bounds
// it by the host's hold or a version pin). The zero value is invalid;
// MakeFlatNode validates the frame once so the fixed-stride accessors can
// skip per-call checks.
//
// A data node's row stride and the offset of its measures in a row are
// summed from its widths when it is framed, once per visit.
type FlatNode struct {
	id       NodeID
	b        []byte
	leaf     bool
	blocks   int
	count    int
	dims     int
	measures int
	aggBase  int
	fixBase  int // a directory's child area; a data node's rows
	mdsBase  int
	stride   int // a data node's row length
	codes    int // a data node's code bytes per row
}

// MakeFlatNode validates a payload's frame — header and section bases — in
// constant time: after it, every aggregate, child and record access is in
// bounds, and a data node, which is its rows, is checked in full. A
// directory's offset table and the MDS blobs behind it are checked where
// the descent first uses them (EntryMDS, the directory matcher, the nil-child
// test), so a clean extent visited again and again pays for no table scan;
// CheckTable is the eager O(count) form the decoder runs. Frame is the same
// check, framing the payload in the descent's own frame.
func MakeFlatNode(id NodeID, b []byte, dims, measures int) (FlatNode, error) {
	var f FlatNode
	err := f.Frame(id, b, dims, measures)
	return f, err
}

// Frame fills f with payload b framed where it lies, after MakeFlatNode's
// constant-time check; f is left unusable if the check fails.
func (f *FlatNode) Frame(id NodeID, b []byte, dims, measures int) error {
	if len(b) < flatHeaderSize || b[0] != flatMagic || b[1]&^nodeFlagLeaf != 0 || b[2] != 0 || b[3] != 0 {
		return fmt.Errorf("%w: node %d: not a flat node payload", ErrCorrupt, id)
	}
	f.FrameTrusted(id, b, dims, measures)
	total := int(binary.LittleEndian.Uint32(b[16:]))
	if f.blocks < 1 || f.count < 0 || total != len(b) {
		return fmt.Errorf("%w: node %d: flat header blocks=%d count=%d total=%d/%d",
			ErrCorrupt, id, f.blocks, f.count, total, len(b))
	}
	// A data node's widths must each be a code width: the rows' stride,
	// and so every offset into them, is their sum.
	if f.leaf {
		if len(b) < f.fixBase {
			return fmt.Errorf("%w: node %d: flat data node of %d bytes has no widths", ErrCorrupt, id, len(b))
		}
		for d, w := range f.widths() {
			if w < 1 || w > 4 {
				return fmt.Errorf("%w: node %d: dimension %d code width %d", ErrCorrupt, id, d, w)
			}
		}
	}
	// The bases are recomputed from the shape: a payload whose stored
	// mdsBase disagrees was encoded for a different schema (or corrupted)
	// and every fixed-offset access would read the wrong section. A data
	// node's rows end its payload, count × stride bytes behind its widths.
	if mdsBase := int(binary.LittleEndian.Uint32(b[12:])); mdsBase != f.mdsBase || mdsBase > len(b) || (f.leaf && mdsBase != len(b)) {
		return fmt.Errorf("%w: node %d: flat mds base %d, want %d (len %d)",
			ErrCorrupt, id, mdsBase, f.mdsBase, len(b))
	}
	return nil
}

// FrameTrusted fills f with payload b framed where it lies, unchecked: a
// flat encoding this process produced (Index.Encode, a heap node's block),
// or one Frame is about to check.
func (f *FlatNode) FrameTrusted(id NodeID, b []byte, dims, measures int) {
	f.id, f.b = id, b
	f.leaf = b[1]&nodeFlagLeaf != 0
	f.blocks = int(binary.LittleEndian.Uint32(b[4:]))
	f.count = int(binary.LittleEndian.Uint32(b[8:]))
	f.dims, f.measures = dims, measures
	if !f.leaf {
		f.aggBase, f.fixBase, f.mdsBase = dirLayoutSizes(f.count, measures)
		return
	}
	f.fixBase, f.codes = flatHeaderSize+dims, 0
	if len(b) >= f.fixBase {
		for _, w := range f.widths() {
			f.codes += int(w)
		}
	}
	f.stride = f.codes + 8*measures
	f.mdsBase = f.fixBase + f.count*f.stride
}

// widths returns a data node's code widths, in place.
func (f *FlatNode) widths() []byte { return f.b[flatHeaderSize:f.fixBase] }

// Leaf reports whether the payload is a data node's, Count its number of
// entries and Blocks its logical size in blocks.
func (f *FlatNode) Leaf() bool  { return f.leaf }
func (f *FlatNode) Count() int  { return f.count }
func (f *FlatNode) Blocks() int { return f.blocks }

// shape returns the node's kind, entries or records, blocks and the length
// of its encoding.
func (f *FlatNode) shape() (leaf bool, count, blocks, size int) {
	return f.leaf, f.count, f.blocks, len(f.b)
}

// CheckTable validates what MakeFlatNode leaves to first use in a
// directory: the offset table (first offset zero, monotone, ending at the
// payload's end), each entry's blob, one MDS of the schema's dimensions as
// mds.Decode frames it, and non-nil children. A data node has none of them.
// A directory that passes is read by the write path where it lies, without
// further checks.
func (f *FlatNode) CheckTable() error {
	if f.leaf {
		return nil
	}
	prev := 0
	for i := 0; i <= f.count; i++ {
		off := f.off(i)
		if off < prev || off > len(f.b)-f.mdsBase || (i == 0 && off != 0) {
			return fmt.Errorf("%w: node %d: flat offset table entry %d", ErrCorrupt, f.id, i)
		}
		prev = off
	}
	if prev != len(f.b)-f.mdsBase {
		return fmt.Errorf("%w: node %d: flat mds area length", ErrCorrupt, f.id)
	}
	for i := 0; i < f.count; i++ {
		if !wireMDS(f.EntryMDS(i), f.dims) {
			return fmt.Errorf("%w: node %d entry %d: malformed mds", ErrCorrupt, f.id, i)
		}
		if f.Child(i) == NilNode {
			return fmt.Errorf("%w: node %d entry %d: nil child", ErrCorrupt, f.id, i)
		}
	}
	return nil
}

// off returns a directory's offset table entry k: where entry k's MDS blob
// starts in the MDS area, or, for k = count, the area's length.
func (f *FlatNode) off(k int) int {
	return int(binary.LittleEndian.Uint32(f.b[flatHeaderSize+4*k:]))
}

// EntryMDS returns directory entry i's MDS wire encoding, in place; nil
// when the offset table does not bound it inside the payload (which the
// directory matcher then reports as malformed).
func (f *FlatNode) EntryMDS(i int) []byte {
	o, e := f.off(i), f.off(i+1)
	if o > e || e > len(f.b)-f.mdsBase {
		return nil
	}
	return f.b[f.mdsBase+o : f.mdsBase+e]
}

// wireMDS reports whether b is exactly one MDS wire encoding of dims
// dimensions: each a level byte, a uvarint count and that many IDs, and
// ALL, and only ALL, without values.
func wireMDS(b []byte, dims int) bool {
	if len(b) == 0 || int(b[0]) != dims {
		return false
	}
	d, o := 0, 1
	for ; d < dims && o < len(b); d++ {
		count, k := binary.Uvarint(b[o+1:])
		if k <= 0 || (b[o] == hierarchy.LevelALL) != (count == 0) || count > uint64(len(b)-o-1-k)/4 {
			return false
		}
		o += 1 + k + 4*int(count)
	}
	return d == dims && o == len(b)
}

// nextSet reads the dimension set at offset o of an MDS wire encoding that
// CheckTable passed: its level, its value count (0 for ALL) and the offset
// of its values, the next set following 4 × count bytes on.
func nextSet(b []byte, o int) (level, count, at int) {
	c, k := uint64(b[o+1]), 1 // a uvarint below 128 is one byte
	if c >= 0x80 {
		c, k = binary.Uvarint(b[o+1:])
	}
	return int(b[o]), int(c), o + 1 + k
}

// aggAt returns the offset of directory entry i's aggregate of measure j.
func (f *FlatNode) aggAt(i, j int) int { return f.aggBase + flatAggStride*(f.measures*i+j) }

// Agg returns directory entry i's aggregate of measure j.
func (f *FlatNode) Agg(i, j int) cube.Agg {
	b := f.b[f.aggAt(i, j):][:flatAggStride] // one bounds check for the four loads
	return cube.Agg{
		Sum:   math.Float64frombits(binary.LittleEndian.Uint64(b)),
		Count: int64(binary.LittleEndian.Uint64(b[8:])),
		Min:   math.Float64frombits(binary.LittleEndian.Uint64(b[16:])),
		Max:   math.Float64frombits(binary.LittleEndian.Uint64(b[24:])),
	}
}

// aggs loads directory entry i's aggregates into v and returns it.
func (f *FlatNode) aggs(i int, v cube.AggVector) cube.AggVector {
	for j := range v {
		v[j] = f.Agg(i, j)
	}
	return v
}

// Child returns directory entry i's child node id.
func (f *FlatNode) Child(i int) NodeID {
	return NodeID(binary.LittleEndian.Uint64(f.b[f.fixBase+8*i:]))
}

// column returns the offset of dimension d's code in a data node's row 0
// and the mask that cuts a 4-byte load there to the code.
func (f *FlatNode) column(d int) (off int, cut uint32) {
	widths := f.widths()
	off = f.fixBase
	for _, w := range widths[:d] {
		off += int(w)
	}
	return off, widthMask(widths[d])
}

// Coord returns record i's coordinate in dimension d.
func (f *FlatNode) Coord(i, d int) hierarchy.ID {
	o, cut := f.column(d)
	return loadCode(f.b[o+f.stride*i:], cut)
}

// loadCode reads the code at the front of b, which holds at least four
// bytes, through its width's mask cut.
func loadCode(b []byte, cut uint32) hierarchy.ID {
	return hierarchy.ID(binary.LittleEndian.Uint32(b) & cut)
}

// Measure returns record i's measure j.
func (f *FlatNode) Measure(i, j int) float64 {
	return measureAt(f.b, f.fixBase+f.stride*i+f.codes+8*j)
}

// measureAt reads the measure at offset o of b.
func measureAt(b []byte, o int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b[o:]))
}

// row reads data record i into rec, whose slices the caller sized: the
// coordinates to the schema, the measures to the schema or none.
func (f *FlatNode) row(i int, rec cube.Record) {
	o := f.fixBase + f.stride*i
	for d, w := range f.widths() {
		rec.Coords[d] = loadCode(f.b[o:], widthMask(w))
		o += int(w)
	}
	for j := range rec.Measures {
		rec.Measures[j] = measureAt(f.b, o+8*j)
	}
}

// DecodeNode materializes a payload as a heap node — the write path, and a
// host whose store serves no views, need mutable *Nodes: a copy of the
// payload once its frame and, for a directory, its table pass. A data node's
// coordinates must be leaf-level values, which the row tests assume, and its
// widths exactly those its codes need.
func DecodeNode(id NodeID, buf []byte, dims, measures int) (*Node, error) {
	f, err := MakeFlatNode(id, buf, dims, measures)
	if err == nil {
		err = f.CheckTable()
	}
	if err != nil {
		return nil, err
	}
	n := &Node{id: id, leaf: f.leaf, dims: dims, nm: measures}
	n.flat.FrameTrusted(id, slices.Clone(f.b), dims, measures)
	if !n.leaf {
		return n, nil
	}
	n.top = make([]uint32, dims)
	for d, w := range f.widths() {
		// Coordinates are leaf values, and widths exact: the node needs
		// the bytes its encoder did.
		if n.top[d] = n.columnTop(d, -1); n.top[d] > hierarchy.MaxCode || codeWidth(n.top[d]) != int(w) {
			return nil, fmt.Errorf("%w: node %d: dimension %d of code width %d holds coordinates up to %v, not leaf values of that width",
				ErrCorrupt, id, d, w, hierarchy.ID(n.top[d]))
		}
	}
	return n, nil
}
