package index

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/dcindex/dctree/internal/cube"
	"github.com/dcindex/dctree/internal/hierarchy"
	"github.com/dcindex/dctree/internal/mds"
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

// leafSize returns the length of a data node's encoding: the header, the
// widths and count rows of stride bytes.
func leafSize(dims, count, stride int) int { return flatHeaderSize + dims + count*stride }

// widthMask returns the mask that cuts a 4-byte load to a code of w bytes.
func widthMask(w byte) uint32 { return uint32(1)<<(8*w) - 1 }

// appendEncodeFlat serializes the node. The fixed-size prefix (header and,
// for a directory, offset table, agg and child areas) is reserved up front
// and filled by indexed writes; a directory's MDS blobs are appended behind
// it, each one recording its start in the offset table as it goes — no
// second sizing pass over the MDS encodings.
func (n *Node) appendEncodeFlat(buf []byte, dims, measures int) []byte {
	count := n.Count()
	var aggBase, fixBase, mdsBase int
	if n.leaf {
		mdsBase = n.encodedSize()
	} else {
		aggBase, fixBase, mdsBase = dirLayoutSizes(count, measures)
	}
	start := len(buf)
	buf = append(buf, make([]byte, mdsBase)...)
	hdr := buf[start : start+mdsBase]
	hdr[0] = flatMagic
	binary.LittleEndian.PutUint32(hdr[4:], uint32(n.blocks))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(count))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(mdsBase))
	if n.leaf {
		hdr[1] |= nodeFlagLeaf
		widths := hdr[flatHeaderSize : flatHeaderSize+dims]
		for d, c := range n.top {
			widths[d] = byte(codeWidth(c))
		}
		f := flatHeaderSize + dims
		for i := 0; i < count; i++ {
			// A code is stored as a 4-byte word whose bytes past its width
			// are zero: the next code or the measures overwrite them.
			for d, c := range n.Row(i) {
				binary.LittleEndian.PutUint32(hdr[f:], c.Code())
				f += int(widths[d])
			}
			for _, x := range n.RowMeasures(i) {
				binary.LittleEndian.PutUint64(hdr[f:], math.Float64bits(x))
				f += 8
			}
		}
	} else {
		for i := range n.entries {
			e := &n.entries[i]
			for j, g := range e.Agg {
				a := aggBase + flatAggStride*(measures*i+j)
				binary.LittleEndian.PutUint64(hdr[a:], math.Float64bits(g.Sum))
				binary.LittleEndian.PutUint64(hdr[a+8:], uint64(g.Count))
				binary.LittleEndian.PutUint64(hdr[a+16:], math.Float64bits(g.Min))
				binary.LittleEndian.PutUint64(hdr[a+24:], math.Float64bits(g.Max))
			}
			binary.LittleEndian.PutUint64(hdr[fixBase+8*i:], uint64(e.Child))
		}
		// MDS area + offset table. Appends may reallocate buf, so the table
		// is written through buf (re-indexed each round), never through hdr.
		for i := range n.entries {
			binary.LittleEndian.PutUint32(buf[start+flatHeaderSize+4*i:], uint32(len(buf)-start-mdsBase))
			buf = n.entries[i].MDS.AppendEncode(buf)
		}
		binary.LittleEndian.PutUint32(buf[start+flatHeaderSize+4*count:], uint32(len(buf)-start-mdsBase))
	}
	binary.LittleEndian.PutUint32(buf[start+16:], uint32(len(buf)-start))
	return buf
}

// FlatNode is a read-only view of an encoded node payload — a mapped
// extent, a pooled read buffer, a version's overlay payload or a heap
// directory's read image. It owns nothing: every accessor is pointer math
// over b, and b must stay valid for the FlatNode's lifetime (the descent
// bounds it by the host's hold or a version pin). The zero value is
// invalid; MakeFlatNode validates the frame once so the fixed-stride
// accessors can skip per-call checks.
//
// A data node's row stride and the offset of its measures in a row are
// summed from its widths when it is framed, once per visit.
type FlatNode struct {
	id       NodeID
	b        []byte
	leaf     bool
	blocks   int
	count    int
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
// the descent first uses them (EntryMDS, the view iterator, the nil-child
// test), so a clean extent visited again and again pays for no table scan;
// CheckTable is the eager O(count) form the decoder runs. NodeView.Frame is
// the same check, framing the payload in the descent's own frame.
func MakeFlatNode(id NodeID, b []byte, dims, measures int) (FlatNode, error) {
	var f FlatNode
	err := f.frame(id, b, dims, measures)
	return f, err
}

// frame is MakeFlatNode in place: f frames b if the check passes, and is
// left unusable if it does not.
func (f *FlatNode) frame(id NodeID, b []byte, dims, measures int) error {
	if len(b) < flatHeaderSize || b[0] != flatMagic || b[1]&^nodeFlagLeaf != 0 || b[2] != 0 || b[3] != 0 {
		return fmt.Errorf("%w: node %d: not a flat node payload", ErrCorrupt, id)
	}
	f.trust(id, b, dims, measures)
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

// trust frames a payload without checking it: one Encode produced in this
// process (a read image, a version's overlay), or one frame is about to
// check.
func (f *FlatNode) trust(id NodeID, b []byte, dims, measures int) {
	f.id, f.b = id, b
	f.leaf = b[1]&nodeFlagLeaf != 0
	f.blocks = int(binary.LittleEndian.Uint32(b[4:]))
	f.count = int(binary.LittleEndian.Uint32(b[8:]))
	f.measures = measures
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

// CheckTable validates what MakeFlatNode leaves to first use in a
// directory: the offset table (first offset zero, monotone, ending at the
// payload's end) and non-nil children. A data node has neither.
func (f *FlatNode) CheckTable() error {
	if f.leaf {
		return nil
	}
	prev := uint32(0)
	for i := 0; i <= f.count; i++ {
		off := binary.LittleEndian.Uint32(f.b[flatHeaderSize+4*i:])
		if off < prev || int(off) > len(f.b)-f.mdsBase || (i == 0 && off != 0) {
			return fmt.Errorf("%w: node %d: flat offset table entry %d", ErrCorrupt, f.id, i)
		}
		prev = off
	}
	if int(prev) != len(f.b)-f.mdsBase {
		return fmt.Errorf("%w: node %d: flat mds area length", ErrCorrupt, f.id)
	}
	for i := 0; i < f.count; i++ {
		if f.Child(i) == NilNode {
			return fmt.Errorf("%w: node %d entry %d: nil child", ErrCorrupt, f.id, i)
		}
	}
	return nil
}

// EntryMDS returns directory entry i's MDS wire encoding, in place; nil
// when the offset table does not bound it inside the payload (which the
// view iterator then reports as malformed).
func (f *FlatNode) EntryMDS(i int) []byte {
	o := int(binary.LittleEndian.Uint32(f.b[flatHeaderSize+4*i:]))
	e := int(binary.LittleEndian.Uint32(f.b[flatHeaderSize+4*i+4:]))
	if o > e || e > len(f.b)-f.mdsBase {
		return nil
	}
	return f.b[f.mdsBase+o : f.mdsBase+e]
}

// Agg returns directory entry i's aggregate of measure j.
func (f *FlatNode) Agg(i, j int) cube.Agg {
	a := f.aggBase + flatAggStride*(f.measures*i+j)
	return cube.Agg{
		Sum:   math.Float64frombits(binary.LittleEndian.Uint64(f.b[a:])),
		Count: int64(binary.LittleEndian.Uint64(f.b[a+8:])),
		Min:   math.Float64frombits(binary.LittleEndian.Uint64(f.b[a+16:])),
		Max:   math.Float64frombits(binary.LittleEndian.Uint64(f.b[a+24:])),
	}
}

// Child returns directory entry i's child node id.
func (f *FlatNode) Child(i int) NodeID {
	return NodeID(binary.LittleEndian.Uint64(f.b[f.fixBase+8*i:]))
}

// Coord returns record i's coordinate in dimension d.
func (f *FlatNode) Coord(i, d int) hierarchy.ID {
	widths, o := f.widths(), f.fixBase+f.stride*i
	for _, w := range widths[:d] {
		o += int(w)
	}
	return loadCode(f.b[o:], widths[d])
}

// loadCode reads a code of w bytes at the front of b, which holds at least
// four.
func loadCode(b []byte, w byte) hierarchy.ID {
	return hierarchy.ID(binary.LittleEndian.Uint32(b) & widthMask(w))
}

// Measure returns record i's measure j.
func (f *FlatNode) Measure(i, j int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(f.b[f.fixBase+f.stride*i+f.codes+8*j:]))
}

// entryMDS decodes directory entry i's MDS from its wire encoding, which
// must hold exactly one MDS.
func (f *FlatNode) entryMDS(i int) (mds.MDS, error) {
	b := f.EntryMDS(i)
	m, k, err := mds.Decode(b)
	if err != nil || k != len(b) {
		return nil, fmt.Errorf("%w: node %d entry %d mds: %v", ErrCorrupt, f.id, i, err)
	}
	return m, nil
}

// DecodeNode materializes a payload as a heap node — the write path, and a
// host whose store serves no views, need mutable *Nodes.
//
// A data node decodes into its two row arrays; its coordinates must be
// leaf-level values, which the row tests assume, and its widths exactly
// those its codes need. A directory's
// per-entry state is carved out of node-scoped arenas — one backing array
// each for aggregate vectors and the MDS dimension sets and ID values — so
// a node of k entries decodes with O(1) slice allocations instead of O(k).
// Every carve is a capacity-capped subslice: when an arena grows and
// reallocates, earlier entries keep aliasing the old backing array, which
// stays correct because decoded values are only ever mutated in place
// within an entry's own disjoint region, never appended through.
func DecodeNode(id NodeID, buf []byte, dims, measures int) (*Node, error) {
	f, err := MakeFlatNode(id, buf, dims, measures)
	if err == nil {
		err = f.CheckTable()
	}
	if err != nil {
		return nil, err
	}
	n := &Node{id: id, leaf: f.leaf, blocks: f.blocks, dims: dims, nm: measures}
	if f.leaf {
		n.coords = make([]hierarchy.ID, 0, f.count*dims)
		n.measures = make([]float64, 0, f.count*measures)
		n.top = make([]uint32, dims)
		widths := f.widths()
		for i, o := 0, f.fixBase; i < f.count; i++ {
			for d, w := range widths {
				c := loadCode(f.b[o:], w)
				if c.Level() != 0 {
					return nil, fmt.Errorf("%w: node %d record %d: coordinate %v is not a leaf value", ErrCorrupt, id, i, c)
				}
				n.coords = append(n.coords, c)
				n.top[d] = max(n.top[d], c.Code())
				o += int(w)
			}
			for j := 0; j < measures; j++ {
				n.measures = append(n.measures, math.Float64frombits(binary.LittleEndian.Uint64(f.b[o:])))
				o += 8
			}
		}
		// Widths are exact, so the node needs the bytes its encoder did.
		for d, w := range widths {
			if codeWidth(n.top[d]) != int(w) {
				return nil, fmt.Errorf("%w: node %d: dimension %d code width %d, its codes need %d", ErrCorrupt, id, d, w, codeWidth(n.top[d]))
			}
		}
		return n, nil
	}
	n.entries = make([]Entry, f.count)
	aggArena := make(cube.AggVector, f.count*measures)
	var dimArena []mds.DimSet
	var idArena []hierarchy.ID
	for i := range n.entries {
		e := &n.entries[i]
		m, k, err := mds.AppendDecode(f.EntryMDS(i), &dimArena, &idArena)
		if err != nil || k != len(f.EntryMDS(i)) {
			return nil, fmt.Errorf("%w: node %d entry %d mds: %v", ErrCorrupt, id, i, err)
		}
		e.MDS = m
		e.Agg = aggArena[i*measures : (i+1)*measures : (i+1)*measures]
		for j := 0; j < measures; j++ {
			e.Agg[j] = f.Agg(i, j)
		}
		e.Child = f.Child(i)
	}
	return n, nil
}
