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
// A data node is its rows and nothing else (mdsBase = total length):
//
//	rows:          count × (dims × u32 coord + measures × f64)
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

// flatLayoutSizes returns the section bases of a flat node with the given
// shape: offset-table end (= agg area start), fixed area start, MDS area
// start, and the per-entry fixed stride. A data node has only the fixed
// area: its rows start behind the header and end the payload.
func flatLayoutSizes(leaf bool, count, dims, measures int) (aggBase, fixBase, mdsBase, fixedPer int) {
	if leaf {
		fixedPer = 4*dims + 8*measures
		return flatHeaderSize, flatHeaderSize, flatHeaderSize + fixedPer*count, fixedPer
	}
	aggBase = flatHeaderSize + 4*(count+1)
	fixBase = aggBase + flatAggStride*measures*count
	return aggBase, fixBase, fixBase + 8*count, 8
}

// LeafCapacityFor returns how many rows of a schema with dims coordinates
// and measures values a data node's encoding fits in payload bytes: the rows
// behind the header, at least 4 (Config's minimum). With payload the extent
// capacity of one block it is the block-filled data node, the default
// Config.LeafCapacity a host resolves — 169 rows of the TPC-D cube (4 u32 +
// 1 f64) in a 4 KiB block.
func LeafCapacityFor(payload, dims, measures int) int {
	_, _, _, row := flatLayoutSizes(true, 0, dims, measures)
	return max((payload-flatHeaderSize)/row, 4)
}

// encodedSize returns the length of the node's flat encoding without
// building it.
func (n *Node) encodedSize(dims, measures int) int {
	_, _, size, _ := flatLayoutSizes(n.leaf, n.Count(), dims, measures)
	for i := range n.entries {
		size += n.entries[i].MDS.EncodedSize()
	}
	return size
}

// appendEncodeFlat serializes the node. The fixed-size prefix (header and,
// for a directory, offset table, agg and child areas) is reserved up front
// and filled by indexed writes; a directory's MDS blobs are appended behind
// it, each one recording its start in the offset table as it goes — no
// second sizing pass over the MDS encodings.
func (n *Node) appendEncodeFlat(buf []byte, dims, measures int) []byte {
	count := n.Count()
	aggBase, fixBase, mdsBase, fixedPer := flatLayoutSizes(n.leaf, count, dims, measures)
	start := len(buf)
	buf = append(buf, make([]byte, mdsBase)...)
	hdr := buf[start : start+mdsBase]
	hdr[0] = flatMagic
	binary.LittleEndian.PutUint32(hdr[4:], uint32(n.blocks))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(count))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(mdsBase))
	if n.leaf {
		hdr[1] |= nodeFlagLeaf
		f := fixBase
		for i := 0; i < count; i++ {
			for _, c := range n.Row(i) {
				binary.LittleEndian.PutUint32(hdr[f:], uint32(c))
				f += 4
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
			binary.LittleEndian.PutUint64(hdr[fixBase+fixedPer*i:], uint64(e.Child))
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
type FlatNode struct {
	id       NodeID
	b        []byte
	leaf     bool
	blocks   int
	count    int
	dims     int
	measures int
	aggBase  int
	fixBase  int
	mdsBase  int
	fixedPer int
}

// MakeFlatNode validates a payload's frame — header and section bases — in
// constant time: after it, every aggregate, child and record access is in
// bounds, and a data node, which is its rows, is checked in full. A
// directory's offset table and the MDS blobs behind it are checked where
// the descent first uses them (EntryMDS, the view iterator, the nil-child
// test), so a clean extent visited again and again pays for no table scan;
// CheckTable is the eager O(count) form the decoder runs.
func MakeFlatNode(id NodeID, b []byte, dims, measures int) (FlatNode, error) {
	if len(b) < flatHeaderSize || b[0] != flatMagic || b[1]&^nodeFlagLeaf != 0 || b[2] != 0 || b[3] != 0 {
		return FlatNode{}, fmt.Errorf("%w: node %d: not a flat node payload", ErrCorrupt, id)
	}
	f := TrustedFlatNode(id, b, dims, measures)
	total := int(binary.LittleEndian.Uint32(b[16:]))
	if f.blocks < 1 || f.count < 0 || total != len(b) {
		return FlatNode{}, fmt.Errorf("%w: node %d: flat header blocks=%d count=%d total=%d/%d",
			ErrCorrupt, id, f.blocks, f.count, total, len(b))
	}
	// The bases are recomputed from the shape: a payload whose stored
	// mdsBase disagrees was encoded for a different schema (or corrupted)
	// and every fixed-offset access would read the wrong section. A data
	// node's rows end its payload.
	if mdsBase := int(binary.LittleEndian.Uint32(b[12:])); mdsBase != f.mdsBase || mdsBase > len(b) || (f.leaf && mdsBase != len(b)) {
		return FlatNode{}, fmt.Errorf("%w: node %d: flat mds base %d, want %d (len %d)",
			ErrCorrupt, id, mdsBase, f.mdsBase, len(b))
	}
	return f, nil
}

// TrustedFlatNode frames a payload without checking it: one Encode produced
// in this process (a read image, a version's overlay), or one MakeFlatNode
// is about to check.
func TrustedFlatNode(id NodeID, b []byte, dims, measures int) FlatNode {
	f := FlatNode{
		id:       id,
		b:        b,
		leaf:     b[1]&nodeFlagLeaf != 0,
		blocks:   int(binary.LittleEndian.Uint32(b[4:])),
		count:    int(binary.LittleEndian.Uint32(b[8:])),
		dims:     dims,
		measures: measures,
	}
	f.aggBase, f.fixBase, f.mdsBase, f.fixedPer = flatLayoutSizes(f.leaf, f.count, dims, measures)
	return f
}

// View wraps the flat node for a Source to hand to the descent.
func (f FlatNode) View() NodeView { return NodeView{f: f} }

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
	return NodeID(binary.LittleEndian.Uint64(f.b[f.fixBase+f.fixedPer*i:]))
}

// Coord returns record i's coordinate in dimension d.
func (f *FlatNode) Coord(i, d int) hierarchy.ID {
	return hierarchy.ID(binary.LittleEndian.Uint32(f.b[f.fixBase+f.fixedPer*i+4*d:]))
}

// Measure returns record i's measure j.
func (f *FlatNode) Measure(i, j int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(f.b[f.fixBase+f.fixedPer*i+4*f.dims+8*j:]))
}

// Record materializes record i as an owned Record (scan path).
func (f *FlatNode) Record(i int) cube.Record {
	r := cube.Record{
		Coords:   make([]hierarchy.ID, f.dims),
		Measures: make([]float64, f.measures),
	}
	for d := range r.Coords {
		r.Coords[d] = f.Coord(i, d)
	}
	for j := range r.Measures {
		r.Measures[j] = f.Measure(i, j)
	}
	return r
}

// DecodeNode materializes a payload as a heap node — the write path, and a
// host whose store serves no views, need mutable *Nodes.
//
// A data node decodes into its two row arrays; its coordinates must be
// leaf-level values, which the row tests assume. A directory's
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
		for i := 0; i < f.count; i++ {
			for d := 0; d < dims; d++ {
				c := f.Coord(i, d)
				if c.Level() != 0 {
					return nil, fmt.Errorf("%w: node %d record %d: coordinate %v is not a leaf value", ErrCorrupt, id, i, c)
				}
				n.coords = append(n.coords, c)
			}
			for j := 0; j < measures; j++ {
				n.measures = append(n.measures, f.Measure(i, j))
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
