package index

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/dcindex/dctree/internal/bitmap"
	"github.com/dcindex/dctree/internal/cube"
	"github.com/dcindex/dctree/internal/hierarchy"
)

// The data node's column widths: a row stores each code in the bytes its
// dimension's largest code needs, and each measure in the bytes its
// largest magnitude needs (Node.width), and the node's overflow rule
// counts those bytes.

// widthTops are the largest codes of each width and the smallest of the
// next: 255/256, 65,535/65,536, 2²⁴−1/2²⁴, and the largest code an ID holds.
var widthTops = []uint64{255, 256, 1<<16 - 1, 1 << 16, 1<<24 - 1, 1 << 24, hierarchy.MaxCode}

// widthNodes returns data nodes of three dimensions and one or two
// measures whose codes straddle every width boundary: for each of widthTops
// and each dimension, eight rows — one group of the AVX2 leaf kernel — whose
// codes there count down from the top and are small elsewhere, so every
// width sits at every offset of a row; and one node whose dimensions take
// widths 4, 2 and 3. Row i of a node is widthRow of its tops.
func widthNodes(measures int) []*Node {
	var nodes []*Node
	node := func(tops []uint64) {
		n := NewNode(NodeID(len(nodes)+1), true, 3, measures)
		for i := range 8 {
			n.appendRecord(widthRow(tops, i, measures))
		}
		nodes = append(nodes, n)
	}
	for _, top := range widthTops {
		for d := range 3 {
			tops := []uint64{7, 9, 11}
			tops[d] = top
			node(tops)
		}
	}
	node([]uint64{hierarchy.MaxCode, 1 << 8, 1 << 16})
	return nodes
}

// widthRow returns row i of widthNodes' node of the largest codes tops
// (the first three of them): each code i below its top, and the measures
// 300·i and −i units.
func widthRow(tops []uint64, i, measures int) ([]hierarchy.ID, []int64) {
	var coords []hierarchy.ID
	for _, top := range tops[:3] {
		coords = append(coords, hierarchy.MakeID(0, uint32(top)-uint32(i)))
	}
	return coords, []int64{300 * int64(i), -int64(i)}[:measures]
}

// TestDataNodeWidthsRoundTrip: at every width, a data node holds each
// dimension at the width of its largest code, frames, reads back through
// Coord, Measure and the row accessor the rows widthNodes wrote, decodes to
// itself — largest codes included — and re-encodes to the same bytes; and
// the leaf kernel reads the node's own block as it reads the framed copy
// and as the row-at-a-time reference does, under each leaf kernel.
func TestDataNodeWidthsRoundTrip(t *testing.T) {
	forEachLeafKernel(t, dataNodeWidthsRoundTrip)
}

func dataNodeWidthsRoundTrip(t *testing.T) {
	const dims, measures = 3, 2
	seen := map[byte]bool{}
	for _, n := range widthNodes(measures) {
		buf := slices.Clone(n.flat.b)
		stride := 0
		for k := range dims + measures {
			w := buf[flatHeaderSize+k]
			if want := needWidth(n, k); w != want {
				t.Fatalf("node %d column %d (top %d): width %#x, want %#x", n.id, k, n.top[k], w, want)
			}
			if k < dims {
				seen[w] = true
			}
			stride += bytesOf(w)
		}
		if want := leafSize(dims+measures, n.Count(), stride); len(buf) != want || n.Count() != 8 {
			t.Fatalf("node %d: %d rows in %d bytes, want 8 rows in %d", n.id, n.Count(), len(buf), want)
		}
		f, err := MakeFlatNode(n.id, buf, dims, measures)
		if err != nil {
			t.Fatalf("node %d: %v", n.id, err)
		}
		coords, units := make([]hierarchy.ID, dims), make([]int64, measures)
		for i := 0; i < n.Count(); i++ {
			// widthNodes' row i: each code i below its column's top.
			wantCoords, wantUnits := widthRow(n.top, i, measures)
			f.row(i, coords, units)
			if !slices.Equal(coords, wantCoords) || !slices.Equal(units, wantUnits) {
				t.Fatalf("node %d row %d: read %v %v, want %v %v", n.id, i, coords, units, wantCoords, wantUnits)
			}
			for d := range dims {
				if got := f.Coord(i, d); got != wantCoords[d] {
					t.Fatalf("node %d row %d: Coord(%d) = %v, want %v", n.id, i, d, got, wantCoords[d])
				}
			}
			for j := range measures {
				if got := f.Units(i, j); got != wantUnits[j] {
					t.Fatalf("node %d row %d: Units(%d) = %v, want %v", n.id, i, j, got, wantUnits[j])
				}
			}
		}
		dec, err := DecodeNode(n.id, buf, dims, measures)
		if err != nil {
			t.Fatalf("node %d: DecodeNode: %v", n.id, err)
		}
		if !sameRows(dec, n) || !slices.Equal(dec.top, n.top) {
			t.Fatalf("node %d does not decode to itself: top %v, want %v", n.id, dec.top, n.top)
		}
		if !bytes.Equal(dec.flat.b, buf) {
			t.Fatalf("node %d does not re-encode to its payload", n.id)
		}
		// Each dimension tested alone against a mask of every other code of
		// its column: the node's own block, the framed copy and the
		// reference agree. A mask ends at 2²⁴+1 codes, so the largest codes
		// lie past it, as a code minted after the mask build does.
		for d := range dims {
			mask := bitmap.Dense(make([]uint64, bitmap.DenseWords(int(min(n.top[d], 1<<24)+1))))
			for i := 0; i < n.Count(); i += 2 {
				if coords, _ := widthRow(n.top, i, measures); int(coords[d].Code()>>6) < len(mask) {
					mask.Set(coords[d].Code())
				}
			}
			qc := &queryCtx{rows: []rowMask{{dim: d, mask: mask}}}
			var got [3][]cube.Fixed
			var rows, matched [3]int
			for k, view := range []NodeView{n.flat, f} {
				got[k] = make([]cube.Fixed, 1)
				rows[k], matched[k] = qc.scanRows(&view, 1, got[k])
			}
			got[2] = make([]cube.Fixed, 1)
			rows[2], matched[2] = refScanRows(qc, &f, 1, got[2])
			if rows != [3]int{8, 8, 8} || matched[0] != matched[1] || matched[0] != matched[2] ||
				!slices.Equal(got[0], got[1]) || !slices.Equal(got[0], got[2]) {
				t.Fatalf("node %d dimension %d: own block, framed copy, reference scans %v %v %v", n.id, d, matched, rows, got)
			}
		}
	}
	if len(seen) != 4 {
		t.Fatalf("widths written %v, want all of 1–4", seen)
	}
}

// TestLeafWidthsExact: a data node's largest codes — and so the widths it
// is encoded at and the bytes its overflow rule counts — are exact after
// every insert and after every delete, including those that remove a
// column's largest code and narrow it: they equal the largest codes
// recomputed from the rows, and those of the node decoded from its
// encoding. The rows are held to a shadow of the records inserted and not
// deleted, so that the reference is not the node's bytes read back.
func TestLeafWidthsExact(t *testing.T) {
	ix := newTestIndex(t, DefaultConfig())
	recs := genRecords(t, ix.schema, rand.New(rand.NewSource(71)), 3000)
	dims, measures := ix.schema.Dims(), ix.schema.Measures()
	shadow := recordSet{}
	check := func(what string) {
		t.Helper()
		shadow.check(t, what, ix)
		for _, n := range collectNodes(t, ix) {
			if !n.leaf {
				continue
			}
			for k := range dims + measures {
				if top, _ := n.columnTop(k); n.top[k] != top || n.flat.widths()[k] != needWidth(n, k) {
					t.Fatalf("%s: node %d column %d: tracked top %d, width %#x; rows' %d, %#x", what, n.id, k, n.top[k], n.flat.widths()[k], top, needWidth(n, k))
				}
			}
			dec, err := DecodeNode(n.id, ix.Encode(n), dims, measures)
			if err != nil {
				t.Fatalf("%s: node %d: %v", what, n.id, err)
			}
			if !slices.Equal(dec.top, n.top) {
				t.Fatalf("%s: node %d: tracked top %v, decoded %v", what, n.id, n.top, dec.top)
			}
		}
	}
	for i, r := range recs {
		if err := ix.Insert(r); err != nil {
			t.Fatal(err)
		}
		shadow.add(r, 1)
		if i%250 == 0 {
			check(fmt.Sprintf("insert %d", i))
		}
	}
	check("after the inserts")

	// Empty every data node's Customer column of its 2-byte codes, largest
	// first, so that each delete removes the column's maximum.
	narrowed := 0
	for _, n := range collectNodes(t, ix) {
		if !n.leaf || n.flat.widths()[0] != 2 {
			continue
		}
		size := len(n.flat.b)
		for n.top[0] > 0xFF && n.Count() > 1 {
			i := slices.IndexFunc(rowsOf(n), func(i int) bool { return uint64(n.flat.Coord(i, 0).Code()) == n.top[0] })
			rec := recordAt(ix.schema, n, i)
			if err := ix.Delete(rec); err != nil {
				t.Fatal(err)
			}
			shadow.add(rec, -1)
			check(fmt.Sprintf("delete of node %d's largest code", n.id))
		}
		if n.flat.widths()[0] == 1 {
			narrowed++
			if got := len(n.flat.b); got > size-n.Count() {
				t.Fatalf("node %d narrowed to 1-byte codes, but its encoding went %d → %d bytes", n.id, size, got)
			}
		}
	}
	if narrowed == 0 {
		t.Fatal("no data node's column narrowed")
	}
	if err := validate(ix); err != nil {
		t.Fatal(err)
	}
}

// TestSetWidthAllocations: re-striding a data node's rows in place, wider
// and back, code and measure columns alike, allocates nothing once its
// block has room for the wider rows.
func TestSetWidthAllocations(t *testing.T) {
	n := NewNode(1, true, 2, 1)
	for i := range 300 {
		n.appendRecord([]hierarchy.ID{hierarchy.MakeID(0, uint32(i%200)), hierarchy.MakeID(0, 7)}, []int64{int64(i)})
	}
	n.frame(slices.Grow(n.flat.b, 4096), n.Count())
	before := slices.Clone(n.flat.b)
	if allocs := testing.AllocsPerRun(10, func() {
		n.setWidth(0, 3)
		n.setWidth(2, 5)
		n.setWidth(0, 1)
		n.setWidth(2, 2)
	}); allocs != 0 {
		t.Errorf("%.0f allocations per re-stride round, want 0", allocs)
	}
	if !bytes.Equal(n.flat.b, before) {
		t.Error("re-striding wider and back changed the node's bytes")
	}
}

// recordSet is a multiset of records, kept beside a tree as the reference
// its rows are held to.
type recordSet map[string]int

// recordKey names a record by its coordinates and its measures' bits.
func recordKey(rec cube.Record) string {
	var key []byte
	for _, c := range rec.Coords {
		key = binary.LittleEndian.AppendUint32(key, uint32(c))
	}
	for _, x := range rec.Measures {
		key = binary.LittleEndian.AppendUint64(key, math.Float64bits(x))
	}
	return string(key)
}

// add counts rec k more times.
func (rs recordSet) add(rec cube.Record, k int) {
	key := recordKey(rec)
	if rs[key] += k; rs[key] == 0 {
		delete(rs, key)
	}
}

// check fails unless the records of ix, read through Scan, are the set's.
func (rs recordSet) check(t *testing.T, what string, ix *Index) {
	t.Helper()
	got := recordSet{}
	if err := ix.Scan(ix.store.(*memNodes), ix.head.Root, func(rec cube.Record) bool {
		got.add(rec, 1)
		return true
	}); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if len(got) != len(rs) {
		t.Fatalf("%s: the tree holds %d distinct records, want %d", what, len(got), len(rs))
	}
	for key, k := range rs {
		if got[key] != k {
			t.Fatalf("%s: the tree holds record %x %d times, want %d", what, key, got[key], k)
		}
	}
}

// rowsNeed returns the row stride data node n's records need, computed
// from the records read, not from the node's widths or largest keys.
func rowsNeed(n *Node) int {
	top, signed := make([]uint64, n.dims+n.nm), make([]bool, n.dims+n.nm)
	for i := 0; i < n.Count(); i++ {
		coords, units := n.Row(i)
		for d, c := range coords {
			top[d] = max(top[d], uint64(c.Code()))
		}
		for j, u := range units {
			top[n.dims+j] = max(top[n.dims+j], magnitude(u))
			signed[n.dims+j] = signed[n.dims+j] || u < 0
		}
	}
	stride := 0
	for k, c := range top {
		stride += bytesOf(widthOf(signed[k], c))
	}
	return stride
}

// rowsOf returns the row indexes of data node n.
func rowsOf(n *Node) []int {
	rows := make([]int, n.Count())
	for i := range rows {
		rows[i] = i
	}
	return rows
}

// TestLeafWidening: a code wider than every other of its column arrives at
// a full block-filled data node of 1-byte codes. At one block the node
// splits and each group fits its block; as an 8-block supernode of rows no
// split can separate it grows to the 12 blocks its widened rows need — more
// than the one block more a supernode otherwise takes; at a cap of 8 blocks
// the forced split's groups take the blocks their bytes need. The tree
// validates in each case, its rows are the records inserted, and the
// blocks a data node needs are computed from those records too.
func TestLeafWidening(t *testing.T) {
	s := testSchema(t)
	intern := func(cust, part, month int) cube.Record {
		r, err := s.InternRecord([][]string{
			{"R0", "N0", fmt.Sprintf("C%d", cust)},
			{"B0", fmt.Sprintf("P%d", part)},
			{"Y0", fmt.Sprintf("M%d", month)},
		}, []float64{1})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	// Customer codes are minted in order: C65536 is 3 bytes wide.
	for c := 0; c <= 1<<16; c++ {
		intern(c, 0, 0)
	}
	wide := intern(1<<16, 1, 1)
	if w := widthOf(false, uint64(wide.Coords[0].Code())); w != 3 {
		t.Fatalf("the wide customer's code takes %d bytes, want 3", w)
	}
	// Rows of three 1-byte codes and a measure of 100 units: 4 bytes.
	const narrowStride = 3 + 1
	capacity := func(blocks int) int { return (blocks*testBlockPayload - leafSize(4, 0, 0)) / narrowStride }
	rng := rand.New(rand.NewSource(73))

	for _, tc := range []struct {
		name       string
		blocks     int  // of the full node the wide code arrives at
		same       bool // its rows are one record repeated
		supernodes int  // MaxSupernodeBlocks
	}{
		{"one-block", 1, false, 0},
		{"supernode", 8, true, 0},
		{"supernode-at-cap", 8, true, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.MaxSupernodeBlocks = tc.supernodes
			ix, _ := newBareIndex(t, s, cfg)
			same, shadow := intern(3, 4, 5), recordSet{}
			for range capacity(tc.blocks) {
				r := same
				if !tc.same {
					r = intern(rng.Intn(256), rng.Intn(200), rng.Intn(60))
				}
				if err := ix.Insert(r); err != nil {
					t.Fatal(err)
				}
				shadow.add(r, 1)
			}
			root, err := ix.store.Get(ix.head.Root)
			if err != nil {
				t.Fatal(err)
			}
			if !root.leaf || root.Blocks() != tc.blocks || root.flat.stride != narrowStride || ix.blocksFor(leafSize(4, root.Count()+1, narrowStride)) <= tc.blocks {
				t.Fatalf("before the wide code: leaf %v, %d rows in %d blocks of stride %d, want a full %d-block data node",
					root.leaf, root.Count(), root.Blocks(), root.flat.stride, tc.blocks)
			}
			before := ix.Counters()
			if err := ix.Insert(wide); err != nil {
				t.Fatal(err)
			}
			shadow.add(wide, 1)
			shadow.check(t, "after the wide code", ix)
			if err := validate(ix); err != nil {
				t.Fatal(err)
			}
			c := ix.Counters()
			var leaves []*Node
			for _, n := range collectNodes(t, ix) {
				if n.leaf {
					leaves = append(leaves, n)
					if n.Blocks() != ix.nodeBlocks(n) {
						t.Errorf("data node %d: %d rows of stride %d in %d blocks, its bytes need %d", n.id, n.Count(), n.flat.stride, n.Blocks(), ix.nodeBlocks(n))
					}
					if stride, need := rowsNeed(n), ix.blocksFor(leafSize(4, n.Count(), rowsNeed(n))); n.flat.stride != stride || n.Blocks() != need {
						t.Errorf("data node %d: stride %d in %d blocks, its records need %d in %d", n.id, n.flat.stride, n.Blocks(), stride, need)
					}
				}
			}
			switch tc.name {
			case "one-block":
				if c.SplitsHierarchy != before.SplitsHierarchy+1 || len(leaves) != 2 || leaves[0].Blocks() != 1 || leaves[1].Blocks() != 1 {
					t.Fatalf("counters %+v, %d data nodes: want one split into two one-block nodes", c, len(leaves))
				}
			case "supernode":
				if c.SupernodesGrown != before.SupernodesGrown+1 || len(leaves) != 1 || leaves[0].Blocks() != 12 {
					t.Fatalf("counters %+v, %d data nodes, root %d blocks: want the supernode grown to 12", c, len(leaves), leaves[0].Blocks())
				}
			default:
				if c.SplitsForced != before.SplitsForced+1 || len(leaves) != 2 {
					t.Fatalf("counters %+v, %d data nodes: want a forced split", c, len(leaves))
				}
			}
		})
	}
}

// TestDataNodeWidthSeedsRejected: a code width outside 1–4, or a row area
// other than count × the stride the widths give, is ErrCorrupt to both the
// frame check and the decoder.
func TestDataNodeWidthSeedsRejected(t *testing.T) {
	for name, b := range badWidthPayloads(2) {
		if _, err := MakeFlatNode(1, b, 3, 2); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: MakeFlatNode: %v, want ErrCorrupt", name, err)
		}
		if _, err := DecodeNode(1, b, 3, 2); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: DecodeNode: %v, want ErrCorrupt", name, err)
		}
	}
}

// badWidthPayloads returns encodings of widthNodes(measures) damaged in
// their widths or their row area, by name: a width of 0 and one of 5, each
// beside widths that keep the sum, and so the stride and the length, the
// encoder wrote; a row area a byte short of and a byte past count × stride.
func badWidthPayloads(measures int) map[string][]byte {
	nodes := widthNodes(measures)
	narrow, mixed := nodes[0], nodes[len(nodes)-1] // widths 1, 1, 1 and 4, 2, 3
	bad := map[string][]byte{}
	for name, tc := range map[string]struct {
		n      *Node
		widths []byte
	}{
		"width 0": {narrow, []byte{0, 2, 1}},
		"width 5": {mixed, []byte{5, 1, 3}},
	} {
		b := slices.Clone(tc.n.flat.b)
		copy(b[flatHeaderSize:], tc.widths)
		bad[name] = b
	}
	for name, delta := range map[string]int{"row area one byte short": -1, "row area one byte long": 1} {
		b := slices.Clone(narrow.flat.b)
		if delta < 0 {
			b = b[:len(b)-1]
		} else {
			b = append(b, 0)
		}
		lenWords(b)
		bad[name] = b
	}
	return bad
}

// lenWords sets a data node payload's length words to its length: the
// total, and the mdsBase the pad before it.
func lenWords(b []byte) {
	binary.LittleEndian.PutUint32(b[12:], uint32(len(b)-leafPad))
	binary.LittleEndian.PutUint32(b[16:], uint32(len(b)))
}

// TestRepairAggregate holds the delete's aggregate repair to the refold,
// field by field, on the rows that decide a fold: a removed row holding the
// minimum, the maximum, both, a duplicate of the minimum, neither; values of
// either sign.
func TestRepairAggregate(t *testing.T) {
	for _, c := range []struct {
		name string
		rows [][2]int64
		gone int
	}{
		{"min", [][2]int64{{3, 30}, {1, 10}, {5, 50}, {4, 40}}, 1},
		{"max", [][2]int64{{3, 30}, {1, 10}, {5, 50}, {4, 40}}, 2},
		{"min and max", [][2]int64{{1, 50}, {3, 30}, {5, 10}}, 0},
		{"only value", [][2]int64{{7, 7}, {7, 7}, {7, 7}}, 1},
		{"duplicate of the min", [][2]int64{{1, 10}, {3, 30}, {1, 10}, {5, 50}}, 2},
		{"neither", [][2]int64{{3, 30}, {1, 10}, {5, 50}, {4, 40}}, 3},
		{"neither, first row", [][2]int64{{3, 30}, {1, 10}, {5, 50}}, 0},
		{"negative", [][2]int64{{-3, 300}, {-1, -10}, {-5, 1 << 40}}, 2},
	} {
		n := NewNode(1, true, 1, 2)
		for i, r := range c.rows {
			n.appendRecord([]hierarchy.ID{hierarchy.MakeID(0, uint32(i))}, r[:])
		}
		v := n.aggregate(make([]cube.Fixed, 2))
		_, gone := n.Row(c.gone)
		n.removeRecord(c.gone)
		n.repairAggregate(v, gone)
		if want := n.aggregate(make([]cube.Fixed, 2)); !slices.Equal(v, want) {
			t.Errorf("%s: repaired %+v, refolded %+v", c.name, v, want)
		}
	}
}

// FuzzDataNodeRows runs a stream of appendRecord and removeRecord on one
// data node, and after every operation holds the node to a shadow of its
// rows kept apart from its bytes: the rows the descent's view of the node
// reads are the shadow's, in order; the tracked largest keys are the
// shadow's; each measure's fold is the shadow's; and the node's encoding
// decodes. An op byte of low bits 0 removes a random row; any other appends
// a row whose codes take, per dimension, a random width of 1 up to
// 1 + op>>6 bytes, and whose measures, per measure, a random width of 1 up
// to 1 + op>>5 bytes, of either sign — so that a stream widens its columns
// through every width and, as the wide rows leave, narrows them back.
func FuzzDataNodeRows(f *testing.F) {
	f.Add(int64(1), []byte{0xC1, 0xC2, 0x41, 0x81, 0xC3, 0, 0, 0, 0, 0xC1, 0}, uint8(2), uint8(1))
	f.Add(int64(2), bytes.Repeat([]byte{0xFF, 0xFE, 0, 0x41, 0, 0x81}, 20), uint8(3), uint8(2))
	f.Add(int64(3), append(bytes.Repeat([]byte{0xFD}, 40), make([]byte, 40)...), uint8(0), uint8(0))
	f.Add(int64(4), bytes.Repeat([]byte{0x05, 0x06, 0x07}, 200), uint8(1), uint8(1))
	f.Add(int64(5), append(bytes.Repeat([]byte{0xE1, 0x21}, 30), bytes.Repeat([]byte{0, 0x01}, 40)...), uint8(1), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, ops []byte, dims, measures uint8) {
		nd, nm := 1+int(dims)%4, 1+int(measures)%3
		rng := rand.New(rand.NewSource(seed))
		n := NewNode(1, true, nd, nm)
		type row struct {
			coords []hierarchy.ID
			units  []int64
		}
		var shadow []row
		coords, units := make([]hierarchy.ID, nd), make([]int64, nm)
		// The first code of each width, and the last.
		lo := []uint32{0, 1 << 8, 1 << 16, 1 << 24}
		hi := []uint32{1<<8 - 1, 1<<16 - 1, 1<<24 - 1, hierarchy.MaxCode}
		for k, op := range ops {
			if op&3 == 0 {
				if len(shadow) == 0 {
					continue
				}
				i := rng.Intn(len(shadow))
				n.removeRecord(i)
				shadow = slices.Delete(shadow, i, i+1)
			} else {
				var r row
				for range nd {
					w := rng.Intn(1 + int(op>>6))
					r.coords = append(r.coords, hierarchy.MakeID(0, lo[w]+uint32(rng.Int63n(int64(hi[w]-lo[w])+1))))
				}
				for range nm {
					// A magnitude that takes exactly w bytes with its sign
					// bit, and a sign.
					w, least := 1+rng.Intn(1+int(op>>5)), uint64(0)
					if w > 1 {
						least = 1 << (8*(w-1) - 1)
					}
					m := least + rng.Uint64()%(1<<(8*w-1)-least)
					u := int64(m)
					if rng.Intn(2) == 0 {
						u = -u - 1
					}
					r.units = append(r.units, u)
				}
				n.appendRecord(r.coords, r.units)
				shadow = append(shadow, r)
			}
			var nv NodeView
			(&Index{}).HeapView(n, &nv)
			if nv.Count() != len(shadow) || n.Count() != len(shadow) {
				t.Fatalf("op %d: the node holds %d rows, its view %d, want %d", k, n.Count(), nv.Count(), len(shadow))
			}
			top, neg, folds := make([]uint64, nd+nm), make([]bool, nm), make([]cube.Fixed, nm)
			for i, want := range shadow {
				nv.row(i, coords, units)
				if !slices.Equal(coords, want.coords) || !slices.Equal(units, want.units) {
					t.Fatalf("op %d: row %d reads %v %v, want %v %v", k, i, coords, units, want.coords, want.units)
				}
				for d, c := range want.coords {
					top[d] = max(top[d], uint64(c.Code()))
				}
				for j, u := range want.units {
					top[nd+j] = max(top[nd+j], magnitude(u))
					neg[j] = neg[j] || u < 0
					folds[j].Add(u)
				}
			}
			if !slices.Equal(n.top, top) {
				t.Fatalf("op %d: largest keys %v, the rows' %v", k, n.top, top)
			}
			for j, neg := range neg {
				if w := nv.widths()[nd+j]; w != widthOf(neg, top[nd+j]) {
					t.Fatalf("op %d: measure %d of width %#x, its rows need %#x", k, j, w, widthOf(neg, top[nd+j]))
				}
			}
			if got := n.aggregate(make([]cube.Fixed, nm)); len(shadow) > 0 && !slices.Equal(got, folds) {
				t.Fatalf("op %d: folds %v, the rows' %v", k, got, folds)
			}
			if _, err := DecodeNode(1, (&Index{}).Encode(n), nd, nm); err != nil {
				t.Fatalf("op %d: %v", k, err)
			}
		}
	})
}
