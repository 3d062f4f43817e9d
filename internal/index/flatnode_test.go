package index

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/dcindex/dctree/internal/cube"
	"github.com/dcindex/dctree/internal/hierarchy"
	"github.com/dcindex/dctree/internal/mds"
)

// The node codec's tests, over a bare index on memNodes: the laws of the
// data-node frame, the fail-closed matrix, the fuzz target, and every node
// of grown trees through encode, the flat view's accessors and decode.

// grownNodes returns a 900-record index on blocks of payload512 and every
// node of it, root first. The last 100 records repeat one point, past a
// block's bytes: records no split can separate grow supernodes, so the
// codec's multi-block case is among the nodes.
func grownNodes(t testing.TB) (ix *Index, nodes []*Node) {
	t.Helper()
	ix, _ = newBareIndexAt(t, testSchema(t), smallConfig(), payload512)
	recs := genRecords(t, ix.schema, rand.New(rand.NewSource(7)), 900)
	for i, r := range recs {
		if i >= 800 {
			r = recs[800]
		}
		if err := ix.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	nodes = collectNodes(t, ix)
	if !slices.ContainsFunc(nodes, func(n *Node) bool { return n.leaf && n.Blocks() > 1 }) {
		t.Fatal("no data supernode grew: the codec's multi-block case is not covered")
	}
	return ix, nodes
}

// sameRows reports whether two data nodes agree in Blocks, Count and every
// coordinate and measure, measures compared by their bits.
func sameRows(a, b *Node) bool {
	if a.Blocks() != b.Blocks() || a.Count() != b.Count() {
		return false
	}
	for i := 0; i < a.Count(); i++ {
		x, y := a.Record(i), b.Record(i)
		if !slices.Equal(x.Coords, y.Coords) || !slices.EqualFunc(x.Measures, y.Measures, func(x, y float64) bool {
			return math.Float64bits(x) == math.Float64bits(y)
		}) {
			return false
		}
	}
	return true
}

// TestDataNodePayloadIsRows is the law of the data-node frame: the payload
// is the header, the code widths and the rows, byte for byte. Its length is
// a function of the record count and the widths the codes need alone,
// decode∘encode is the identity, and no byte is slack — flipping any one is
// either rejected or changes what decodes.
func TestDataNodePayloadIsRows(t *testing.T) {
	ix, nodes := grownNodes(t)
	dims, measures := ix.schema.Dims(), ix.schema.Measures()
	for _, n := range nodes {
		if !n.leaf {
			continue
		}
		buf := ix.Encode(n)
		stride := 8 * measures
		for d := range dims {
			w := codeWidth(n.columnTop(d, -1))
			if int(buf[flatHeaderSize+d]) != w {
				t.Fatalf("node %d dimension %d: width %d, its codes need %d", n.id, d, buf[flatHeaderSize+d], w)
			}
			stride += w
		}
		if want := flatHeaderSize + dims + n.Count()*stride; len(buf) != want {
			t.Fatalf("node %d (%d records, %d blocks): payload %d bytes, want %d", n.id, n.Count(), n.Blocks(), len(buf), want)
		}
		dec, err := DecodeNode(n.id, buf, dims, measures)
		if err != nil {
			t.Fatalf("DecodeNode(%d): %v", n.id, err)
		}
		if !dec.leaf || dec.Count() != n.Count() || !sameRows(dec, n) {
			t.Fatalf("node %d does not decode to itself", n.id)
		}
		if !bytes.Equal(ix.Encode(dec), buf) {
			t.Fatalf("node %d does not re-encode to its payload", n.id)
		}
		for i := range buf {
			for bit := 0; bit < 8; bit++ {
				buf[i] ^= 1 << bit
				if dec, err := DecodeNode(n.id, buf, dims, measures); err == nil && dec.leaf && sameRows(dec, n) {
					t.Fatalf("node %d: flipping bit %d of byte %d changes nothing: a slack byte", n.id, bit, i)
				} else if err != nil && !errors.Is(err, ErrCorrupt) {
					t.Fatalf("node %d byte %d: %v, want ErrCorrupt", n.id, i, err)
				}
				buf[i] ^= 1 << bit
			}
		}
	}
}

// oneView serves a single flat node, whatever ID is asked for: the Source
// of a descent that must meet exactly this payload.
type oneView struct{ f FlatNode }

func (s oneView) View(_ NodeID, nv *NodeView) error {
	*nv = s.f
	return nil
}

// TestFlatNodeCorruptFailClosed: damaged flat encodings are never decoded,
// served or panicked on. A damaged frame is rejected by MakeFlatNode — for
// a data node that is every check there is; a directory's damaged offset
// table passes the constant-time frame check, is rejected by CheckTable
// (and so by the decoder), and on the read path surfaces as ErrCorrupt from
// the descent that meets the entry it garbles.
func TestFlatNodeCorruptFailClosed(t *testing.T) {
	ix, nodes := grownNodes(t)
	dims, measures := ix.schema.Dims(), ix.schema.Measures()
	// The whole-cube query matches every entry it can parse without
	// descending, so the walk meets the damaged node and nothing else.
	whole := Query{MDS: mds.Top(dims)}
	mutations := func(n *Node) func(name string, f func(b []byte) []byte) {
		good := ix.Encode(n)
		if _, err := MakeFlatNode(n.id, good, dims, measures); err != nil {
			t.Fatalf("pristine encoding rejected: %v", err)
		}
		return func(name string, f func(b []byte) []byte) {
			b := f(append([]byte(nil), good...))
			if _, err := DecodeNode(n.id, b, dims, measures); !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s: corrupt encoding decoded: %v", name, err)
			}
			view, err := MakeFlatNode(n.id, b, dims, measures)
			if err != nil {
				return
			}
			if view.Leaf() {
				// A data node past the frame check is served as its rows:
				// only the decoder looks at what the rows hold.
				return
			}
			if view.CheckTable() == nil {
				t.Errorf("%s: corrupt encoding passes the frame and the table check", name)
			}
			if _, err := ix.Execute(context.Background(), oneView{view}, n.id, whole); !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s: the descent matched every entry of a corrupt encoding: %v", name, err)
			}
		}
	}
	frame := func(kind string, mutate func(name string, f func(b []byte) []byte)) {
		mutate(kind+": bad magic", func(b []byte) []byte { b[0] ^= 0xFF; return b })
		mutate(kind+": truncated", func(b []byte) []byte { return b[:len(b)/2] })
		mutate(kind+": hostile count", func(b []byte) []byte {
			b[8], b[9], b[10], b[11] = 0xFF, 0xFF, 0xFF, 0x7F
			return b
		})
		mutate(kind+": total length mismatch", func(b []byte) []byte { return append(b, 0) })
		mutate(kind+": empty", func(b []byte) []byte { return nil })
		mutate(kind+": reserved byte set", func(b []byte) []byte { b[2] = 1; return b })
		mutate(kind+": unknown flag", func(b []byte) []byte { b[1] |= 0x80; return b })
		mutate(kind+": other kind's flag", func(b []byte) []byte { b[1] ^= nodeFlagLeaf; return b })
	}

	mutate := mutations(nodes[0]) // the root: a directory
	frame("directory", mutate)
	// The offset table starts behind the 20-byte header.
	mutate("non-monotone offsets", func(b []byte) []byte {
		// First offset-table slot (entry 0's MDS offset) bumped past the
		// second: the monotonicity check must catch it.
		b[flatHeaderSize] = 0xEE
		return b
	})
	mutate("gap before first MDS", func(b []byte) []byte { b[flatHeaderSize] = 1; return b })

	leaf := nodes[slices.IndexFunc(nodes, func(n *Node) bool { return n.leaf && n.Count() > 1 })]
	mutate = mutations(leaf)
	frame("data node", mutate)
	mutate("one row short", func(b []byte) []byte {
		b = b[:len(b)-(4*dims+8*measures)]
		binary.LittleEndian.PutUint32(b[16:], uint32(len(b)))
		return b
	})
	mutate("trailing bytes behind the rows", func(b []byte) []byte {
		b = append(b, make([]byte, 8)...)
		binary.LittleEndian.PutUint32(b[16:], uint32(len(b)))
		return b
	})
	mutate("coordinate above the leaf level", func([]byte) []byte { return aboveLeaf(leaf) })
	mutate("code width wider than the codes need", func([]byte) []byte {
		return layRows(leaf, wideWidths(dims, 0))
	})
	mutate("code width 0", func(b []byte) []byte { b[flatHeaderSize] = 0; return b })
	mutate("code width 5", func(b []byte) []byte { b[flatHeaderSize] = 5; return b })
	mutate("row area one byte past count × stride", func(b []byte) []byte {
		b = append(b, 0)
		binary.LittleEndian.PutUint32(b[12:], uint32(len(b)))
		binary.LittleEndian.PutUint32(b[16:], uint32(len(b)))
		return b
	})
	mutate("the retired layout's frame", func(b []byte) []byte {
		// Until DCMETA08 a data node repeated, per record, an offset-table
		// slot, one aggregate per measure and a singleton MDS blob around
		// the rows, and stored the base of the blob area: another mdsBase
		// and another length than the rows give.
		count := leaf.Count()
		mdsBase := flatHeaderSize + 4*(count+1) + flatAggStride*measures*count + (4*dims+8*measures)*count
		old := make([]byte, mdsBase+count*(1+6*dims))
		copy(old, b[:flatHeaderSize])
		binary.LittleEndian.PutUint32(old[12:], uint32(mdsBase))
		binary.LittleEndian.PutUint32(old[16:], uint32(len(old)))
		return old
	})
}

// layRows encodes data node n with its codes at the given widths, which
// need not be those its codes need: the payloads the encoder never writes.
// A width of 4 stores the whole coordinate, level tag included.
func layRows(n *Node, widths []byte) []byte {
	stride := 8 * n.nm
	for _, w := range widths {
		stride += int(w)
	}
	b := make([]byte, leafSize(n.dims, n.Count(), stride))
	b[0], b[1] = flatMagic, nodeFlagLeaf
	binary.LittleEndian.PutUint32(b[4:], uint32(n.Blocks()))
	binary.LittleEndian.PutUint32(b[8:], uint32(n.Count()))
	binary.LittleEndian.PutUint32(b[12:], uint32(len(b)))
	binary.LittleEndian.PutUint32(b[16:], uint32(len(b)))
	copy(b[flatHeaderSize:], widths)
	o := flatHeaderSize + n.dims
	for i := 0; i < n.Count(); i++ {
		rec := n.Record(i)
		for d, c := range rec.Coords {
			for k := 0; k < int(widths[d]); k++ {
				b[o+k] = byte(c >> (8 * k))
			}
			o += int(widths[d])
		}
		for _, x := range rec.Measures {
			binary.LittleEndian.PutUint64(b[o:], math.Float64bits(x))
			o += 8
		}
	}
	return b
}

// wideWidths returns dims widths of 1 byte but dimension d's, of 4.
func wideWidths(dims, d int) []byte {
	widths := bytes.Repeat([]byte{1}, dims)
	widths[d] = 4
	return widths
}

// aboveLeaf returns data node n's rows with dimension 0 stored in 4 bytes —
// the other dimensions at 1, so n's codes there must fit one — and row 0's
// coordinate there tagged with level 1.
func aboveLeaf(n *Node) []byte {
	b := layRows(n, wideWidths(n.dims, 0))
	b[flatHeaderSize+n.dims+3] |= 1 << (hierarchy.CodeBits - 24)
	return b
}

// encodedNodes serves nodes from flat encodings behind the checked frame, as
// a store of zero-copy views does: the Source of a tree whose bytes a test
// holds and may damage.
type encodedNodes struct {
	b        map[NodeID][]byte
	dims, nm int
}

func (s encodedNodes) View(id NodeID, nv *NodeView) error {
	b, ok := s.b[id]
	if !ok {
		return fmt.Errorf("%w: no node %d", ErrCorrupt, id)
	}
	return nv.Frame(id, b, s.dims, s.nm)
}

// TestValidateReadsEncodedBytes holds Validate to the bytes a reader reads:
// over every node of a bare index served as its own encoding — so the flat
// data-node arm runs as well as the directory's — the clean tree passes, and
// each hand corruption of an aggregate, an entry MDS, the head, a row or an
// offset table is ErrCorrupt.
func TestValidateReadsEncodedBytes(t *testing.T) {
	ix, nodes := grownNodes(t)
	dims, measures := ix.schema.Dims(), ix.schema.Measures()
	encoded := func() encodedNodes {
		src := encodedNodes{b: map[NodeID][]byte{}, dims: dims, nm: measures}
		for _, n := range nodes {
			src.b[n.id] = append([]byte(nil), ix.Encode(n)...)
		}
		return src
	}
	if err := ix.Validate(encoded(), ix.Head()); err != nil {
		t.Fatalf("clean tree: %v", err)
	}
	root := nodes[0]
	leaf := nodes[slices.IndexFunc(nodes, func(n *Node) bool { return n.leaf && n.Count() > 0 })]
	// agg0 is the offset of the root's first entry's first aggregate.
	agg0 := flatHeaderSize + 4*(root.Count()+1)
	// dropped re-encodes the first directory whose entry holds two values in
	// a dimension with the entry's first value there dropped.
	dropped := func() (NodeID, []byte) {
		for _, n := range nodes {
			dec, err := DecodeNode(n.id, ix.Encode(n), dims, measures)
			if err != nil {
				t.Fatal(err)
			}
			for i, e := range dirEntries(dec) {
				for d, ds := range e.MDS {
					if ds.Level != hierarchy.LevelALL && len(ds.IDs) > 1 {
						e.MDS[d].IDs = ds.IDs[1:]
						dec.setMDS(i, e.MDS)
						return n.id, dec.flat.b
					}
				}
			}
		}
		t.Fatal("no entry holds two values in a dimension")
		return 0, nil
	}
	for _, c := range []struct {
		name   string
		damage func(src encodedNodes, h *Head)
	}{
		{"aggregate sum", func(src encodedNodes, _ *Head) {
			b := src.b[root.id][agg0:]
			binary.LittleEndian.PutUint64(b, math.Float64bits(math.Float64frombits(binary.LittleEndian.Uint64(b))+1e6))
		}},
		{"aggregate count", func(src encodedNodes, _ *Head) {
			b := src.b[root.id][agg0+8:]
			binary.LittleEndian.PutUint64(b, binary.LittleEndian.Uint64(b)+1)
		}},
		{"entry MDS value dropped", func(src encodedNodes, _ *Head) {
			id, b := dropped()
			src.b[id] = b
		}},
		{"head count off by one", func(_ encodedNodes, h *Head) { h.Count++ }},
		{"row coordinate above the leaf level", func(src encodedNodes, _ *Head) { src.b[leaf.id] = aboveLeaf(leaf) }},
		{"non-monotone offsets", func(src encodedNodes, _ *Head) { src.b[root.id][flatHeaderSize] = 0xEE }},
	} {
		src, h := encoded(), ix.Head()
		c.damage(src, &h)
		if err := ix.Validate(src, h); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Validate = %v, want ErrCorrupt", c.name, err)
		}
	}
}

// FuzzDecodeFlatNode drives the one node decoder with arbitrary payloads.
// MakeFlatNode (the frame check every zero-copy view passes) and DecodeNode
// agree on the frame: what the first rejects the second rejects, and the
// second rejects further only for a directory's malformed offset table or
// MDS blob, which a view surfaces at pruning time, or for a row that holds
// no leaf value. An accepted view can be walked end to end through the
// accessors of its kind — a directory's MDSs, aggregates and children, a
// data node's records — and, once CheckTable accepts it too, tested by the
// descent's two kernels, without a panic. An accepted payload is canonical
// up to varint width: it re-encodes to itself, or to a shorter payload that
// re-encodes to itself.
func FuzzDecodeFlatNode(f *testing.F) {
	ix, nodes := grownNodes(f)
	dims, measures := ix.schema.Dims(), ix.schema.Measures()
	var leaf, dir, super *Node
	for _, n := range nodes {
		switch {
		case n.Blocks() > 1:
			super = n
		case n.leaf && leaf == nil:
			leaf = n
		case !n.leaf && dir == nil:
			dir = n
		}
	}
	for _, n := range []*Node{leaf, dir, super} {
		f.Add(ix.Encode(n))
	}
	// A data node at each code width, 1 to 4, in its first dimension; then
	// one with a width outside them and one whose rows are not count ×
	// stride bytes.
	for _, n := range widthNodes(measures) {
		if slices.Contains([]uint32{255, 1<<16 - 1, 1<<24 - 1, hierarchy.MaxCode}, n.top[0]) && n.top[1] == 9 {
			f.Add(ix.Encode(n))
		}
	}
	bad := badWidthPayloads(measures)
	f.Add(bad["width 5"])
	f.Add(bad["row area one byte long"])
	// A query constrained in every dimension, so both kernels consult their
	// masks — with codes the masks were never sized for among the inputs.
	q := make(mds.MDS, dims)
	for d, c := range leaf.Record(0).Coords {
		q[d] = mds.DimSet{Level: 0, IDs: []hierarchy.ID{c}}
	}
	qc := ix.newQueryCtx(q)
	rec := cube.Record{Coords: make([]hierarchy.ID, dims), Measures: make([]float64, measures)}
	var dimArena []mds.DimSet
	var idArena []hierarchy.ID
	f.Fuzz(func(t *testing.T, data []byte) {
		view, viewErr := MakeFlatNode(1, data, dims, measures)
		n, decErr := DecodeNode(1, data, dims, measures)
		if viewErr != nil {
			if decErr == nil {
				t.Fatalf("DecodeNode accepted what MakeFlatNode rejected: %v", viewErr)
			}
			return
		}
		for i := 0; i < view.Count(); i++ {
			if view.Leaf() {
				view.row(i, rec)
				continue
			}
			dimArena, idArena = dimArena[:0], idArena[:0]
			mds.AppendDecode(view.EntryMDS(i), &dimArena, &idArena)
			for j := 0; j < measures; j++ {
				view.Agg(i, j)
			}
			view.Child(i)
		}
		if view.CheckTable() == nil {
			if view.Leaf() {
				qc.scanRows(&view, 0, cube.NewAggVector(measures))
			} else {
				for i := 0; i < view.Count(); i++ {
					if _, _, err := qc.matchEntryFlat(&view, i); err != nil && !errors.Is(err, ErrCorrupt) {
						t.Fatalf("matchEntryFlat error is not ErrCorrupt: %v", err)
					}
				}
			}
		}
		// Walked by Validate as a one-node tree — a directory's children
		// resolve to nothing — it fails or passes, and never panics.
		height := 1
		if !view.Leaf() {
			height = 2
		}
		_ = ix.Validate(encodedNodes{b: map[NodeID][]byte{1: data}, dims: dims, nm: measures},
			Head{Root: 1, RootMDS: mds.Top(dims), Height: height, Count: int64(view.Count())})
		if decErr != nil {
			if !errors.Is(decErr, ErrCorrupt) {
				t.Fatalf("DecodeNode error is not ErrCorrupt: %v", decErr)
			}
			return
		}
		re := ix.Encode(n)
		if len(re) > len(data) || (len(re) == len(data) && !bytes.Equal(re, data)) {
			t.Fatalf("accepted payload (%d bytes) re-encodes differently (%d bytes)", len(data), len(re))
		}
		n2, err := DecodeNode(1, re, dims, measures)
		if err != nil {
			t.Fatalf("re-encoded payload rejected: %v", err)
		}
		if !bytes.Equal(ix.Encode(n2), re) {
			t.Fatal("re-encoding is not a fixed point")
		}
	})
}

// requireNodesEqual compares a decoded node against the original field by
// field.
func requireNodesEqual(t *testing.T, got, want *Node) {
	t.Helper()
	if got.ID() != want.ID() || got.Leaf() != want.Leaf() || got.Blocks() != want.Blocks() || got.Count() != want.Count() {
		t.Fatalf("node %d: shape (leaf=%v blocks=%d entries=%d) != (leaf=%v blocks=%d entries=%d)",
			want.ID(), got.Leaf(), got.Blocks(), got.Count(),
			want.Leaf(), want.Blocks(), want.Count())
	}
	if got.Leaf() {
		for i := 0; i < want.Count(); i++ {
			if !slices.Equal(got.Record(i).Coords, want.Record(i).Coords) || !slices.Equal(got.Record(i).Measures, want.Record(i).Measures) {
				t.Fatalf("node %d: row %d differs", want.ID(), i)
			}
		}
	}
	gotEntries := dirEntries(got)
	for i, we := range dirEntries(want) {
		ge := gotEntries[i]
		if !ge.MDS.Equal(we.MDS) {
			t.Fatalf("node %d entry %d: MDS %v != %v", want.ID(), i, ge.MDS, we.MDS)
		}
		if len(ge.Agg) != len(we.Agg) {
			t.Fatalf("node %d entry %d: agg len %d != %d", want.ID(), i, len(ge.Agg), len(we.Agg))
		}
		for j := range we.Agg {
			if ge.Agg[j] != we.Agg[j] {
				t.Fatalf("node %d entry %d measure %d: agg %+v != %+v", want.ID(), i, j, ge.Agg[j], we.Agg[j])
			}
		}
		if ge.Child != we.Child {
			t.Fatalf("node %d entry %d: child %d != %d", want.ID(), i, ge.Child, we.Child)
		}
	}
}

// TestFlatNodeRoundTrip: every node of a grown tree survives flat encode →
// flat view accessors → full heap decode unchanged, including supernodes. A
// directory's view serves its entries' MDSs, aggregates and children; a data
// node's serves its rows.
func TestFlatNodeRoundTrip(t *testing.T) {
	ix, nodes := grownNodes(t)
	dims, measures := ix.schema.Dims(), ix.schema.Measures()
	for _, n := range nodes {
		buf := ix.Encode(n)
		f, err := MakeFlatNode(n.ID(), buf, dims, measures)
		if err != nil {
			t.Fatalf("MakeFlatNode(%d): %v", n.ID(), err)
		}
		if err := f.CheckTable(); err != nil {
			t.Fatalf("CheckTable(%d): %v", n.ID(), err)
		}
		if f.Leaf() != n.Leaf() || f.Count() != n.Count() || f.Blocks() != n.Blocks() {
			t.Fatalf("node %d: flat shape (leaf=%v count=%d blocks=%d)", n.ID(), f.Leaf(), f.Count(), f.Blocks())
		}
		// Spot-check the in-place accessors against the heap form.
		for i := 0; n.Leaf() && i < n.Count(); i++ {
			for d := 0; d < dims; d++ {
				if f.Coord(i, d) != n.Record(i).Coords[d] {
					t.Fatalf("node %d record %d: coord(%d) differs", n.ID(), i, d)
				}
			}
			for j := 0; j < measures; j++ {
				if f.Measure(i, j) != n.Record(i).Measures[j] {
					t.Fatalf("node %d record %d: measure(%d) differs", n.ID(), i, j)
				}
			}
		}
		for i, e := range dirEntries(n) {
			wantMDS := e.MDS.AppendEncode(nil)
			if !bytes.Equal(f.EntryMDS(i), wantMDS) {
				t.Fatalf("node %d entry %d: flat MDS bytes differ", n.ID(), i)
			}
			for j := 0; j < measures; j++ {
				if f.Agg(i, j) != e.Agg[j] {
					t.Fatalf("node %d entry %d: agg(%d) = %+v, want %+v", n.ID(), i, j, f.Agg(i, j), e.Agg[j])
				}
			}
			if f.Child(i) != e.Child {
				t.Fatalf("node %d entry %d: child differs", n.ID(), i)
			}
		}
		dec, err := DecodeNode(n.ID(), buf, dims, measures)
		if err != nil {
			t.Fatalf("DecodeNode(%d): %v", n.ID(), err)
		}
		requireNodesEqual(t, dec, n)
	}
}

// TestFlatNodeEmpty: the flat codec handles a zero-entry node (an empty
// tree's root data node).
func TestFlatNodeEmpty(t *testing.T) {
	ix, _ := newBareIndexAt(t, testSchema(t), smallConfig(), payload512)
	s := ix.schema
	n, err := ix.store.Get(ix.head.Root)
	if err != nil {
		t.Fatal(err)
	}
	if n.Count() != 0 {
		t.Fatalf("fresh root has %d entries", n.Count())
	}
	dec, err := DecodeNode(n.ID(), ix.Encode(n), s.Dims(), s.Measures())
	if err != nil {
		t.Fatal(err)
	}
	requireNodesEqual(t, dec, n)
}

// TestFlatNodeMDSView: a directory's flat entry MDS bytes decode in place,
// through AppendDecode's arenas, to the MDSs the node holds, each blob one
// whole MDS; a data node's view holds no MDS, only the records a scan
// returns.
func TestFlatNodeMDSView(t *testing.T) {
	ix, _ := newBareIndexAt(t, testSchema(t), smallConfig(), payload512)
	s := ix.schema
	rng := rand.New(rand.NewSource(19))
	for _, r := range genRecords(t, s, rng, 300) {
		if err := ix.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	dims, measures := s.Dims(), s.Measures()
	for _, n := range collectNodes(t, ix) {
		f, err := MakeFlatNode(n.ID(), ix.Encode(n), dims, measures)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; n.Leaf() && i < n.Count(); i++ {
			for d, c := range n.Record(i).Coords {
				if f.Coord(i, d) != c {
					t.Fatalf("node %d record %d: view coordinate %d is %v, want %v", n.ID(), i, d, f.Coord(i, d), c)
				}
			}
			for j, x := range n.Record(i).Measures {
				if f.Measure(i, j) != x {
					t.Fatalf("node %d record %d: view measure %d is %v, want %v", n.ID(), i, j, f.Measure(i, j), x)
				}
			}
		}
		var dimArena []mds.DimSet
		var idArena []hierarchy.ID
		for i, e := range dirEntries(n) {
			b := f.EntryMDS(i)
			got, k, err := mds.AppendDecode(b, &dimArena, &idArena)
			if err != nil || k != len(b) {
				t.Fatalf("node %d entry %d: decoded %d of %d bytes: %v", n.ID(), i, k, len(b), err)
			}
			if !got.Equal(e.MDS) {
				t.Fatalf("node %d entry %d: view %v != %v", n.ID(), i, got, e.MDS)
			}
		}
	}
}
