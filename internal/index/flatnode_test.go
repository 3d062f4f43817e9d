package index

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/dcindex/dctree/internal/cube"
	"github.com/dcindex/dctree/internal/hierarchy"
	"github.com/dcindex/dctree/internal/mds"
)

// The node codec's own tests, over a bare index on memNodes: the laws of
// the data-node frame, the fail-closed matrix and the fuzz target.
// internal/core holds the same codec to its contract from the side that
// stores and maps its payloads.

// grownNodes returns a 900-record index and every node of it, root first.
// The last records repeat one point: records no split can separate grow
// supernodes, so the codec's multi-block case is among the nodes.
func grownNodes(t testing.TB) (ix *Index, nodes []*Node) {
	t.Helper()
	ix = newTestIndex(t, smallConfig())
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
	if !slices.ContainsFunc(nodes, func(n *Node) bool { return n.leaf && n.blocks > 1 }) {
		t.Fatal("no data supernode grew: the codec's multi-block case is not covered")
	}
	return ix, nodes
}

// sameRows reports whether two data nodes agree in Blocks, Count and every
// coordinate and measure, measures compared by their bits.
func sameRows(a, b *Node) bool {
	return a.blocks == b.blocks && slices.Equal(a.coords, b.coords) &&
		slices.EqualFunc(a.measures, b.measures, func(x, y float64) bool {
			return math.Float64bits(x) == math.Float64bits(y)
		})
}

// TestDataNodePayloadIsRows is the law of the data-node frame: the payload
// is the header and the rows, byte for byte. Its length is a function of
// the record count alone, decode∘encode is the identity, and no byte is
// slack — flipping any one is either rejected or changes what decodes.
func TestDataNodePayloadIsRows(t *testing.T) {
	ix, nodes := grownNodes(t)
	dims, measures := ix.schema.Dims(), ix.schema.Measures()
	for _, n := range nodes {
		if !n.leaf {
			continue
		}
		buf := ix.Encode(n)
		if want := flatHeaderSize + n.Count()*(4*dims+8*measures); len(buf) != want {
			t.Fatalf("node %d (%d records, %d blocks): payload %d bytes, want %d", n.id, n.Count(), n.blocks, len(buf), want)
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

func (s oneView) View(NodeID) (NodeView, error) { return s.f.View(), nil }

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
	mutate("coordinate above the leaf level", func(b []byte) []byte {
		c := hierarchy.ID(binary.LittleEndian.Uint32(b[flatHeaderSize:]))
		binary.LittleEndian.PutUint32(b[flatHeaderSize:], uint32(hierarchy.MakeID(1, c.Code())))
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
		case n.blocks > 1:
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
	// A query constrained in every dimension, so both kernels consult their
	// masks — with codes the masks were never sized for among the inputs.
	q := make(mds.MDS, dims)
	for d, c := range leaf.Row(0) {
		q[d] = mds.DimSet{Level: 0, IDs: []hierarchy.ID{c}}
	}
	qc, err := ix.newQueryCtx(q)
	if err != nil {
		f.Fatal(err)
	}
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
				view.Record(i)
				continue
			}
			if it, err := mds.NewViewIter(view.EntryMDS(i)); err == nil {
				for ok := true; ok; _, ok = it.Next() {
				}
			}
			for j := 0; j < measures; j++ {
				view.Agg(i, j)
			}
			view.Child(i)
		}
		if view.CheckTable() == nil {
			if view.Leaf() {
				nv := view.View()
				qc.scanRows(&nv, 0, cube.NewAggVector(measures))
			} else {
				for i := 0; i < view.Count(); i++ {
					if _, _, err := qc.matchEntryFlat(&view, i); err != nil && !errors.Is(err, ErrCorrupt) {
						t.Fatalf("matchEntryFlat error is not ErrCorrupt: %v", err)
					}
				}
			}
		}
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
