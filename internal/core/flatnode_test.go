package core

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"github.com/dcindex/dctree/internal/cube"
	"github.com/dcindex/dctree/internal/index"
	"github.com/dcindex/dctree/internal/mds"
)

// The node codec lives in internal/index; these tests hold it to its
// contract from the side that stores and maps its payloads, through the
// names the engine itself uses (Index.Encode, index.MakeFlatNode,
// index.DecodeNode) and the read-only accessors of Node and FlatNode.

// collectNodes walks the whole tree and returns every node, root first.
func collectNodes(t testing.TB, tree *Tree) []*index.Node {
	t.Helper()
	var nodes []*index.Node
	var walk func(id nodeID)
	walk = func(id nodeID) {
		n, err := tree.nodes().Get(id)
		if err != nil {
			t.Fatalf("Get(%d): %v", id, err)
		}
		nodes = append(nodes, n)
		for _, e := range n.Entries() {
			walk(e.Child)
		}
	}
	walk(tree.ix.Root())
	return nodes
}

// entriesOf lists a node's entries the way the encoding carries them: a
// directory's own, and for a data node one per record with the singleton
// MDS and the one-record aggregates synthesized from the row.
func entriesOf(n *index.Node) []index.Entry {
	if !n.Leaf() {
		return n.Entries()
	}
	out := make([]index.Entry, n.Count())
	for i := range out {
		out[i] = index.Entry{MDS: mds.FromLeaves(n.Row(i)), Agg: cube.AggOfRecord(n.RowMeasures(i))}
	}
	return out
}

// requireNodesEqual compares a decoded node against the original field by
// field.
func requireNodesEqual(t *testing.T, got, want *index.Node) {
	t.Helper()
	if got.ID() != want.ID() || got.Leaf() != want.Leaf() || got.Blocks() != want.Blocks() || got.Count() != want.Count() {
		t.Fatalf("node %d: shape (leaf=%v blocks=%d entries=%d) != (leaf=%v blocks=%d entries=%d)",
			want.ID(), got.Leaf(), got.Blocks(), got.Count(),
			want.Leaf(), want.Blocks(), want.Count())
	}
	if got.Leaf() {
		for i := 0; i < want.Count(); i++ {
			if !slices.Equal(got.Row(i), want.Row(i)) || !slices.Equal(got.RowMeasures(i), want.RowMeasures(i)) {
				t.Fatalf("node %d: row %d differs", want.ID(), i)
			}
		}
	}
	for i, we := range want.Entries() {
		ge := got.Entries()[i]
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

// grownNodes returns a 900-record tree and every node of it, root first.
// The last records repeat one point: records no split can separate grow
// supernodes, so the codec's multi-block case is among the nodes.
func grownNodes(t testing.TB) (tree *Tree, nodes []*index.Node) {
	t.Helper()
	tree = newTestTree(t, smallConfig())
	recs := genRecords(t, tree.Schema(), rand.New(rand.NewSource(7)), 900)
	for i, r := range recs {
		if i >= 800 {
			r = recs[800]
		}
		if err := tree.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	nodes = collectNodes(t, tree)
	if !slices.ContainsFunc(nodes, func(n *index.Node) bool { return n.Blocks() > 1 }) {
		t.Fatal("no supernode grew: the codec's multi-block case is not covered")
	}
	return tree, nodes
}

// TestFlatNodeRoundTrip: every node of a grown tree survives flat encode →
// flat view accessors → full heap decode unchanged, including supernodes.
func TestFlatNodeRoundTrip(t *testing.T) {
	tree, nodes := grownNodes(t)
	dims, measures := tree.schema.Dims(), tree.schema.Measures()
	for _, n := range nodes {
		buf := tree.ix.Encode(n)
		f, err := index.MakeFlatNode(n.ID(), buf, dims, measures)
		if err != nil {
			t.Fatalf("MakeFlatNode(%d): %v", n.ID(), err)
		}
		if err := f.CheckTable(); err != nil {
			t.Fatalf("CheckTable(%d): %v", n.ID(), err)
		}
		if f.Leaf() != n.Leaf() || f.Count() != n.Count() || f.Blocks() != n.Blocks() {
			t.Fatalf("node %d: flat shape (leaf=%v count=%d blocks=%d)", n.ID(), f.Leaf(), f.Count(), f.Blocks())
		}
		// Spot-check the in-place accessors against the heap entries.
		for i, e := range entriesOf(n) {
			wantMDS := e.MDS.AppendEncode(nil)
			if !bytes.Equal(f.EntryMDS(i), wantMDS) {
				t.Fatalf("node %d entry %d: flat MDS bytes differ", n.ID(), i)
			}
			for j := 0; j < measures; j++ {
				if f.Agg(i, j) != e.Agg[j] {
					t.Fatalf("node %d entry %d: agg(%d) = %+v, want %+v", n.ID(), i, j, f.Agg(i, j), e.Agg[j])
				}
			}
			if n.Leaf() {
				for d := 0; d < dims; d++ {
					if f.Coord(i, d) != n.Row(i)[d] {
						t.Fatalf("node %d entry %d: coord(%d) differs", n.ID(), i, d)
					}
				}
				for j := 0; j < measures; j++ {
					if f.Measure(i, j) != n.RowMeasures(i)[j] {
						t.Fatalf("node %d entry %d: measure(%d) differs", n.ID(), i, j)
					}
				}
			} else if f.Child(i) != e.Child {
				t.Fatalf("node %d entry %d: child differs", n.ID(), i)
			}
		}
		dec, err := index.DecodeNode(n.ID(), buf, dims, measures)
		if err != nil {
			t.Fatalf("DecodeNode(%d): %v", n.ID(), err)
		}
		requireNodesEqual(t, dec, n)
	}
}

// TestFlatNodeEmpty: the flat codec handles a zero-entry node (an empty
// tree's root data node).
func TestFlatNodeEmpty(t *testing.T) {
	tree := newTestTree(t, smallConfig())
	s := tree.Schema()
	n, err := tree.nodes().Get(tree.ix.Root())
	if err != nil {
		t.Fatal(err)
	}
	if n.Count() != 0 {
		t.Fatalf("fresh root has %d entries", n.Count())
	}
	dec, err := index.DecodeNode(n.ID(), tree.ix.Encode(n), s.Dims(), s.Measures())
	if err != nil {
		t.Fatal(err)
	}
	requireNodesEqual(t, dec, n)
}

// oneView serves a single flat node, whatever ID is asked for: the Source
// of a descent that must meet exactly this payload.
type oneView struct{ f index.FlatNode }

func (s oneView) View(nodeID) (index.NodeView, error) { return s.f.View(), nil }

// TestFlatNodeCorruptFailClosed: damaged flat encodings are never decoded,
// served or panicked on. A damaged frame is rejected by MakeFlatNode; a
// damaged offset table passes the constant-time frame check, is rejected by
// CheckTable (and so by the decoder), and on the read path surfaces as
// ErrCorrupt from the descent that meets the entry it garbles.
func TestFlatNodeCorruptFailClosed(t *testing.T) {
	tree := newTestTree(t, smallConfig())
	s := tree.Schema()
	rng := rand.New(rand.NewSource(17))
	for _, r := range genRecords(t, s, rng, 60) {
		if err := tree.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	dims, measures := s.Dims(), s.Measures()
	n, err := tree.nodes().Get(tree.ix.Root())
	if err != nil {
		t.Fatal(err)
	}
	good := tree.ix.Encode(n)
	if _, err := index.MakeFlatNode(n.ID(), good, dims, measures); err != nil {
		t.Fatalf("pristine encoding rejected: %v", err)
	}

	// The whole-cube query matches every entry it can parse without
	// descending, so the walk meets the damaged root and nothing else.
	whole := index.Query{MDS: mds.Top(dims)}
	mutate := func(name string, f func(b []byte) []byte) {
		b := f(append([]byte(nil), good...))
		if _, err := index.DecodeNode(n.ID(), b, dims, measures); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: corrupt encoding decoded: %v", name, err)
		}
		view, err := index.MakeFlatNode(n.ID(), b, dims, measures)
		if err != nil {
			return
		}
		if view.CheckTable() == nil {
			t.Errorf("%s: corrupt encoding passes the frame and the table check", name)
		}
		if _, err := tree.ix.Execute(context.Background(), oneView{view}, n.ID(), whole); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: the descent matched every entry of a corrupt encoding: %v", name, err)
		}
	}
	// The offset table starts behind the 20-byte header.
	const offsetTable = 20
	mutate("bad magic", func(b []byte) []byte { b[0] ^= 0xFF; return b })
	mutate("truncated", func(b []byte) []byte { return b[:len(b)/2] })
	mutate("hostile count", func(b []byte) []byte {
		b[8], b[9], b[10], b[11] = 0xFF, 0xFF, 0xFF, 0x7F
		return b
	})
	mutate("total length mismatch", func(b []byte) []byte { return append(b, 0) })
	mutate("non-monotone offsets", func(b []byte) []byte {
		// First offset-table slot (entry 0's MDS offset) bumped past the
		// second: the monotonicity check must catch it.
		b[offsetTable] = 0xEE
		return b
	})
	mutate("empty", func(b []byte) []byte { return nil })
	mutate("reserved byte set", func(b []byte) []byte { b[2] = 1; return b })
	mutate("unknown flag", func(b []byte) []byte { b[1] |= 0x80; return b })
	mutate("gap before first MDS", func(b []byte) []byte { b[offsetTable] = 1; return b })
}

// FuzzDecodeFlatNode drives the one node decoder with arbitrary payloads.
// MakeFlatNode (the frame check every zero-copy view passes) and
// DecodeNode agree on the frame: what the first rejects the second
// rejects, and the second rejects further only for a malformed offset table
// or MDS blob, which a view surfaces at pruning time, or for a data entry
// that does not describe its record. An accepted view can be walked end
// to end — every MDS, aggregate, child and record — without a panic, and an
// accepted payload is canonical up to varint width: it re-encodes to
// itself, or to a shorter payload that re-encodes to itself.
func FuzzDecodeFlatNode(f *testing.F) {
	tree, nodes := grownNodes(f)
	dims, measures := tree.schema.Dims(), tree.schema.Measures()
	var leaf, dir, super *index.Node
	for _, n := range nodes {
		switch {
		case n.Blocks() > 1:
			super = n
		case n.Leaf() && leaf == nil:
			leaf = n
		case !n.Leaf() && dir == nil:
			dir = n
		}
	}
	for _, n := range []*index.Node{leaf, dir, super} {
		f.Add(tree.ix.Encode(n))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		view, viewErr := index.MakeFlatNode(1, data, dims, measures)
		n, decErr := index.DecodeNode(1, data, dims, measures)
		if viewErr != nil {
			if decErr == nil {
				t.Fatalf("DecodeNode accepted what MakeFlatNode rejected: %v", viewErr)
			}
			return
		}
		for i := 0; i < view.Count(); i++ {
			if it, err := mds.NewViewIter(view.EntryMDS(i)); err == nil {
				for ok := true; ok; _, ok = it.Next() {
				}
			}
			for j := 0; j < measures; j++ {
				view.Agg(i, j)
			}
			if view.Leaf() {
				view.Record(i)
			} else {
				view.Child(i)
			}
		}
		if decErr != nil {
			if !errors.Is(decErr, ErrCorrupt) {
				t.Fatalf("DecodeNode error is not ErrCorrupt: %v", decErr)
			}
			return
		}
		re := tree.ix.Encode(n)
		if len(re) > len(data) || (len(re) == len(data) && !bytes.Equal(re, data)) {
			t.Fatalf("accepted payload (%d bytes) re-encodes differently (%d bytes)", len(data), len(re))
		}
		n2, err := index.DecodeNode(1, re, dims, measures)
		if err != nil {
			t.Fatalf("re-encoded payload rejected: %v", err)
		}
		if !bytes.Equal(tree.ix.Encode(n2), re) {
			t.Fatal("re-encoding is not a fixed point")
		}
	})
}

// TestFlatNodeMDSView: the flat entry MDS bytes decode through the view
// iterator to the same DimViews the full decoder produces.
func TestFlatNodeMDSView(t *testing.T) {
	tree := newTestTree(t, smallConfig())
	s := tree.Schema()
	rng := rand.New(rand.NewSource(19))
	for _, r := range genRecords(t, s, rng, 300) {
		if err := tree.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	dims, measures := s.Dims(), s.Measures()
	for _, n := range collectNodes(t, tree) {
		f, err := index.MakeFlatNode(n.ID(), tree.ix.Encode(n), dims, measures)
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range entriesOf(n) {
			it, err := mds.NewViewIter(f.EntryMDS(i))
			if err != nil {
				t.Fatalf("node %d entry %d: %v", n.ID(), i, err)
			}
			want := e.MDS
			if it.Dims() != len(want) {
				t.Fatalf("node %d entry %d: view dims %d != %d", n.ID(), i, it.Dims(), len(want))
			}
			for d := range want {
				dv, ok := it.Next()
				if !ok {
					t.Fatalf("node %d entry %d: view ended at dim %d", n.ID(), i, d)
				}
				got := mds.AllDim()
				if !dv.IsALL() {
					got = mds.DimSet{Level: dv.Level}
					for j := 0; j < dv.Len(); j++ {
						got.IDs = append(got.IDs, dv.ID(j))
					}
				}
				if !(mds.MDS{got}).Equal(mds.MDS{want[d]}) {
					t.Fatalf("node %d entry %d dim %d: view %v != %v", n.ID(), i, d, got, want[d])
				}
			}
		}
	}
}
