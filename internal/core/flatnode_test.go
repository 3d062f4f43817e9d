package core

import (
	"bytes"
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

// entriesOf lists a node's entries the way the write path sees them: a
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
// flat view accessors → full heap decode unchanged, including supernodes. A
// directory's view serves its entries' MDSs, aggregates and children; a data
// node's serves its rows.
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
		// Spot-check the in-place accessors against the heap form.
		for i := 0; n.Leaf() && i < n.Count(); i++ {
			for d := 0; d < dims; d++ {
				if f.Coord(i, d) != n.Row(i)[d] {
					t.Fatalf("node %d record %d: coord(%d) differs", n.ID(), i, d)
				}
			}
			for j := 0; j < measures; j++ {
				if f.Measure(i, j) != n.RowMeasures(i)[j] {
					t.Fatalf("node %d record %d: measure(%d) differs", n.ID(), i, j)
				}
			}
		}
		for i, e := range n.Entries() {
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

// TestFlatNodeMDSView: a directory's flat entry MDS bytes decode through
// the view iterator to the same DimViews the full decoder produces; a data
// node's view holds no MDS, only the records a scan returns.
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
		for i := 0; n.Leaf() && i < n.Count(); i++ {
			for d, c := range n.Row(i) {
				if f.Coord(i, d) != c {
					t.Fatalf("node %d record %d: view coordinate %d is %v, want %v", n.ID(), i, d, f.Coord(i, d), c)
				}
			}
			for j, x := range n.RowMeasures(i) {
				if f.Measure(i, j) != x {
					t.Fatalf("node %d record %d: view measure %d is %v, want %v", n.ID(), i, j, f.Measure(i, j), x)
				}
			}
		}
		for i, e := range n.Entries() {
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
