package core

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"github.com/dcindex/dctree/internal/cube"
	"github.com/dcindex/dctree/internal/mds"
)

// collectNodes walks the whole tree and returns every node, root first.
func collectNodes(t testing.TB, tree *Tree) []*node {
	t.Helper()
	var nodes []*node
	var walk func(id nodeID)
	walk = func(id nodeID) {
		n, err := tree.getNode(id)
		if err != nil {
			t.Fatalf("getNode(%d): %v", id, err)
		}
		nodes = append(nodes, n)
		if n.leaf {
			return
		}
		for i := range n.entries {
			walk(n.entries[i].Child)
		}
	}
	walk(tree.root)
	return nodes
}

// entriesOf lists a node's entries the way the encoding carries them: a
// directory's own, and for a data node one per record with the singleton
// MDS and the one-record aggregates synthesized from the row.
func entriesOf(n *node) []entry {
	if !n.leaf {
		return n.entries
	}
	out := make([]entry, n.count())
	for i := range out {
		out[i] = entry{MDS: mds.FromLeaves(n.row(i)), Agg: cube.AggOfRecord(n.rowMeasures(i))}
	}
	return out
}

// requireNodesEqual compares a decoded node against the original field by
// field.
func requireNodesEqual(t *testing.T, got, want *node) {
	t.Helper()
	if got.id != want.id || got.leaf != want.leaf || got.blocks != want.blocks ||
		got.count() != want.count() || got.dims != want.dims || got.nm != want.nm {
		t.Fatalf("node %d: shape (leaf=%v blocks=%d entries=%d) != (leaf=%v blocks=%d entries=%d)",
			want.id, got.leaf, got.blocks, got.count(),
			want.leaf, want.blocks, want.count())
	}
	if !slices.Equal(got.coords, want.coords) || !slices.Equal(got.measures, want.measures) {
		t.Fatalf("node %d: rows differ", want.id)
	}
	for i := range want.entries {
		ge, we := &got.entries[i], &want.entries[i]
		if !ge.MDS.Equal(we.MDS) {
			t.Fatalf("node %d entry %d: MDS %v != %v", want.id, i, ge.MDS, we.MDS)
		}
		if len(ge.Agg) != len(we.Agg) {
			t.Fatalf("node %d entry %d: agg len %d != %d", want.id, i, len(ge.Agg), len(we.Agg))
		}
		for j := range we.Agg {
			if ge.Agg[j] != we.Agg[j] {
				t.Fatalf("node %d entry %d measure %d: agg %+v != %+v", want.id, i, j, ge.Agg[j], we.Agg[j])
			}
		}
		if ge.Child != we.Child {
			t.Fatalf("node %d entry %d: child %d != %d", want.id, i, ge.Child, we.Child)
		}
	}
}

// grownNodes returns every node of a 900-record tree, root first, plus a
// synthetic supernode at the end: splits don't reliably produce supernodes
// under this workload, so one is built as a multi-block directory node
// holding every directory entry of the tree. The codec only depends on the
// node's own fields.
func grownNodes(t testing.TB) (nodes []*node, dims, measures int) {
	t.Helper()
	tree := newTestTree(t, smallConfig())
	s := tree.Schema()
	rng := rand.New(rand.NewSource(7))
	for _, r := range genRecords(t, s, rng, 900) {
		if err := tree.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	nodes = collectNodes(t, tree)
	super := &node{id: 999999, blocks: 4, dims: s.Dims(), nm: s.Measures()}
	for _, n := range nodes {
		if !n.leaf {
			super.entries = append(super.entries, n.entries...)
		}
	}
	if len(super.entries) < smallConfig().DirCapacity*2 {
		t.Fatalf("synthetic supernode too small: %d entries", len(super.entries))
	}
	return append(nodes, super), s.Dims(), s.Measures()
}

// TestFlatNodeRoundTrip: every node of a grown tree survives flat encode →
// flat view accessors → full heap decode unchanged, including supernodes.
func TestFlatNodeRoundTrip(t *testing.T) {
	nodes, dims, measures := grownNodes(t)
	for _, n := range nodes {
		buf := n.appendEncodeFlat(nil, dims, measures)
		f, err := makeFlatNode(n.id, buf, dims, measures)
		if err != nil {
			t.Fatalf("makeFlatNode(%d): %v", n.id, err)
		}
		if err := f.checkTable(); err != nil {
			t.Fatalf("checkTable(%d): %v", n.id, err)
		}
		if f.leaf != n.leaf || f.count != n.count() || f.blocks != n.blocks {
			t.Fatalf("node %d: flat shape (leaf=%v count=%d blocks=%d)", n.id, f.leaf, f.count, f.blocks)
		}
		// Spot-check the in-place accessors against the heap entries.
		for i, e := range entriesOf(n) {
			wantMDS := e.MDS.AppendEncode(nil)
			if !bytes.Equal(f.entryMDS(i), wantMDS) {
				t.Fatalf("node %d entry %d: flat MDS bytes differ", n.id, i)
			}
			for j := 0; j < measures; j++ {
				if f.agg(i, j) != e.Agg[j] {
					t.Fatalf("node %d entry %d: agg(%d) = %+v, want %+v", n.id, i, j, f.agg(i, j), e.Agg[j])
				}
			}
			if n.leaf {
				for d := 0; d < dims; d++ {
					if f.coord(i, d) != n.row(i)[d] {
						t.Fatalf("node %d entry %d: coord(%d) differs", n.id, i, d)
					}
				}
				for j := 0; j < measures; j++ {
					if f.measure(i, j) != n.rowMeasures(i)[j] {
						t.Fatalf("node %d entry %d: measure(%d) differs", n.id, i, j)
					}
				}
			} else if f.child(i) != e.Child {
				t.Fatalf("node %d entry %d: child differs", n.id, i)
			}
		}
		dec, err := decodeFlatNode(n.id, buf, dims, measures)
		if err != nil {
			t.Fatalf("decodeFlatNode(%d): %v", n.id, err)
		}
		requireNodesEqual(t, dec, n)
	}
}

// TestFlatNodeEmpty: the flat codec handles a zero-entry node (an empty
// tree's root data node).
func TestFlatNodeEmpty(t *testing.T) {
	tree := newTestTree(t, smallConfig())
	s := tree.Schema()
	n, err := tree.getNode(tree.root)
	if err != nil {
		t.Fatal(err)
	}
	if n.count() != 0 {
		t.Fatalf("fresh root has %d entries", n.count())
	}
	buf := n.appendEncodeFlat(nil, s.Dims(), s.Measures())
	dec, err := decodeFlatNode(n.id, buf, s.Dims(), s.Measures())
	if err != nil {
		t.Fatal(err)
	}
	requireNodesEqual(t, dec, n)
}

// TestFlatNodeCorruptFailClosed: damaged flat encodings are never decoded,
// served or panicked on. A damaged frame is rejected by makeFlatNode; a
// damaged offset table passes the constant-time frame check, is rejected by
// checkTable (and so by the decoder), and on the read path surfaces as
// ErrCorrupt from the entry it garbles.
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
	n, err := tree.getNode(tree.root)
	if err != nil {
		t.Fatal(err)
	}
	good := n.appendEncodeFlat(nil, dims, measures)
	if _, err := makeFlatNode(n.id, good, dims, measures); err != nil {
		t.Fatalf("pristine encoding rejected: %v", err)
	}

	qc, err := tree.newQueryCtx(mds.Top(dims))
	if err != nil {
		t.Fatal(err)
	}
	defer tree.putQueryCtx(qc)
	mutate := func(name string, f func(b []byte) []byte) {
		b := f(append([]byte(nil), good...))
		if _, err := decodeFlatNode(n.id, b, dims, measures); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: corrupt encoding decoded: %v", name, err)
		}
		view, err := makeFlatNode(n.id, b, dims, measures)
		if err != nil {
			return
		}
		if view.checkTable() == nil {
			t.Errorf("%s: corrupt encoding passes the frame and the table check", name)
		}
		sawCorrupt := false
		for i := 0; i < view.count; i++ {
			if _, _, err := qc.matchEntryFlat(&view, i); errors.Is(err, ErrCorrupt) {
				sawCorrupt = true
			}
		}
		if !sawCorrupt {
			t.Errorf("%s: the descent matched every entry of a corrupt encoding", name)
		}
	}
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
		b[flatHeaderSize] = 0xEE
		return b
	})
	mutate("empty", func(b []byte) []byte { return nil })
	mutate("reserved byte set", func(b []byte) []byte { b[2] = 1; return b })
	mutate("unknown flag", func(b []byte) []byte { b[1] |= 0x80; return b })
	mutate("gap before first MDS", func(b []byte) []byte { b[flatHeaderSize] = 1; return b })
}

// FuzzDecodeFlatNode drives the one node decoder with arbitrary payloads.
// makeFlatNode (the frame check every zero-copy view passes) and
// decodeFlatNode agree on the frame: what the first rejects the second
// rejects, and the second rejects further only for a malformed offset table
// or MDS blob, which a view surfaces at pruning time, or for a data entry
// that does not describe its record. An accepted view can be walked end
// to end — every MDS, aggregate, child and record — without a panic, and an
// accepted payload is canonical up to varint width: it re-encodes to
// itself, or to a shorter payload that re-encodes to itself.
func FuzzDecodeFlatNode(f *testing.F) {
	nodes, dims, measures := grownNodes(f)
	var leaf, dir *node
	for _, n := range nodes[:len(nodes)-1] {
		if n.leaf && leaf == nil {
			leaf = n
		}
		if !n.leaf && dir == nil {
			dir = n
		}
	}
	for _, n := range []*node{leaf, dir, nodes[len(nodes)-1]} {
		f.Add(n.appendEncodeFlat(nil, dims, measures))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		view, viewErr := makeFlatNode(1, data, dims, measures)
		n, decErr := decodeFlatNode(1, data, dims, measures)
		if viewErr != nil {
			if decErr == nil {
				t.Fatalf("decodeFlatNode accepted what makeFlatNode rejected: %v", viewErr)
			}
			return
		}
		for i := 0; i < view.count; i++ {
			if it, err := mds.NewViewIter(view.entryMDS(i)); err == nil {
				for ok := true; ok; _, ok = it.Next() {
				}
			}
			for j := 0; j < measures; j++ {
				view.agg(i, j)
			}
			if view.leaf {
				view.record(i)
			} else {
				view.child(i)
			}
		}
		if decErr != nil {
			if !errors.Is(decErr, ErrCorrupt) {
				t.Fatalf("decodeFlatNode error is not ErrCorrupt: %v", decErr)
			}
			return
		}
		re := n.appendEncodeFlat(nil, dims, measures)
		if len(re) > len(data) || (len(re) == len(data) && !bytes.Equal(re, data)) {
			t.Fatalf("accepted payload (%d bytes) re-encodes differently (%d bytes)", len(data), len(re))
		}
		n2, err := decodeFlatNode(1, re, dims, measures)
		if err != nil {
			t.Fatalf("re-encoded payload rejected: %v", err)
		}
		if !bytes.Equal(n2.appendEncodeFlat(nil, dims, measures), re) {
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
		buf := n.appendEncodeFlat(nil, dims, measures)
		f, err := makeFlatNode(n.id, buf, dims, measures)
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range entriesOf(n) {
			it, err := mds.NewViewIter(f.entryMDS(i))
			if err != nil {
				t.Fatalf("node %d entry %d: %v", n.id, i, err)
			}
			want := e.MDS
			if it.Dims() != len(want) {
				t.Fatalf("node %d entry %d: view dims %d != %d", n.id, i, it.Dims(), len(want))
			}
			for d := range want {
				dv, ok := it.Next()
				if !ok {
					t.Fatalf("node %d entry %d: view ended at dim %d", n.id, i, d)
				}
				got := mds.AllDim()
				if !dv.IsALL() {
					got = mds.DimSet{Level: dv.Level}
					for j := 0; j < dv.Len(); j++ {
						got.IDs = append(got.IDs, dv.ID(j))
					}
				}
				if !(mds.MDS{got}).Equal(mds.MDS{want[d]}) {
					t.Fatalf("node %d entry %d dim %d: view %v != %v", n.id, i, d, got, want[d])
				}
			}
		}
	}
}
