package index

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/dcindex/dctree/internal/cube"
	"github.com/dcindex/dctree/internal/hierarchy"
	"github.com/dcindex/dctree/internal/mds"
)

// memNodes is all the host a bare index needs: heap nodes in a map, IDs
// from a counter. It is the write-side Store and, over the same nodes, the
// read-side Source. No block store, no lock, no log. A test that sets
// touched learns the nodes each mutation minted or marked dirty.
type memNodes struct {
	ix       *Index
	nodes    map[NodeID]*Node
	next     NodeID
	dims, nm int
	touched  map[NodeID]bool
}

func (s *memNodes) Get(id NodeID) (*Node, error) {
	if n := s.nodes[id]; n != nil {
		return n, nil
	}
	return nil, fmt.Errorf("%w: no node %d", ErrCorrupt, id)
}

func (s *memNodes) New(leaf bool) *Node {
	s.next++
	n := NewNode(s.next, leaf, s.dims, s.nm)
	s.nodes[n.id] = n
	s.MarkDirty(n.id)
	return n
}

func (s *memNodes) MarkDirty(id NodeID) {
	if s.touched != nil {
		s.touched[id] = true
	}
}

func (s *memNodes) Drop(id NodeID) error {
	delete(s.nodes, id)
	return nil
}

func (s *memNodes) View(id NodeID, nv *NodeView) error {
	n, err := s.Get(id)
	if err != nil {
		return err
	}
	s.ix.HeapView(n, nv)
	return nil
}

// validate and levelStats run the whole-tree walks over the index's live
// state: its head, read through the memNodes that hold its nodes.
func validate(ix *Index) error { return ix.Validate(ix.store.(*memNodes), ix.Head()) }

func levelStats(ix *Index) ([]LevelStat, error) {
	return ix.LevelStats(ix.store.(*memNodes), ix.Head())
}

// flatOf frames n's flat encoding as node id, unchecked.
func flatOf(id NodeID, n *Node, dims, measures int) FlatNode {
	var f FlatNode
	f.trust(id, n.appendEncodeFlat(nil, dims, measures), dims, measures)
	return f
}

// testBlockPayload is the one-block payload core.New hands the index: that
// of a one-block extent of the default 4 KiB block
// (storage.ExtentCapacity(4096, 1), which this package cannot import).
const testBlockPayload = 4096 - 12

// newBareIndex creates an empty index over a fresh memNodes, on blocks of
// the default size as core.New does.
func newBareIndex(t testing.TB, schema *cube.Schema, cfg Config) (*Index, *memNodes) {
	t.Helper()
	if err := cfg.Normalize(); err != nil {
		t.Fatal(err)
	}
	s := &memNodes{nodes: map[NodeID]*Node{}, dims: schema.Dims(), nm: schema.Measures()}
	s.ix = New(schema, cfg, s, testBlockPayload)
	return s.ix, s
}

// testSchema builds a small TPC-D-like cube: Customer (Region>Nation>Cust),
// Part (Brand>Part), Time (Year>Month) with one measure.
func testSchema(t testing.TB) *cube.Schema {
	t.Helper()
	cust := hierarchy.MustNew("Customer", "Customer", "Nation", "Region")
	part := hierarchy.MustNew("Part", "Part", "Brand")
	tim := hierarchy.MustNew("Time", "Month", "Year")
	return cube.MustNewSchema([]*hierarchy.Hierarchy{cust, part, tim}, "Price")
}

// genRecords interns n random records into the schema.
func genRecords(t testing.TB, s *cube.Schema, rng *rand.Rand, n int) []cube.Record {
	t.Helper()
	recs := make([]cube.Record, n)
	for i := range recs {
		r, err := s.InternRecord([][]string{
			{fmt.Sprintf("R%d", rng.Intn(4)), fmt.Sprintf("N%d", rng.Intn(12)), fmt.Sprintf("C%d", rng.Intn(300))},
			{fmt.Sprintf("B%d", rng.Intn(8)), fmt.Sprintf("P%d", rng.Intn(200))},
			{fmt.Sprintf("Y%d", rng.Intn(5)), fmt.Sprintf("M%d", rng.Intn(60))},
		}, []float64{math.Round(rng.Float64()*10000) / 100})
		if err != nil {
			t.Fatalf("InternRecord: %v", err)
		}
		recs[i] = r
	}
	return recs
}

// smallConfig forces frequent splits so even small tests exercise the full
// machinery.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.DirCapacity = 6
	cfg.LeafCapacity = 8
	cfg.MaxSupernodeBlocks = 8
	return cfg
}

// newTestIndex is a bare index over the test schema.
func newTestIndex(t testing.TB, cfg Config) *Index {
	t.Helper()
	ix, _ := newBareIndex(t, testSchema(t), cfg)
	return ix
}

// entriesOf lists a node's entries the way the encoding carries them: a
// directory's own, and for a data node one per record with the singleton
// MDS and the one-record aggregates synthesized from the row.
func entriesOf(n *Node) []Entry {
	if !n.leaf {
		return n.entries
	}
	out := make([]Entry, n.Count())
	for i := range out {
		out[i] = Entry{MDS: mds.FromLeaves(n.Row(i)), Agg: cube.AggOfRecord(n.RowMeasures(i))}
	}
	return out
}

// collectNodes walks the whole tree and returns every node, root first.
func collectNodes(t testing.TB, ix *Index) []*Node {
	t.Helper()
	var nodes []*Node
	var walk func(id NodeID)
	walk = func(id NodeID) {
		n, err := ix.store.Get(id)
		if err != nil {
			t.Fatalf("Get(%d): %v", id, err)
		}
		nodes = append(nodes, n)
		for i := range n.entries {
			walk(n.entries[i].Child)
		}
	}
	walk(ix.head.Root)
	return nodes
}
