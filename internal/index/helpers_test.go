package index

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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

// flatOf frames a copy of n's flat encoding as node id, unchecked.
func flatOf(id NodeID, n *Node, dims, measures int) FlatNode {
	var f FlatNode
	f.FrameTrusted(id, slices.Clone(n.flat.b), dims, measures)
	return f
}

// testBlockPayload is the one-block payload core.New hands the index: that
// of a one-block extent of the default 4 KiB block
// (storage.ExtentCapacity(4096, 1), which this package cannot import).
const testBlockPayload = 4096 - 12

// payload512 and payload1K are the one-block payloads of 512-byte and 1 KiB
// blocks (storage.ExtentCapacity): directories of a handful of entries, of
// the test schema and of TPC-D, so that small trees split directories too.
const payload512, payload1K = 512 - 12, 1024 - 12

// newBareIndex creates an empty index over a fresh memNodes, on blocks of
// the default size as core.New does.
func newBareIndex(t testing.TB, schema *cube.Schema, cfg Config) (*Index, *memNodes) {
	t.Helper()
	return newBareIndexAt(t, schema, cfg, testBlockPayload)
}

// newBareIndexAt is newBareIndex on blocks of the given one-block payload.
func newBareIndexAt(t testing.TB, schema *cube.Schema, cfg Config, payload int) (*Index, *memNodes) {
	t.Helper()
	if err := cfg.Normalize(); err != nil {
		t.Fatal(err)
	}
	s := &memNodes{nodes: map[NodeID]*Node{}, dims: schema.Dims(), nm: schema.Measures()}
	s.ix = New(schema, cfg, s, payload)
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

// smallConfig caps supernodes at 8 blocks. On blocks of payload512 it
// forces frequent splits, so even small tests exercise the full machinery:
// data nodes of some 35 test rows, directories of a few entries.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.MaxSupernodeBlocks = 8
	return cfg
}

// payloadOfRows is the one-block payload that holds a data node of the
// given rows at the widest codes of recs: how a test sizes its data nodes
// by rows.
func payloadOfRows(schema *cube.Schema, recs []cube.Record, rows int) int {
	stride := 8 * schema.Measures()
	for d := range schema.Dims() {
		top := uint32(0)
		for _, r := range recs {
			top = max(top, r.Coords[d].Code())
		}
		stride += codeWidth(top)
	}
	return leafSize(schema.Dims(), rows, stride)
}

// newTestIndex is a bare index over the test schema.
func newTestIndex(t testing.TB, cfg Config) *Index {
	t.Helper()
	ix, _ := newBareIndex(t, testSchema(t), cfg)
	return ix
}

// entry is a directory entry as a test reads it: the MDS, aggregates and
// child decoded from the node's bytes.
type entry struct {
	MDS   mds.MDS
	Agg   cube.AggVector
	Child NodeID
}

// dirEntries decodes a directory's entries from its bytes; a data node has
// none.
func dirEntries(n *Node) []entry {
	if n.leaf {
		return nil
	}
	f := &n.flat
	out := make([]entry, f.count)
	for i := range out {
		m, _, err := mds.Decode(f.EntryMDS(i))
		if err != nil {
			panic(err)
		}
		out[i] = entry{MDS: m, Agg: cube.NewAggVector(n.nm), Child: f.Child(i)}
		for j := range out[i].Agg {
			out[i].Agg[j] = f.Agg(i, j)
		}
	}
	return out
}

// entriesOf lists a node's entries the way the encoding carries them: a
// directory's own, and for a data node one per record with the singleton
// MDS and the one-record aggregates synthesized from the row.
func entriesOf(n *Node) []entry {
	if !n.leaf {
		return dirEntries(n)
	}
	out := make([]entry, n.Count())
	for i := range out {
		rec := n.Record(i)
		out[i] = entry{MDS: mds.FromLeaves(rec.Coords), Agg: cube.AggOfRecord(rec.Measures)}
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
		for i := 0; !n.leaf && i < n.Count(); i++ {
			walk(n.flat.Child(i))
		}
	}
	walk(ix.head.Root)
	return nodes
}

// leafKernels names the leaf kernels this host runs: "avx2" where the CPU
// supports it, and always "go".
func leafKernels() []string {
	if avx2Supported {
		return []string{"avx2", "go"}
	}
	return []string{"go"}
}

// useLeafKernel switches the leaf kernel to the named one until the test
// or benchmark ends.
func useLeafKernel(tb testing.TB, kernel string) {
	tb.Helper()
	if kernel == "avx2" && !avx2Supported {
		tb.Skip("this CPU does not run the AVX2 leaf kernel")
	}
	was := leafAVX2
	tb.Cleanup(func() { leafAVX2 = was })
	leafAVX2 = kernel == "avx2"
}

// forEachLeafKernel runs f as a subtest under each leaf kernel this host
// runs, named after it.
func forEachLeafKernel(t *testing.T, f func(t *testing.T)) {
	for _, kernel := range leafKernels() {
		t.Run(kernel, func(t *testing.T) {
			useLeafKernel(t, kernel)
			f(t)
		})
	}
}
