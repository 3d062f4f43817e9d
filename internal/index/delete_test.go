package index

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/dcindex/dctree/internal/cube"
	"github.com/dcindex/dctree/internal/mds"
	"github.com/dcindex/dctree/internal/tpcd"
)

// deletePath returns the nodes Delete will walk to remove rec, root first
// and the data node holding it last: deleteFrom's probe, in its order.
func deletePath(t *testing.T, ix *Index, rec cube.Record) []NodeID {
	t.Helper()
	rc, err := ix.recContext(rec)
	if err != nil {
		t.Fatal(err)
	}
	var path []NodeID
	var probe func(id NodeID) bool
	probe = func(id NodeID) bool {
		n, err := ix.store.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		path = append(path, id)
		if n.leaf {
			for i := 0; i < n.Count(); i++ {
				if row := n.Record(i); slices.Equal(row.Coords, rec.Coords) && slices.Equal(row.Measures, rec.Measures) {
					return true
				}
			}
		}
		for _, e := range dirEntries(n) {
			if rc.contains(e.MDS) && probe(e.Child) {
				return true
			}
		}
		path = path[:len(path)-1]
		return false
	}
	if !probe(ix.head.Root) {
		t.Fatalf("record %v is not in the tree", rec.Coords)
	}
	return path
}

// TestDeleteRepairMatchesCover holds the incremental delete repair to the
// exact rebuild it replaced. Random insert/delete streams run on blocks
// whose payload holds data nodes of 4 rows to 169 at the stream's widest
// codes (payloadOfRows), on dynamically built and bulk-loaded trees; after
// every delete, each entry left on the delete path must equal
// mds.CoverInto of its child at the entry's levels and carry the child's
// aggregate as Node.aggregate folds it, and the root MDS must equal the
// cover of the root's entries, all bit for bit. Both the incremental path
// and the fallback must have been taken. The default 4 KiB block runs
// beside them: its aggregate repair is over the most rows, and a delete can
// narrow its codes.
func TestDeleteRepairMatchesCover(t *testing.T) {
	const load, steps = 3000, 3000
	gen, err := tpcd.New(5, tpcd.ScaleFor(load))
	if err != nil {
		t.Fatal(err)
	}
	pool := gen.Records(load + steps)
	var repairs, fallbacks int64
	for _, rows := range []int{4, 12, 48, 169, 0} {
		name := fmt.Sprintf("leaf-%d", rows)
		if rows == 0 {
			name = "block-filled"
		}
		for _, bulk := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/bulk=%v", name, bulk), func(t *testing.T) {
				payload := testBlockPayload
				if rows > 0 {
					payload = payloadOfRows(gen.Schema(), pool, rows)
				}
				ix, nodes := newBareIndexAt(t, gen.Schema(), DefaultConfig(), payload)
				live := slices.Clone(pool[:load])
				if bulk {
					if err := ix.BulkLoad(live); err != nil {
						t.Fatal(err)
					}
				} else {
					for _, r := range live {
						if err := ix.Insert(r); err != nil {
							t.Fatal(err)
						}
					}
				}
				var buf mds.CoverBuf
				check := func(what string, got mds.MDS, levels []int, n *Node) {
					t.Helper()
					want, err := mds.CoverInto(&buf, ix.space(), levels, ix.ws.entryMDSs(n))
					if err != nil {
						t.Fatal(err)
					}
					if !got.Equal(want) {
						t.Fatalf("%s: repaired %v, exact cover %v", what, got, want)
					}
					repairs++
				}
				rng := rand.New(rand.NewSource(int64(rows)))
				fresh := pool[load:]
				for step := 0; step < steps; step++ {
					if rng.Intn(4) == 0 {
						if err := ix.Insert(fresh[0]); err != nil {
							t.Fatal(err)
						}
						live, fresh = append(live, fresh[0]), fresh[1:]
						continue
					}
					k := rng.Intn(len(live))
					rec := live[k]
					live[k] = live[len(live)-1]
					live = live[:len(live)-1]
					path := deletePath(t, ix, rec)
					if err := ix.Delete(rec); err != nil {
						t.Fatalf("step %d: Delete: %v", step, err)
					}
					for i, id := range path[:len(path)-1] {
						n := nodes.nodes[id]
						if n == nil {
							continue // the collapsed root
						}
						for j, e := range dirEntries(n) {
							if e.Child == path[i+1] {
								what, child := fmt.Sprintf("step %d node %d entry %d", step, id, j), nodes.nodes[e.Child]
								check(what, e.MDS, ix.ws.levelsOf(e.MDS), child)
								if want := child.aggregate(cube.NewAggVector(child.nm)); !e.Agg.Equal(want) {
									t.Fatalf("%s: refolded aggregate %v, child's %v", what, e.Agg, want)
								}
							}
						}
					}
					if root := nodes.nodes[ix.head.Root]; root.Count() > 0 {
						check(fmt.Sprintf("step %d root", step), ix.head.RootMDS, nil, root)
					} else if !ix.head.RootMDS.Equal(mds.Top(ix.schema.Dims())) {
						t.Fatalf("step %d: empty tree, root MDS %v", step, ix.head.RootMDS)
					}
				}
				if err := validate(ix); err != nil {
					t.Fatal(err)
				}
				fallbacks += ix.Counters().DeleteRepairFallbacks
			})
		}
	}
	t.Logf("%d repairs checked, %d rebuilt by CoverInto", repairs, fallbacks)
	if fallbacks == 0 || fallbacks == repairs {
		t.Fatalf("%d of %d repairs fell back: both paths must be taken", fallbacks, repairs)
	}
}

// TestDeleteRepairAggregatesNaN holds the aggregate repair on the delete
// path to Node.aggregate's refold, bit for bit, where the aggregates an
// insert keeps are not that refold: measures drawn from few values, signed
// zeros and NaNs (whose records cannot be found, so stay), on nodes of a
// few dozen rows and few entries. An insert merges its record into each entry on its
// path in arrival order, and with a NaN or a zero of either sign among the
// values that fold can keep another zero, or another number, than the fold
// over the child's entries; a delete's repair must leave the latter, as
// a refold did. After every delete each entry on the path must carry
// its child's aggregate. Validate is not run: it compares aggregates with
// ==, which no NaN passes.
func TestDeleteRepairAggregatesNaN(t *testing.T) {
	nz, nan := math.Copysign(0, -1), math.NaN()
	values := []float64{nan, nz, 0, 1, 2, 3, 5, 8}
	ix, nodes := newBareIndexAt(t, testSchema(t), smallConfig(), payload512)
	rng := rand.New(rand.NewSource(46))
	recs := genRecords(t, ix.schema, rng, 4000)
	var live []cube.Record
	for _, r := range recs {
		r.Measures[0] = values[rng.Intn(len(values))]
		if err := ix.Insert(r); err != nil {
			t.Fatal(err)
		}
		if r.Measures[0] == r.Measures[0] {
			live = append(live, r)
		}
	}
	sameBits := func(a, b cube.AggVector) bool {
		for j := range a {
			x, y := a[j], b[j]
			if x.Count != y.Count || math.Float64bits(x.Sum) != math.Float64bits(y.Sum) ||
				math.Float64bits(x.Min) != math.Float64bits(y.Min) || math.Float64bits(x.Max) != math.Float64bits(y.Max) {
				return false
			}
		}
		return true
	}
	nanMins := 0
	for step := 0; len(live) > 200; step++ {
		k := rng.Intn(len(live))
		rec := live[k]
		live[k] = live[len(live)-1]
		live = live[:len(live)-1]
		path := deletePath(t, ix, rec)
		if err := ix.Delete(rec); err != nil {
			t.Fatalf("step %d: Delete: %v", step, err)
		}
		for i, id := range path[:len(path)-1] {
			n := nodes.nodes[id]
			if n == nil {
				continue // the collapsed root
			}
			for j, e := range dirEntries(n) {
				if e.Child == path[i+1] {
					want := nodes.nodes[e.Child].aggregate(cube.NewAggVector(ix.schema.Measures()))
					if !sameBits(e.Agg, want) {
						t.Fatalf("step %d node %d entry %d: repaired %+v, refolded %+v", step, id, j, e.Agg, want)
					}
					if e.Agg[0].Min != e.Agg[0].Min {
						nanMins++
					}
				}
			}
		}
	}
	if nanMins == 0 {
		t.Fatal("no entry on a delete path held a NaN min: the stream tests nothing")
	}
}

// TestDeleteAllocations holds the delete path to zero allocations per
// delete: on a warm tree, removing a present record that empties no node
// edits every node on its path in place, probes each directory through its
// postings into the scratch's mask for that depth, refolds each entry's
// aggregate into the entry's own vector and repairs each MDS in the write
// scratch. The trees are a packed TPC-D tree and one grown under
// supernodeConfig, whose supernodes pass 64 entries, so that the probe's
// masks have several words.
func TestDeleteAllocations(t *testing.T) {
	t.Run("tpcd-packed", func(t *testing.T) {
		const records = 15000
		gen, err := tpcd.New(1, tpcd.ScaleFor(records))
		if err != nil {
			t.Fatal(err)
		}
		ix, nodes := newBareIndex(t, gen.Schema(), DefaultConfig())
		recs := gen.Records(records)
		if err := ix.BulkLoad(recs); err != nil {
			t.Fatal(err)
		}
		checkDeleteAllocations(t, ix, nodes, recs)
	})
	t.Run("supernodes", func(t *testing.T) {
		ix, nodes := newBareIndexAt(t, testSchema(t), supernodeConfig(), payload1K)
		recs := genRecords(t, ix.schema, rand.New(rand.NewSource(42)), 4000)
		for _, r := range recs {
			if err := ix.Insert(r); err != nil {
				t.Fatal(err)
			}
		}
		widest := 0
		for _, n := range collectNodes(t, ix) {
			widest = max(widest, len(dirEntries(n)))
		}
		if widest <= 64 {
			t.Fatalf("the widest directory holds %d entries: no mask has a second word", widest)
		}
		checkDeleteAllocations(t, ix, nodes, recs)
	})
}

// checkDeleteAllocations deletes every 12th of recs, the first 100 to warm
// the write scratch's buffers, and fails unless the rest allocate nothing
// and no node was emptied.
func checkDeleteAllocations(t *testing.T, ix *Index, nodes *memNodes, recs []cube.Record) {
	t.Helper()
	var expire []cube.Record
	for i := 0; i < len(recs); i += 12 {
		expire = append(expire, recs[i])
	}
	const warm = 100
	for _, r := range expire[:warm] {
		if err := ix.Delete(r); err != nil {
			t.Fatal(err)
		}
	}
	before, next := len(nodes.nodes), warm
	allocs := testing.AllocsPerRun(len(expire)-warm-1, func() {
		if err := ix.Delete(expire[next]); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if len(nodes.nodes) != before {
		t.Fatalf("the deletes emptied %d nodes; the test needs them all kept", before-len(nodes.nodes))
	}
	if allocs != 0 {
		t.Errorf("%.2f allocations per delete, want 0", allocs)
	}
	if err := validate(ix); err != nil {
		t.Fatal(err)
	}
}

// TestDeleteMatchesMeasuresAsFloats pins a delete's row match to == on the
// measures: a record holding a NaN is never found, though a row of its bits
// is there, and a record of +0 finds the row of −0 with its coordinates,
// whose bits differ. A match on the rows' bytes would do the opposite of
// both.
func TestDeleteMatchesMeasuresAsFloats(t *testing.T) {
	ix := newTestIndex(t, DefaultConfig())
	recs := genRecords(t, ix.schema, rand.New(rand.NewSource(83)), 2)
	negZero, nan := recs[0], recs[1]
	negZero.Measures[0], nan.Measures[0] = math.Copysign(0, -1), math.NaN()
	for _, r := range []cube.Record{negZero, nan} {
		if err := ix.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Delete(nan); !errors.Is(err, ErrNotFound) {
		t.Fatalf("delete of the NaN record: %v, want ErrNotFound", err)
	}
	posZero := cube.Record{Coords: negZero.Coords, Measures: []float64{0}}
	if err := ix.Delete(posZero); err != nil {
		t.Fatalf("delete of +0 over a row of −0: %v", err)
	}
	var left []cube.Record
	if err := ix.Scan(ix.store.(*memNodes), ix.head.Root, func(rec cube.Record) bool {
		left = append(left, rec)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(left) != 1 || !slices.Equal(left[0].Coords, nan.Coords) || !math.IsNaN(left[0].Measures[0]) {
		t.Fatalf("left %v, want the NaN record alone", left)
	}
	if err := validate(ix); err != nil {
		t.Fatal(err)
	}
}
