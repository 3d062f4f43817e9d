package index

import (
	"fmt"
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
				if slices.Equal(n.Row(i), rec.Coords) && slices.Equal(n.RowMeasures(i), rec.Measures) {
					return true
				}
			}
		}
		for i := range n.entries {
			if rc.contains(n.entries[i].MDS) && probe(n.entries[i].Child) {
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
// exact rebuild it replaced. Random insert/delete streams run at data-node
// capacities from 4 rows to 169, on dynamically built and
// bulk-loaded trees; after every delete, each entry left on the delete path
// must equal mds.CoverInto of its child at the entry's levels and carry
// the child's aggregate as Node.aggregate folds it, and the root MDS must
// equal the cover of the root's entries, all bit for bit. Both the
// incremental path and the fallback must have been taken. The block-filled
// data node (LeafCapacity 0) runs beside the row caps: its aggregate repair
// is over the most rows, and a delete can narrow its codes.
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
				cfg := DefaultConfig()
				cfg.LeafCapacity = rows
				ix, nodes := newBareIndex(t, gen.Schema(), cfg)
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
						for j := range n.entries {
							if e := &n.entries[j]; e.Child == path[i+1] {
								what, child := fmt.Sprintf("step %d node %d entry %d", step, id, j), nodes.nodes[e.Child]
								check(what, e.MDS, ix.ws.levelsOf(e.MDS), child)
								if want := child.aggregate(ix.schema.Measures()); !e.Agg.Equal(want) {
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

// TestDeleteAllocations holds the delete path to zero allocations per
// delete: on a warm, packed tree, removing a present record that empties no
// node edits every node on its path in place, refolds each entry's
// aggregate into the entry's own vector and repairs each MDS in the write
// scratch.
func TestDeleteAllocations(t *testing.T) {
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
	var expire []cube.Record
	for i := 0; i < len(recs); i += 12 {
		expire = append(expire, recs[i])
	}
	const warm = 100
	for _, r := range expire[:warm] { // warm up: the write scratch's buffers
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
