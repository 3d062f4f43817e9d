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
// capacities from 4 rows to the block-filled 169, on dynamically built and
// bulk-loaded trees; after every delete, each entry left on the delete path
// must equal mds.CoverInto of its child at the entry's levels, and the root
// MDS the cover of the root's entries, bit for bit. Both the incremental
// path and the fallback must have been taken.
func TestDeleteRepairMatchesCover(t *testing.T) {
	const load, steps = 3000, 3000
	gen, err := tpcd.New(5, tpcd.ScaleFor(load))
	if err != nil {
		t.Fatal(err)
	}
	pool := gen.Records(load + steps)
	var repairs, fallbacks int64
	for _, rows := range []int{4, 12, 48, 169} {
		for _, bulk := range []bool{false, true} {
			t.Run(fmt.Sprintf("leaf-%d/bulk=%v", rows, bulk), func(t *testing.T) {
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
								check(fmt.Sprintf("step %d node %d entry %d", step, id, j), e.MDS, ix.ws.levelsOf(e.MDS), nodes.nodes[e.Child])
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
