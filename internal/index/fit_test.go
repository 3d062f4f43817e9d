package index

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/dcindex/dctree/internal/cube"
	"github.com/dcindex/dctree/internal/mds"
	"github.com/dcindex/dctree/internal/tpcd"
)

// checkDirectoriesFit fails unless every directory of the tree encodes to at
// most its blocks × the one-block payload.
func checkDirectoriesFit(t *testing.T, ix *Index) (directories int) {
	t.Helper()
	for _, n := range collectNodes(t, ix) {
		size := len(ix.Encode(n))
		if n.leaf {
			continue
		}
		directories++
		if size > n.Blocks()*ix.payload {
			t.Errorf("directory %d of %d entries encodes to %d bytes, past its %d blocks × %d",
				n.id, n.Count(), size, n.Blocks(), ix.payload)
		}
	}
	return directories
}

// TestDirectoryFitsItsBlocks holds directories to the one overflow rule on
// 1 KiB blocks, where a TPC-D directory holds a handful of its ~150-byte
// entries: after a stream of inserts and deletes and after a BulkLoad of the
// same records, every directory encodes to at most its blocks × the
// payload. Validate enforces the same bound: the trees pass it, and fail it
// read as if their blocks were half as large, first at a directory, which
// the walk meets before the data nodes below it.
func TestDirectoryFitsItsBlocks(t *testing.T) {
	const n, payload = 6000, payload1K
	gen, err := tpcd.New(5, tpcd.ScaleFor(n))
	if err != nil {
		t.Fatal(err)
	}
	recs := gen.Records(n)

	dynamic, _ := newBareIndexAt(t, gen.Schema(), DefaultConfig(), payload)
	for i, r := range recs {
		if err := dynamic.Insert(r); err != nil {
			t.Fatal(err)
		}
		if i%5 == 4 {
			if err := dynamic.Delete(recs[i-3]); err != nil {
				t.Fatal(err)
			}
		}
	}
	packed, _ := newBareIndexAt(t, gen.Schema(), DefaultConfig(), payload)
	if err := packed.BulkLoad(recs); err != nil {
		t.Fatal(err)
	}
	for name, ix := range map[string]*Index{"dynamic": dynamic, "packed": packed} {
		if dirs := checkDirectoriesFit(t, ix); dirs < 5 {
			t.Fatalf("%s: %d directories, too few to test", name, dirs)
		}
		if err := validate(ix); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		half := Restore(ix.schema, ix.cfg, ix.store, ix.Head(), payload/2)
		err := half.Validate(ix.store.(*memNodes), ix.Head())
		var id NodeID
		_, named, _ := strings.Cut(fmt.Sprint(err), ErrCorrupt.Error()+": node ")
		if _, serr := fmt.Sscanf(named, "%d overflows", &id); serr != nil || !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s on half the payload: Validate = %v, want the overflow reported", name, err)
		}
		if n, err := ix.store.Get(id); err != nil || n.leaf {
			t.Fatalf("%s on half the payload: the overflow names node %d, not a directory (%v)", name, id, err)
		}
	}
}

// TestTwoEntryDirectoryGrows: two entries whose MDSs together pass a tiny
// block (entries unbounded, RefineBound -1) make a directory that no split
// can help — its parent would receive two covers of them and overflow as it
// does. It grows as a supernode, to the blocks its bytes need, and a tree
// on such blocks stays shallow: splitting them instead made 35 new roots in
// these 400 inserts, height 36. The directory grows past the supernode cap
// too, even the cap of one block.
func TestTwoEntryDirectoryGrows(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RefineBound = -1
	const payload = 140 // two entries of the test schema's leaf values pass it
	ix, _ := newBareIndexAt(t, testSchema(t), cfg, payload)
	recs := genRecords(t, ix.schema, rand.New(rand.NewSource(81)), 400)

	for _, limit := range []int{cfg.MaxSupernodeBlocks, 1} {
		ix.cfg.MaxSupernodeBlocks = limit
		n := ix.store.New(false)
		for _, r := range recs[:2] {
			n.appendEntry(mds.FromLeaves(r.Coords), cube.AggOfRecord(r.Measures), NilNode)
		}
		if need := ix.nodeBlocks(n); need < 2 {
			t.Fatalf("two entries need %d block of %d bytes: the case is not tiny enough", need, payload)
		}
		res, err := ix.splitNode(n, ix.ws.topMDS)
		if err != nil || res != nil || n.Blocks() != ix.nodeBlocks(n) {
			t.Fatalf("cap %d: split=%v blocks=%d (need %d) err=%v: want the supernode",
				limit, res != nil, n.Blocks(), ix.nodeBlocks(n), err)
		}
		if err := ix.store.Drop(n.id); err != nil {
			t.Fatal(err)
		}
	}
	ix.cfg.MaxSupernodeBlocks = cfg.MaxSupernodeBlocks

	for _, r := range recs {
		if err := ix.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	if h := ix.Height(); h > 12 {
		t.Fatalf("height %d after %d inserts, counters %+v", h, len(recs), ix.Counters())
	}
	checkDirectoriesFit(t, ix)
	if err := validate(ix); err != nil {
		t.Fatal(err)
	}
}

// TestBulkLoadSplitsATwoBlockLevel: the 24 data nodes that 6,250 TPC-D
// records pack into need directory entries of two blocks' bytes. BulkLoad
// makes them one directory and splits it, as the dynamic tree splits a root
// that overflows: two directories under the root, each holding its share
// of the entries (MinFillRatio), not a full directory and the rest.
func TestBulkLoadSplitsATwoBlockLevel(t *testing.T) {
	const n = 6250
	gen, err := tpcd.New(1, tpcd.ScaleFor(n))
	if err != nil {
		t.Fatal(err)
	}
	ix, store := newBareIndex(t, gen.Schema(), DefaultConfig())
	if err := ix.BulkLoad(gen.Records(n)); err != nil {
		t.Fatal(err)
	}
	root := store.nodes[ix.Root()]
	if c := ix.Counters(); ix.Height() != 3 || root.Count() != 2 || c.SplitsHierarchy != 1 {
		t.Fatalf("height %d, root of %d entries, counters %+v: want one hierarchy split under the root",
			ix.Height(), root.Count(), c)
	}
	a, b := store.nodes[root.flat.Child(0)].Count(), store.nodes[root.flat.Child(1)].Count()
	if minFill := int(ix.cfg.MinFillRatio * float64(a+b)); a < minFill || b < minFill {
		t.Fatalf("directories of %d and %d entries: a split keeps %d in each", a, b, minFill)
	}
	checkDirectoriesFit(t, ix)
	if err := validate(ix); err != nil {
		t.Fatal(err)
	}
}
