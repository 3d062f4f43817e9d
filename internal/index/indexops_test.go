package index

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/dcindex/dctree/internal/cube"
	"github.com/dcindex/dctree/internal/hierarchy"
	"github.com/dcindex/dctree/internal/mds"
	"github.com/dcindex/dctree/internal/seqscan"
)

// opsQueryClasses names the five query classes FuzzIndexOps asks: the whole
// cube, one record's point, a random range at mixed levels, a roll-up to
// one top-level value, and a slice of leaf values in one dimension.
var opsQueryClasses = []string{"whole", "point", "range", "rollup", "slice"}

// opsQuery draws a query of class c over the records inserted so far.
func opsQuery(rng *rand.Rand, schema *cube.Schema, c int, seen []cube.Record) mds.MDS {
	space := schema.Space()
	q := mds.Top(len(space))
	rec := seen[rng.Intn(len(seen))]
	d := rng.Intn(len(space))
	switch opsQueryClasses[c] {
	case "point":
		q = mds.FromLeaves(rec.Coords)
	case "range":
		leaves := make([][]hierarchy.ID, len(space))
		for _, r := range seen {
			for d, c := range r.Coords {
				leaves[d] = append(leaves[d], c)
			}
		}
		q = randomSpaceMDS(rng, space, leaves)
	case "rollup":
		top, err := space[d].AncestorAt(rec.Coords[d], space[d].TopLevel())
		if err != nil {
			panic(err)
		}
		q[d] = mds.DimSet{Level: space[d].TopLevel(), IDs: []hierarchy.ID{top}}
	case "slice":
		var ids []hierarchy.ID
		for range 1 + rng.Intn(5) {
			ids = append(ids, seen[rng.Intn(len(seen))].Coords[d])
		}
		hierarchy.SortIDs(ids)
		q[d] = mds.DimSet{Level: 0, IDs: slices.Compact(ids)}
	}
	return q
}

// FuzzIndexOps drives one bare index through the stream of operations its
// bytes spell — inserts of a fresh record, of a duplicate of a live
// record's coordinates and of a record whose codes need a wider width;
// deletes of a live record and of an absent one, which must be
// ErrNotFound; queries of the five classes — and validates the tree after
// every op. After every query op, and at the end, each class answers as
// seqscan does over the live records: count, min and max exactly, the sum
// to Validate's tolerance. An odd seed builds on supernodeConfig at
// payload1K, an even one on payload512: splits, lifts and root splits
// happen within a few hundred ops, supernodes within the 1,200 ops a stream
// is cut to.
func FuzzIndexOps(f *testing.F) {
	f.Add(int64(1), []byte("inserts, duplicates, wide codes, deletes and queries"))
	f.Add(int64(2), bytes.Repeat([]byte{0, 8, 16, 3, 24, 1, 5, 7, 4, 2, 6}, 30))
	f.Add(int64(3), bytes.Repeat([]byte{0, 1, 2, 3, 4, 0, 1, 2, 5, 15, 23}, 30))
	f.Add(int64(4), bytes.Repeat([]byte{0, 0, 4, 0, 0, 5, 7, 0, 3, 0, 6}, 30))
	// Long enough for the odd seed's directories to grow supernodes.
	f.Add(int64(9), bytes.Repeat([]byte{1, 2, 3, 4}, 300))
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 1200 {
			ops = ops[:1200]
		}
		cfg, payload := smallConfig(), payload512
		if seed&1 == 1 {
			cfg, payload = supernodeConfig(), payload1K
		}
		schema := testSchema(t)
		ix, nodes := newBareIndexAt(t, schema, cfg, payload)
		oracle := seqscan.New(schema)
		rng := rand.New(rand.NewSource(seed))
		fresh := genRecords(t, schema, rng, len(ops)+1)
		seen := fresh[len(ops):] // every record inserted, and one more
		var live []cube.Record

		ask := func(k, c int) {
			t.Helper()
			q := opsQuery(rng, schema, c, seen)
			res, err := ix.Execute(context.Background(), nodes, ix.head.Root, Query{MDS: q})
			if err != nil {
				t.Fatalf("op %d: %s query: %v", k, opsQueryClasses[c], err)
			}
			want, err := oracle.RangeAgg(q, 0)
			if err != nil {
				t.Fatal(err)
			}
			if res.Agg != want {
				t.Fatalf("op %d: %s query %v: %+v, scan %+v", k, opsQueryClasses[c], q, res.Agg, want)
			}
		}
		insert := func(k int, rec cube.Record) {
			t.Helper()
			if err := ix.Insert(rec); err != nil {
				t.Fatalf("op %d: Insert: %v", k, err)
			}
			if err := oracle.Insert(rec); err != nil {
				t.Fatal(err)
			}
			live, seen = append(live, rec), append(seen, rec)
		}
		for k, op := range ops {
			switch op % 8 {
			case 3: // a duplicate of a live record's coordinates
				if len(live) == 0 {
					continue
				}
				rec := fresh[k].Clone()
				copy(rec.Coords, live[int(op/8)%len(live)].Coords)
				insert(k, rec)
			case 4: // codes past every one registered so far
				rec, err := schema.InternRecord([][]string{
					{fmt.Sprintf("R%d", rng.Intn(4)), fmt.Sprintf("N%d", rng.Intn(12)), fmt.Sprintf("W%d", k)},
					{fmt.Sprintf("B%d", rng.Intn(8)), fmt.Sprintf("Q%d", k)},
					{fmt.Sprintf("Y%d", rng.Intn(5)), fmt.Sprintf("M%d", rng.Intn(60))},
				}, fresh[k].Measures)
				if err != nil {
					t.Fatal(err)
				}
				insert(k, rec)
			case 5: // a live record
				if len(live) == 0 {
					continue
				}
				i := int(op/8) % len(live)
				if err := ix.Delete(live[i]); err != nil {
					t.Fatalf("op %d: Delete: %v", k, err)
				}
				if err := oracle.Delete(live[i]); err != nil {
					t.Fatal(err)
				}
				live = slices.Delete(live, i, i+1)
			case 6: // a record no insert made: no measure is negative
				absent := fresh[k].Clone()
				absent.Measures[0] = -1
				if err := ix.Delete(absent); !errors.Is(err, ErrNotFound) {
					t.Fatalf("op %d: Delete of an absent record = %v, want ErrNotFound", k, err)
				}
			case 7:
				ask(k, int(op/8)%len(opsQueryClasses))
			default:
				insert(k, fresh[k])
			}
			if err := validate(ix); err != nil {
				t.Fatalf("op %d (%d): %v", k, op, err)
			}
		}
		for c := range opsQueryClasses {
			ask(len(ops), c)
		}
	})
}
