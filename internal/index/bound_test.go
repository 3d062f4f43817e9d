package index

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"github.com/dcindex/dctree/internal/cube"
	"github.com/dcindex/dctree/internal/hierarchy"
	"github.com/dcindex/dctree/internal/mds"
	"github.com/dcindex/dctree/internal/seqscan"
	"github.com/dcindex/dctree/internal/tpcd"
)

// checkInsertedEntries walks the tree and holds every directory entry that is
// not in before — a (child, MDS) pair an insert just wrote, widened by the
// record's cover or built by a split — to at most 2 × RefineBound values per
// dimension. It returns the tree's pairs for the next call and the number of
// entries it checked. A nil before checks nothing: entries a delete repaired
// are not the bound's to keep (Delete only shrinks them, or its fallback
// raises a level).
func checkInsertedEntries(t *testing.T, ix *Index, before map[string]bool, step string) (map[string]bool, int) {
	t.Helper()
	bound := 2 * ix.cfg.RefineBound
	keys := make(map[string]bool, len(before))
	checked := 0
	var buf []byte
	for _, n := range collectNodes(t, ix) {
		for i, e := range dirEntries(n) {
			buf = e.MDS.AppendEncode(binary.LittleEndian.AppendUint64(buf[:0], uint64(e.Child)))
			key := string(buf)
			keys[key] = true
			if before == nil || before[key] {
				continue
			}
			checked++
			for d, ds := range e.MDS {
				if ds.Level != hierarchy.LevelALL && len(ds.IDs) > bound {
					t.Fatalf("%s: node %d entry %d holds %d values at level %d in dimension %d, bound %d: %v",
						step, n.id, i, len(ds.IDs), ds.Level, d, bound, e.MDS)
				}
			}
		}
	}
	return keys, checked
}

// TestEntryBoundHolds runs seeded insert/delete streams and checks, after
// every insert (and so after every split it causes), that each directory
// entry the insert wrote is bounded. Every 100 operations the tree is
// validated — coverage and minimality at every entry's levels — and a fixed
// query set is answered against the sequential-scan oracle.
func TestEntryBoundHolds(t *testing.T) {
	// A data node of 4 KiB holds some 270 rows of these codes, so that
	// tree needs more records than the others to grow a directory below
	// the root.
	const ops, scaleOps, blockFilledOps = 2400, 6000, 9000
	gen, err := tpcd.New(3, tpcd.ScaleFor(scaleOps))
	if err != nil {
		t.Fatal(err)
	}
	tpcdRecs := gen.Records(blockFilledOps)
	supernodes := DefaultConfig()
	supernodes.MaxSupernodeBlocks = 3
	supernodes.MaxOverlapRatio = 0.002
	lowBound := smallConfig()
	lowBound.RefineBound = 2
	for _, tc := range []struct {
		name      string
		tpcd      bool
		cfg       Config
		payload   int
		wantSuper bool
	}{
		{"tpcd/block-filled", true, DefaultConfig(), testBlockPayload, false},
		{"tpcd/leaf-12", true, DefaultConfig(), payloadOfRows(gen.Schema(), tpcdRecs, 12), false},
		{"tpcd/small-dir-supernodes", true, supernodes, payload1K, true},
		{"test/small", false, smallConfig(), payload512, false},
		{"test/small-bound-4", false, lowBound, payload512, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			schema, recs := gen.Schema(), tpcdRecs[:ops]
			if tc.payload == testBlockPayload {
				recs = tpcdRecs
			}
			if !tc.tpcd {
				schema = testSchema(t)
				recs = genRecords(t, schema, rand.New(rand.NewSource(61)), ops)
			}
			ix, nodes := newBareIndexAt(t, schema, tc.cfg, tc.payload)
			oracle := seqscan.New(schema)
			rng := rand.New(rand.NewSource(62))
			leaves := make([][]hierarchy.ID, schema.Dims())
			for _, r := range recs {
				for d, c := range r.Coords {
					leaves[d] = append(leaves[d], c)
				}
			}
			queries := make([]mds.MDS, 20)
			for i := range queries {
				queries[i] = randomSpaceMDS(rng, schema.Space(), leaves)
			}

			var live []cube.Record
			keys, _ := checkInsertedEntries(t, ix, nil, "")
			checked := 0
			for step, next := 0, 0; next < len(recs); step++ {
				if len(live) > 0 && rng.Intn(4) == 0 {
					k := rng.Intn(len(live))
					rec := live[k]
					live[k] = live[len(live)-1]
					live = live[:len(live)-1]
					if err := ix.Delete(rec); err != nil {
						t.Fatalf("step %d: Delete: %v", step, err)
					}
					if err := oracle.Delete(rec); err != nil {
						t.Fatal(err)
					}
					keys, _ = checkInsertedEntries(t, ix, nil, "")
				} else {
					rec := recs[next]
					next++
					if err := ix.Insert(rec); err != nil {
						t.Fatalf("step %d: Insert: %v", step, err)
					}
					if err := oracle.Insert(rec); err != nil {
						t.Fatal(err)
					}
					live = append(live, rec)
					var n int
					keys, n = checkInsertedEntries(t, ix, keys, fmt.Sprintf("step %d", step))
					checked += n
				}
				if step%100 != 99 {
					continue
				}
				if err := validate(ix); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				for i, q := range queries {
					res, err := ix.Execute(context.Background(), nodes, ix.head.Root, Query{MDS: q})
					if err != nil {
						t.Fatal(err)
					}
					want, err := oracle.RangeAgg(q, 0)
					if err != nil {
						t.Fatal(err)
					}
					if got := res.Agg; !aggClose(got, want) {
						t.Fatalf("step %d query %d: %+v, scan %+v\nq=%v", step, i, got, want, q)
					}
				}
			}
			c := ix.Counters()
			t.Logf("%d inserted entries checked; height %d, %d hierarchy + %d forced splits, %d supernodes",
				checked, ix.head.Height, c.SplitsHierarchy, c.SplitsForced, c.SupernodesCreated)
			if ix.head.Height < 3 || checked == 0 {
				t.Fatalf("height %d, %d entries checked: the stream never grew a directory below the root", ix.head.Height, checked)
			}
			if tc.wantSuper && c.SupernodesCreated == 0 {
				t.Fatal("the supernode configuration made no supernode")
			}
		})
	}
}

// TestBoundMDSLifts drives one entry through boundMDS by hand: a dimension
// past the bound is lifted until it fits, one at the top named level becomes
// ALL, one within the bound is left alone, and each result is the exact
// cover one level up. The lift is written over the entry's own storage.
func TestBoundMDSLifts(t *testing.T) {
	cfg := smallConfig()
	cfg.RefineBound = 1 // bound 2
	ix := newTestIndex(t, cfg)
	s := ix.schema
	var recs []cube.Record
	for _, coords := range [][][]string{
		{{"R0", "N0", "C0"}, {"B0", "P0"}, {"Y0", "M0"}},
		{{"R1", "N1", "C1"}, {"B0", "P1"}, {"Y0", "M1"}},
		{{"R2", "N2", "C2"}, {"B0", "P2"}, {"Y0", "M1"}},
	} {
		r, err := s.InternRecord(coords, []float64{1})
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, r)
	}
	members := make([]mds.MDS, len(recs))
	for i, r := range recs {
		members[i] = mds.FromLeaves(r.Coords)
	}
	// Customer: 3 regions, at the top named level — ALL. Part: 3 parts under
	// one brand — lifted once. Time: 2 months — kept.
	cover, err := mds.Cover(s.Space(), members...)
	if err != nil {
		t.Fatal(err)
	}
	cust := s.Space()[0]
	top := cust.TopLevel()
	cover[0] = mds.DimSet{Level: top, IDs: mds.SortDedupFrom(mds.AppendLifted(nil, cust, cover[0], top), 0)}
	want, err := mds.AdaptToLevels(s.Space(), cover, []int{hierarchy.LevelALL, 1, 0})
	if err != nil {
		t.Fatal(err)
	}

	entry := cover.Clone()
	ix.boundMDS(entry)
	if !entry.Equal(want) {
		t.Fatalf("bounded %v, want %v", entry, want)
	}

	// In place: refilling the entry from cover and bounding it again
	// allocates nothing.
	allocs := testing.AllocsPerRun(100, func() {
		for d := range entry {
			entry[d].Level = cover[d].Level
			entry[d].IDs = append(entry[d].IDs[:0], cover[d].IDs...)
		}
		ix.boundMDS(entry)
	})
	if allocs != 0 {
		t.Fatalf("boundMDS allocates %.0f times", allocs)
	}
	if !entry.Equal(want) {
		t.Fatalf("bounded again %v, want %v", entry, want)
	}
}
