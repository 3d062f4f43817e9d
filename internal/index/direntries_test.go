package index

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/dcindex/dctree/internal/cube"
	"github.com/dcindex/dctree/internal/hierarchy"
	"github.com/dcindex/dctree/internal/mds"
)

// randomEntryMDS draws an MDS of dims dimensions for a directory entry: each
// dimension ALL, or a sorted set of one to eight values of a level 0–2.
func randomEntryMDS(rng *rand.Rand, dims int) mds.MDS {
	m := make(mds.MDS, dims)
	for d := range m {
		if rng.Intn(4) == 0 {
			m[d] = mds.AllDim()
			continue
		}
		level := rng.Intn(3)
		m[d] = mds.DimSet{Level: level, IDs: randomIDs(rng, level, 1+rng.Intn(8))}
	}
	return m
}

// randomIDs returns k distinct values of a level, sorted.
func randomIDs(rng *rand.Rand, level, k int) []hierarchy.ID {
	var ids []hierarchy.ID
	for _, c := range rng.Perm(4 * k)[:k] {
		ids = append(ids, hierarchy.MakeID(level, uint32(c)))
	}
	hierarchy.SortIDs(ids)
	return ids
}

// randomAggs draws an aggregate vector, signed zeros and NaNs among its
// values.
func randomAggs(rng *rand.Rand, measures int) cube.AggVector {
	v := cube.NewAggVector(measures)
	for j := range v {
		x := rng.NormFloat64()
		switch rng.Intn(8) {
		case 0:
			x = math.Copysign(0, -1)
		case 1:
			x = math.NaN()
		}
		v[j] = cube.Agg{Sum: x, Count: 1 + rng.Int63n(100), Min: x - 1, Max: x}
	}
	return v
}

// editedMDS returns a copy of m with dimension d changed as kind says: a
// value more, a value fewer, lifted one level (ALL past level 2), or a set
// that crosses the 127 → 128 count at which its uvarint takes two bytes.
func editedMDS(rng *rand.Rand, m mds.MDS, d, kind int) mds.MDS {
	m = m.Clone()
	ds := &m[d]
	if ds.Level == hierarchy.LevelALL {
		*ds = mds.DimSet{Level: 0, IDs: randomIDs(rng, 0, 1)}
		return m
	}
	switch kind {
	case 0: // grow by one value
		for {
			id := hierarchy.MakeID(ds.Level, uint32(rng.Intn(4*len(ds.IDs)+4)))
			if i, ok := slices.BinarySearch(ds.IDs, id); !ok {
				ds.IDs = slices.Insert(ds.IDs, i, id)
				return m
			}
		}
	case 1: // drop one value, keeping one at least
		if len(ds.IDs) > 1 {
			i := rng.Intn(len(ds.IDs))
			ds.IDs = slices.Delete(ds.IDs, i, i+1)
		}
	case 2: // lift a level
		if ds.Level == 2 {
			*ds = mds.AllDim()
			return m
		}
		var up []hierarchy.ID
		for _, id := range ds.IDs {
			up = append(up, hierarchy.MakeID(ds.Level+1, id.Code()/4))
		}
		hierarchy.SortIDs(up)
		*ds = mds.DimSet{Level: ds.Level + 1, IDs: slices.Compact(up)}
	default: // cross the uvarint's one-byte count
		k := 128
		if len(ds.IDs) >= 128 {
			k = 127
		}
		ds.IDs = randomIDs(rng, ds.Level, k)
	}
	return m
}

// FuzzDirectoryEntries runs a random stream of entry edits on one heap
// directory — append, remove, an MDS replaced by one a value larger or
// smaller, lifted a level or across the one-byte uvarint count, an
// aggregate merged, a child set — and after every edit holds the node's
// bytes to a shadow of the entries kept beside them, never read back from
// the bytes: each entry read through the node's view equals the shadow's,
// in order; the table passes CheckTable and the length is the one the
// shadow's entries add up to; and the node decodes from its encoding to
// the same bytes.
func FuzzDirectoryEntries(f *testing.F) {
	f.Add(int64(1), []byte{0, 0, 0, 2, 6, 10, 14, 3, 4, 1, 0}, uint8(2), uint8(1))
	f.Add(int64(2), bytes.Repeat([]byte{0, 14, 18, 22, 3, 7, 1}, 30), uint8(3), uint8(2))
	f.Add(int64(3), append(bytes.Repeat([]byte{0}, 20), bytes.Repeat([]byte{1, 2, 6}, 20)...), uint8(0), uint8(0))
	f.Add(int64(4), bytes.Repeat([]byte{0, 0, 14, 14, 1}, 40), uint8(1), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, ops []byte, dims, measures uint8) {
		nd, nm := 1+int(dims)%4, 1+int(measures)%3
		rng := rand.New(rand.NewSource(seed))
		n := NewNode(1, false, nd, nm)
		var shadow []entry
		for k, op := range ops {
			i := 0
			if len(shadow) > 0 {
				i = rng.Intn(len(shadow))
			}
			switch kind := int(op) % 6; {
			case kind == 0 || len(shadow) == 0:
				e := entry{MDS: randomEntryMDS(rng, nd), Agg: randomAggs(rng, nm), Child: NodeID(1 + rng.Intn(1000))}
				n.appendEntry(e.MDS, e.Agg, e.Child)
				shadow = append(shadow, e)
			case kind == 1:
				n.removeEntry(i)
				shadow = slices.Delete(shadow, i, i+1)
			case kind == 2:
				m := editedMDS(rng, shadow[i].MDS, rng.Intn(nd), int(op>>3)%4)
				n.setMDS(i, m)
				shadow[i].MDS = m
			case kind == 3:
				v := randomAggs(rng, nm)
				merged := n.flat.aggs(i, cube.NewAggVector(nm))
				merged.Merge(v)
				n.setAgg(i, merged)
				shadow[i].Agg.Merge(v)
			case kind == 4:
				child := NodeID(1 + rng.Intn(1000))
				n.setChild(i, child)
				shadow[i].Child = child
			default:
				v := randomAggs(rng, nm)
				n.setAgg(i, v)
				shadow[i].Agg = v
			}

			var nv NodeView
			(&Index{}).HeapView(n, &nv)
			if nv.Count() != len(shadow) || n.Count() != len(shadow) {
				t.Fatalf("op %d: the node holds %d entries, its view %d, want %d", k, n.Count(), nv.Count(), len(shadow))
			}
			size := dirSize
			for i, want := range shadow {
				size += entrySize(want.MDS.EncodedSize(), nm)
				if got, _, err := mds.Decode(nv.EntryMDS(i)); err != nil || !got.Equal(want.MDS) {
					t.Fatalf("op %d: entry %d's MDS reads %v (%v), want %v", k, i, got, err, want.MDS)
				}
				for j, a := range want.Agg {
					if got := nv.Agg(i, j); got.Count != a.Count || math.Float64bits(got.Sum) != math.Float64bits(a.Sum) ||
						math.Float64bits(got.Min) != math.Float64bits(a.Min) || math.Float64bits(got.Max) != math.Float64bits(a.Max) {
						t.Fatalf("op %d: entry %d's aggregate %d reads %+v, want %+v", k, i, j, got, a)
					}
				}
				if got := nv.Child(i); got != want.Child {
					t.Fatalf("op %d: entry %d's child reads %d, want %d", k, i, got, want.Child)
				}
			}
			if err := nv.CheckTable(); err != nil {
				t.Fatalf("op %d: %v", k, err)
			}
			if len(nv.b) != size {
				t.Fatalf("op %d: %d bytes, the entries add up to %d", k, len(nv.b), size)
			}
			dec, err := DecodeNode(1, (&Index{}).Encode(n), nd, nm)
			if err != nil || !bytes.Equal(dec.flat.b, n.flat.b) {
				t.Fatalf("op %d: the encoding decodes to other bytes (%v)", k, err)
			}
		}
	})
}
