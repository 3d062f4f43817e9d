package index

import (
	"fmt"
	"math"

	"github.com/dcindex/dctree/internal/cube"
	"github.com/dcindex/dctree/internal/mds"
)

// LevelStat aggregates node statistics for one level of the tree.
// Level 0 is the root level, level Height()-1 the data nodes — Fig. 13 of
// the paper plots AvgEntries for levels 1 and 2 (the two highest levels
// below the root).
type LevelStat struct {
	Level      int
	Nodes      int
	Supernodes int
	Entries    int
	AvgEntries float64
	AvgBlocks  float64
	// EncodedBytes sums, and MaxEncodedBytes is the largest of, the nodes'
	// flat encodings: the bytes the level's nodes need, beside the blocks
	// AvgBlocks says they hold.
	EncodedBytes    int
	MaxEncodedBytes int
	// AvgEntryValues is the mean number of MDS values per directory entry
	// (Definition 4's size, summed over the dimensions): what a query tests
	// and an insert searches per entry. 0 on the data level.
	AvgEntryValues float64
	// Fill is the level's entries ÷ the sum of its nodes' capacities, a
	// node's being its blocks × the per-block capacity of its kind
	// (LeafCapacity or DirCapacity): how full the level keeps its blocks.
	Fill float64
}

// LevelStats walks the tree and reports per-level node statistics.
func (ix *Index) LevelStats() ([]LevelStat, error) {
	stats := make([]LevelStat, ix.height)
	capacity := make([]int, ix.height)
	var walk func(id NodeID, level int) error
	dims, measures := ix.schema.Dims(), ix.schema.Measures()
	walk = func(id NodeID, level int) error {
		n, err := ix.store.Get(id)
		if err != nil {
			return err
		}
		if level >= len(stats) {
			return fmt.Errorf("%w: node %d at level %d exceeds height %d", ErrCorrupt, id, level, ix.height)
		}
		s := &stats[level]
		s.Level = level
		s.Nodes++
		s.Entries += n.Count()
		s.AvgBlocks += float64(n.blocks)
		capacity[level] += n.capacity(&ix.cfg)
		size := n.encodedSize(dims, measures)
		s.EncodedBytes += size
		s.MaxEncodedBytes = max(s.MaxEncodedBytes, size)
		if n.isSuper() {
			s.Supernodes++
		}
		if n.leaf {
			return nil
		}
		for i := range n.entries {
			s.AvgEntryValues += float64(n.entries[i].MDS.Size())
			if err := walk(n.entries[i].Child, level+1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(ix.root, 0); err != nil {
		return nil, err
	}
	for i := range stats {
		if stats[i].Nodes > 0 {
			stats[i].AvgEntries = float64(stats[i].Entries) / float64(stats[i].Nodes)
			stats[i].AvgBlocks /= float64(stats[i].Nodes)
			stats[i].Fill = float64(stats[i].Entries) / float64(capacity[i])
		}
		if stats[i].Entries > 0 {
			stats[i].AvgEntryValues /= float64(stats[i].Entries)
		}
	}
	return stats, nil
}

// Validate deep-checks every structural invariant of the tree:
//
//   - every entry's MDS is a valid MDS of the schema's space;
//   - every directory entry's MDS equals the exact cover of its child;
//   - every directory entry's aggregate equals the recomputed aggregate of
//     its child (up to float rounding in Sum);
//   - data nodes appear exactly at the bottom level, record arity is
//     correct, leaf entry MDSs describe their records;
//   - no node except the root is empty, no node overflows its capacity,
//     supernode block counts are consistent;
//   - the record count and the root MDS match reality.
//
// Validate is the oracle behind the randomized workload tests.
func (ix *Index) Validate() error {
	space := ix.space()
	measures := ix.schema.Measures()

	var records int64
	// walk returns the subtree's record-level cover (the exact MDS of its
	// data records, Definition 3), against which every entry's stored MDS
	// is checked: lifted to the entry's own relevant levels, the record
	// cover must reproduce the entry MDS exactly — coverage + minimality.
	var walk func(id NodeID, level int) (mds.MDS, error)
	walk = func(id NodeID, level int) (mds.MDS, error) {
		n, err := ix.store.Get(id)
		if err != nil {
			return nil, err
		}
		if n.blocks < 1 {
			return nil, fmt.Errorf("%w: node %d has %d blocks", ErrCorrupt, id, n.blocks)
		}
		if n.overflowing(&ix.cfg) {
			return nil, fmt.Errorf("%w: node %d overflows: %d entries, capacity %d",
				ErrCorrupt, id, n.Count(), n.capacity(&ix.cfg))
		}
		if n.Count() == 0 && id != ix.root {
			return nil, fmt.Errorf("%w: non-root node %d is empty", ErrCorrupt, id)
		}
		if n.leaf != (level == ix.height-1) {
			return nil, fmt.Errorf("%w: node %d leaf=%v at level %d of height %d",
				ErrCorrupt, id, n.leaf, level, ix.height)
		}
		var members []mds.MDS
		if n.leaf {
			if n.dims != len(space) || n.nm != measures || len(n.coords) != n.Count()*n.dims || len(n.measures) != n.Count()*n.nm {
				return nil, fmt.Errorf("%w: node %d holds %d coordinates and %d measures in rows of %d and %d",
					ErrCorrupt, id, len(n.coords), len(n.measures), n.dims, n.nm)
			}
			// A record's MDS and aggregates are functions of its row (they
			// exist only in the encoding), so the row is all there is to check.
			for i := 0; i < n.Count(); i++ {
				records++
				rec := cube.Record{Coords: n.Row(i), Measures: n.RowMeasures(i)}
				if err := ix.schema.ValidateRecord(rec); err != nil {
					return nil, fmt.Errorf("node %d entry %d: %w", id, i, err)
				}
				members = append(members, mds.FromLeaves(rec.Coords))
			}
		}
		for i := range n.entries {
			e := &n.entries[i]
			if err := e.MDS.Validate(space); err != nil {
				return nil, fmt.Errorf("node %d entry %d: %w", id, i, err)
			}
			if len(e.Agg) != measures {
				return nil, fmt.Errorf("%w: node %d entry %d has %d aggs", ErrCorrupt, id, i, len(e.Agg))
			}
			child, err := ix.store.Get(e.Child)
			if err != nil {
				return nil, err
			}
			childRecCover, err := walk(e.Child, level+1)
			if err != nil {
				return nil, err
			}
			// Definition 3 at the entry's own relevant levels: the child
			// subtree's record-level cover, lifted to the entry's levels,
			// must reproduce the entry MDS exactly (coverage+minimality).
			levels := make([]int, len(e.MDS))
			for d := range e.MDS {
				levels[d] = e.MDS[d].Level
			}
			wantMDS, err := mds.AdaptToLevels(space, childRecCover, levels)
			if err != nil {
				return nil, err
			}
			if !e.MDS.Equal(wantMDS) {
				return nil, fmt.Errorf("%w: node %d entry %d MDS %v != lifted record cover %v",
					ErrCorrupt, id, i, e.MDS, wantMDS)
			}
			wantAgg := child.aggregate(measures)
			for j := range wantAgg {
				got, want := e.Agg[j], wantAgg[j]
				if got.Count != want.Count || got.Min != want.Min || got.Max != want.Max ||
					!floatClose(got.Sum, want.Sum) {
					return nil, fmt.Errorf("%w: node %d entry %d measure %d agg %+v != child %+v",
						ErrCorrupt, id, i, j, got, want)
				}
			}
			members = append(members, childRecCover)
		}
		if len(members) == 0 {
			return mds.Top(len(space)), nil
		}
		return mds.Cover(space, members...)
	}
	recCover, err := walk(ix.root, 0)
	if err != nil {
		return err
	}
	if records != ix.count {
		return fmt.Errorf("%w: tree claims %d records, found %d", ErrCorrupt, ix.count, records)
	}

	if records > 0 {
		// The incrementally maintained root MDS may be coarser than the
		// exact record cover, but it must contain it.
		ok, err := mds.Contains(space, ix.rootMDS, recCover)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("%w: root MDS %v does not cover records %v", ErrCorrupt, ix.rootMDS, recCover)
		}
	}
	return nil
}

func floatClose(a, b float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-6*scale+1e-9
}
