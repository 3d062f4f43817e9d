package index

import (
	"fmt"
	"math"

	"github.com/dcindex/dctree/internal/cube"
	"github.com/dcindex/dctree/internal/hierarchy"
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
	// Fill is how full the level keeps its blocks, by the rule that
	// overflows its nodes (Index.blocksFor): its encoded bytes ÷ its nodes'
	// blocks × the one-block payload.
	Fill float64
}

// LevelStats walks the tree of head h, resolving every node through src,
// and reports per-level node statistics.
func (ix *Index) LevelStats(src Source, h Head) ([]LevelStat, error) {
	stats := make([]LevelStat, h.Height)
	err := walk(src, h.Root, func(nv *NodeView, level int) error {
		if level >= len(stats) {
			return fmt.Errorf("%w: node at level %d exceeds height %d", ErrCorrupt, level, h.Height)
		}
		leaf, count, blocks, size := nv.shape()
		s := &stats[level]
		s.Level = level
		s.Nodes++
		s.Entries += count
		s.AvgBlocks += float64(blocks)
		s.EncodedBytes += size
		s.MaxEncodedBytes = max(s.MaxEncodedBytes, size)
		if blocks > 1 {
			s.Supernodes++
		}
		if err := nv.CheckTable(); err != nil {
			return err
		}
		for i := 0; !leaf && i < count; i++ {
			_, size, _ := shapeOf(nv.EntryMDS(i))
			s.AvgEntryValues += float64(size)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i := range stats {
		if stats[i].Nodes > 0 {
			stats[i].AvgEntries = float64(stats[i].Entries) / float64(stats[i].Nodes)
			stats[i].Fill = float64(stats[i].EncodedBytes) / (stats[i].AvgBlocks * float64(ix.payload))
			stats[i].AvgBlocks /= float64(stats[i].Nodes)
		}
		if stats[i].Entries > 0 {
			stats[i].AvgEntryValues /= float64(stats[i].Entries)
		}
	}
	return stats, nil
}

// Validate deep-checks every structural invariant of the tree of head h,
// reading every node through src as a query reads it — a directory's entries
// from their encoding, a data node's records from its rows:
//
//   - every directory's offset table and children are well formed
//     (CheckTable), and every entry's MDS decodes;
//   - every directory entry's MDS equals the exact cover of its child,
//     lifted to the entry's relevant levels — and so is a valid MDS;
//   - every directory entry's aggregate equals the fold of its child's
//     (up to float rounding in Sum);
//   - data nodes appear exactly at the bottom level, and every row is a
//     valid record of the schema;
//   - no node except the root is empty or overflows its blocks
//     (Index.blocksFor);
//   - the record count and the root MDS match reality.
//
// Validate is the oracle behind the randomized workload tests.
func (ix *Index) Validate(src Source, h Head) error {
	space, schema := ix.space(), ix.schema
	rec := cube.Record{Coords: make([]hierarchy.ID, len(space)), Measures: make([]float64, schema.Measures())}
	var records int64
	var frames []NodeView
	// walk checks the subtree of id, at level, and returns its record cover
	// (the exact MDS of its data records, Definition 3) and its aggregate
	// fold, against which the parent checks its entry: lifted to the entry's
	// own relevant levels, the record cover must reproduce the entry MDS
	// exactly — coverage + minimality — and the fold must equal the entry's
	// aggregates.
	var walk func(id NodeID, level int) (mds.MDS, cube.AggVector, error)
	walk = func(id NodeID, level int) (mds.MDS, cube.AggVector, error) {
		if level == len(frames) {
			frames = append(frames, NodeView{})
		}
		nv := &frames[level]
		if err := src.View(id, nv); err != nil {
			return nil, nil, err
		}
		if err := nv.CheckTable(); err != nil {
			return nil, nil, err
		}
		leaf, count, blocks, size := nv.shape()
		switch {
		case blocks < 1:
			return nil, nil, fmt.Errorf("%w: node %d has %d blocks", ErrCorrupt, id, blocks)
		case ix.blocksFor(size) > blocks:
			return nil, nil, fmt.Errorf("%w: node %d overflows its %d blocks: %d entries, %d bytes",
				ErrCorrupt, id, blocks, count, size)
		case count == 0 && id != h.Root:
			return nil, nil, fmt.Errorf("%w: non-root node %d is empty", ErrCorrupt, id)
		case leaf != (level == h.Height-1) || level >= h.Height:
			return nil, nil, fmt.Errorf("%w: node %d leaf=%v at level %d of height %d",
				ErrCorrupt, id, leaf, level, h.Height)
		}
		fold := cube.NewAggVector(len(rec.Measures))
		members := make([]mds.MDS, 0, count)
		for i := 0; leaf && i < count; i++ {
			nv.row(i, rec)
			if err := schema.ValidateRecord(rec); err != nil {
				return nil, nil, fmt.Errorf("%w: node %d entry %d: %w", ErrCorrupt, id, i, err)
			}
			fold.AddRecord(rec.Measures)
			members = append(members, mds.FromLeaves(rec.Coords))
			records++
		}
		for i := 0; !leaf && i < count; i++ {
			f := nv
			m, _, _ := mds.Decode(f.EntryMDS(i)) // CheckTable passed it
			childCover, childFold, err := walk(f.Child(i), level+1)
			if err != nil {
				return nil, nil, err
			}
			// An MDS equal to the lift of valid records is a valid MDS.
			if want, err := mds.Adapt(space, childCover, m); err != nil || !m.Equal(want) {
				return nil, nil, fmt.Errorf("%w: node %d entry %d MDS %v != lifted record cover %v (%v)",
					ErrCorrupt, id, i, m, want, err)
			}
			for j := range fold {
				if got, want := f.Agg(i, j), childFold[j]; !aggClose(got, want) {
					return nil, nil, fmt.Errorf("%w: node %d entry %d measure %d agg %+v != child %+v",
						ErrCorrupt, id, i, j, got, want)
				}
				fold[j].Merge(f.Agg(i, j))
			}
			members = append(members, childCover)
		}
		if len(members) == 0 {
			return mds.Top(len(space)), fold, nil
		}
		cover, err := mds.Cover(space, members...)
		return cover, fold, err
	}
	recCover, _, err := walk(h.Root, 0)
	if err != nil {
		return err
	}
	if records != h.Count {
		return fmt.Errorf("%w: tree claims %d records, found %d", ErrCorrupt, h.Count, records)
	}
	if records > 0 {
		// The incrementally maintained root MDS may be coarser than the
		// exact record cover, but it must contain it.
		ok, err := mds.Contains(space, h.RootMDS, recCover)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("%w: root MDS %v does not cover records %v", ErrCorrupt, h.RootMDS, recCover)
		}
	}
	return nil
}

// aggClose reports whether two aggregates agree, Sum up to float rounding.
func aggClose(a, b cube.Agg) bool {
	diff, scale := math.Abs(a.Sum-b.Sum), math.Max(math.Abs(a.Sum), math.Abs(b.Sum))
	return a.Count == b.Count && a.Min == b.Min && a.Max == b.Max &&
		(a.Sum == b.Sum || diff <= 1e-6*scale+1e-9)
}
