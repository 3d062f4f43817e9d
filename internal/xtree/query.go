package xtree

import (
	"fmt"

	"github.com/dcindex/dctree/internal/cube"
)

// QueryStats describes the work one range query performed.
type QueryStats struct {
	NodesVisited   int
	EntriesScanned int
	PointsMatched  int
}

// RangeQuery aggregates the measures, in units, of all points inside the
// query rectangle that also pass filter (nil means no extra filtering).
// Unlike the DC-tree, the X-tree stores no materialized aggregates: every
// matching point is fetched from a data node. The
// filter is how the DC-tree experiments express value-set queries that an
// MBR can only over-approximate (§5.2: the range_mds is converted to a
// range_mbr; exact membership is re-checked per record).
func (t *Tree) RangeQuery(q Rect, filter func(Point) bool) (cube.Fixed, QueryStats, error) {
	var st QueryStats
	if err := q.Validate(t.dims); err != nil {
		return cube.Fixed{}, st, err
	}
	var agg cube.Fixed
	t.queryNode(t.root, q, filter, &agg, &st)
	return agg, st, nil
}

func (t *Tree) queryNode(n *xnode, q Rect, filter func(Point) bool, agg *cube.Fixed, st *QueryStats) {
	st.NodesVisited++
	if n.leaf {
		for i := range n.entries {
			st.EntriesScanned++
			e := &n.entries[i]
			if q.ContainsPoint(e.point) && (filter == nil || filter(e.point)) {
				agg.Add(e.units)
				st.PointsMatched++
			}
		}
		return
	}
	for i := range n.entries {
		st.EntriesScanned++
		if q.Intersects(n.entries[i].rect) {
			t.queryNode(n.entries[i].child, q, filter, agg, st)
		}
	}
}

// LevelStat mirrors core.LevelStat for the baseline tree.
type LevelStat struct {
	Level      int
	Nodes      int
	Supernodes int
	Entries    int
	AvgEntries float64
}

// LevelStats reports per-level node statistics.
func (t *Tree) LevelStats() []LevelStat {
	stats := make([]LevelStat, t.height)
	var walk func(n *xnode, level int)
	walk = func(n *xnode, level int) {
		s := &stats[level]
		s.Level = level
		s.Nodes++
		s.Entries += len(n.entries)
		if n.blocks > 1 {
			s.Supernodes++
		}
		if n.leaf {
			return
		}
		for _, e := range n.entries {
			walk(e.child, level+1)
		}
	}
	walk(t.root, 0)
	for i := range stats {
		if stats[i].Nodes > 0 {
			stats[i].AvgEntries = float64(stats[i].Entries) / float64(stats[i].Nodes)
		}
	}
	return stats
}

// Validate deep-checks the structural invariants: every entry's MBR is
// valid and equals (directories) the exact MBR of its child, leaves sit at
// the bottom level, no node overflows, non-root nodes are non-empty, and
// the point count matches.
func (t *Tree) Validate() error {
	var points int64
	var walk func(n *xnode, level int) error
	walk = func(n *xnode, level int) error {
		if n.blocks < 1 {
			return fmt.Errorf("xtree: node with %d blocks", n.blocks)
		}
		if len(n.entries) > n.capacity(&t.cfg) {
			return fmt.Errorf("xtree: node overflows: %d > %d", len(n.entries), n.capacity(&t.cfg))
		}
		if len(n.entries) == 0 && n != t.root {
			return fmt.Errorf("xtree: empty non-root node")
		}
		if n.leaf != (level == t.height-1) {
			return fmt.Errorf("xtree: leaf=%v at level %d of height %d", n.leaf, level, t.height)
		}
		for i := range n.entries {
			e := &n.entries[i]
			if err := e.rect.Validate(t.dims); err != nil {
				return err
			}
			if n.leaf {
				points++
				if len(e.point) != t.dims {
					return fmt.Errorf("xtree: point dims %d", len(e.point))
				}
				want := RectOf(e.point)
				if !e.rect.ContainsRect(want) || !want.ContainsRect(e.rect) {
					return fmt.Errorf("xtree: leaf rect %v != point %v", e.rect, e.point)
				}
				continue
			}
			want := e.child.mbr()
			if !e.rect.ContainsRect(want) || !want.ContainsRect(e.rect) {
				return fmt.Errorf("xtree: entry MBR %v != child MBR %v at level %d", e.rect, want, level)
			}
			if err := walk(e.child, level+1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root, 0); err != nil {
		return err
	}
	if points != t.count {
		return fmt.Errorf("xtree: count %d, found %d points", t.count, points)
	}
	return nil
}
