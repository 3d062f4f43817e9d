package xtree

import "sort"

// splitNode implements the X-tree split algorithm: first the topological
// (R*-style) split; if its overlap is too high, the overlap-minimal split
// guided by the split history; if that one is too unbalanced, the node
// becomes (or grows as) a supernode. On success the receiver keeps the
// first group and the returned sibling holds the second.
func (t *Tree) splitNode(n *xnode) *xnode {
	// 1. Topological split.
	if g1, g2, dim, ok := t.topologicalSplit(n); ok {
		return t.materializeSplit(n, g1, g2, dim)
	}
	// 2. Overlap-minimal split along the split history.
	if g1, g2, dim, ok := t.overlapMinimalSplit(n); ok {
		return t.materializeSplit(n, g1, g2, dim)
	}
	// 3. Supernode.
	if n.blocks < t.cfg.MaxSupernodeBlocks {
		n.blocks++
		return nil
	}
	// Safety valve at the cap: force the best topological partition even
	// though it violates the thresholds.
	g1, g2, dim := t.forcedSplit(n)
	return t.materializeSplit(n, g1, g2, dim)
}

// distribution evaluates one candidate partition of sorted entries.
type distribution struct {
	axis    int
	cut     int // first cut elements go left
	margin  float64
	overlap float64
	area    float64
}

// topologicalSplit is the R*-tree split: for every axis, sort the entries
// by lower then upper boundary and evaluate all distributions that respect
// the minimum fill; choose the axis with the least margin sum, then the
// distribution with the least overlap (ties: least area). The split is
// accepted only if its overlap ratio stays under MaxOverlapRatio.
func (t *Tree) topologicalSplit(n *xnode) (g1, g2 []int, dim int, ok bool) {
	total := len(n.entries)
	minFill := int(t.cfg.MinFillRatio * float64(total))
	if minFill < 1 {
		minFill = 1
	}
	if total < 2*minFill {
		return nil, nil, -1, false
	}

	bestAxis, bestAxisMargin := -1, 0.0
	var bestDist distribution
	order := make([]int, total)

	for axis := 0; axis < t.dims; axis++ {
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool {
			ra, rb := n.entries[order[a]].rect, n.entries[order[b]].rect
			if ra.Lo[axis] != rb.Lo[axis] {
				return ra.Lo[axis] < rb.Lo[axis]
			}
			return ra.Hi[axis] < rb.Hi[axis]
		})

		marginSum := 0.0
		var axisBest distribution
		axisBestSet := false
		for cut := minFill; cut <= total-minFill; cut++ {
			left := n.entries[order[0]].rect.Clone()
			for _, i := range order[1:cut] {
				left.Enlarge(n.entries[i].rect)
			}
			right := n.entries[order[cut]].rect.Clone()
			for _, i := range order[cut+1:] {
				right.Enlarge(n.entries[i].rect)
			}
			d := distribution{
				axis:    axis,
				cut:     cut,
				margin:  left.Margin() + right.Margin(),
				overlap: left.OverlapArea(right),
				area:    left.Area() + right.Area(),
			}
			marginSum += d.margin
			if !axisBestSet || d.overlap < axisBest.overlap ||
				(d.overlap == axisBest.overlap && d.area < axisBest.area) {
				axisBest = d
				axisBestSet = true
			}
		}
		if !axisBestSet {
			continue
		}
		if bestAxis == -1 || marginSum < bestAxisMargin {
			bestAxis, bestAxisMargin = axis, marginSum
			bestDist = axisBest
		}
	}
	if bestAxis == -1 {
		return nil, nil, -1, false
	}

	g1, g2 = t.splitGroups(n, bestDist)
	if t.overlapRatio(n, g1, g2) > t.cfg.MaxOverlapRatio {
		return nil, nil, -1, false
	}
	return g1, g2, bestDist.axis, true
}

// overlapMinimalSplit tries to find a dimension along which the entries
// partition with zero overlap. Per the X-tree paper, such a dimension is
// sought among the split history: for directory nodes, a dimension by
// which *all* children have been split at some point partitions their MBRs
// disjointly. The reproduction checks the recorded split dimensions first
// and falls back to scanning all dimensions (for leaves the history is the
// trivial empty set). The resulting split must still be balanced; an
// overlap-free but unbalanced partition triggers a supernode instead.
func (t *Tree) overlapMinimalSplit(n *xnode) (g1, g2 []int, dim int, ok bool) {
	total := len(n.entries)
	minFill := int(t.cfg.MinFillRatio * float64(total))
	if minFill < 1 {
		minFill = 1
	}

	var candidates []int
	if !n.leaf {
		// Dimensions recorded in the children's split history come first.
		seen := make(map[int]bool)
		for _, e := range n.entries {
			if e.child.splitDim >= 0 && !seen[e.child.splitDim] {
				seen[e.child.splitDim] = true
				candidates = append(candidates, e.child.splitDim)
			}
		}
	}
	for d := 0; d < t.dims; d++ {
		candidates = append(candidates, d)
	}

	order := make([]int, total)
	tried := make(map[int]bool)
	for _, axis := range candidates {
		if tried[axis] {
			continue
		}
		tried[axis] = true
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool {
			ra, rb := n.entries[order[a]].rect, n.entries[order[b]].rect
			if ra.Lo[axis] != rb.Lo[axis] {
				return ra.Lo[axis] < rb.Lo[axis]
			}
			return ra.Hi[axis] < rb.Hi[axis]
		})
		// Sweep for an overlap-free cut: max Hi so far < next Lo.
		maxHi := n.entries[order[0]].rect.Hi[axis]
		for cut := 1; cut < total; cut++ {
			cur := n.entries[order[cut]].rect
			if maxHi < cur.Lo[axis] && cut >= minFill && total-cut >= minFill {
				d := distribution{axis: axis, cut: cut}
				g1, g2 = t.splitGroups(n, d)
				// Re-sort not needed: splitGroups re-derives the order.
				return g1, g2, axis, true
			}
			if cur.Hi[axis] > maxHi {
				maxHi = cur.Hi[axis]
			}
		}
	}
	return nil, nil, -1, false
}

// forcedSplit returns the least-bad topological distribution regardless of
// thresholds (used only at the supernode cap).
func (t *Tree) forcedSplit(n *xnode) (g1, g2 []int, dim int) {
	total := len(n.entries)
	order := make([]int, total)
	best := distribution{axis: 0, cut: total / 2}
	bestSet := false
	for axis := 0; axis < t.dims; axis++ {
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool {
			return n.entries[order[a]].rect.Lo[axis] < n.entries[order[b]].rect.Lo[axis]
		})
		cut := total / 2
		left := n.entries[order[0]].rect.Clone()
		for _, i := range order[1:cut] {
			left.Enlarge(n.entries[i].rect)
		}
		right := n.entries[order[cut]].rect.Clone()
		for _, i := range order[cut+1:] {
			right.Enlarge(n.entries[i].rect)
		}
		d := distribution{axis: axis, cut: cut, overlap: left.OverlapArea(right), area: left.Area() + right.Area()}
		if !bestSet || d.overlap < best.overlap || (d.overlap == best.overlap && d.area < best.area) {
			best = d
			bestSet = true
		}
	}
	g1, g2 = t.splitGroups(n, best)
	return g1, g2, best.axis
}

// splitGroups converts a distribution into two index groups by re-deriving
// the axis order.
func (t *Tree) splitGroups(n *xnode, d distribution) (g1, g2 []int) {
	order := make([]int, len(n.entries))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ra, rb := n.entries[order[a]].rect, n.entries[order[b]].rect
		if ra.Lo[d.axis] != rb.Lo[d.axis] {
			return ra.Lo[d.axis] < rb.Lo[d.axis]
		}
		return ra.Hi[d.axis] < rb.Hi[d.axis]
	})
	g1 = append(g1, order[:d.cut]...)
	g2 = append(g2, order[d.cut:]...)
	return g1, g2
}

// overlapRatio measures the groups' MBR overlap relative to their union
// area.
func (t *Tree) overlapRatio(n *xnode, g1, g2 []int) float64 {
	r1 := n.entries[g1[0]].rect.Clone()
	for _, i := range g1[1:] {
		r1.Enlarge(n.entries[i].rect)
	}
	r2 := n.entries[g2[0]].rect.Clone()
	for _, i := range g2[1:] {
		r2.Enlarge(n.entries[i].rect)
	}
	ov := r1.OverlapArea(r2)
	if ov == 0 {
		return 0
	}
	return ov / Union(r1, r2).Area()
}

// materializeSplit applies a partition: n keeps group 1, the returned new
// sibling gets group 2, and both record the split dimension in their
// history.
func (t *Tree) materializeSplit(n *xnode, g1, g2 []int, dim int) *xnode {
	take := func(group []int) []xentry {
		out := make([]xentry, len(group))
		for i, g := range group {
			out[i] = n.entries[g]
		}
		return out
	}
	e1, e2 := take(g1), take(g2)
	sibling := &xnode{leaf: n.leaf, entries: e2, splitDim: dim}
	n.entries = e1
	n.splitDim = dim
	n.blocks = t.blocksForEntries(len(e1), n.leaf)
	sibling.blocks = t.blocksForEntries(len(e2), n.leaf)
	t.nodes++
	return sibling
}

func (t *Tree) blocksForEntries(entries int, leaf bool) int {
	per := t.cfg.DirCapacity
	if leaf {
		per = t.cfg.LeafCapacity
	}
	b := (entries + per - 1) / per
	if b < 1 {
		b = 1
	}
	return b
}
