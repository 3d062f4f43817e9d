package mds

import (
	"fmt"
	"slices"

	"github.com/dcindex/dctree/internal/hierarchy"
)

// The write-path kernel: the set arithmetic of Cover computed into storage
// the caller owns, lifting through the hierarchy's dense ancestor tables.
// Cover, Adapt and liftDim stay the allocating, checked reference these are
// tested against; the kernel is for callers (the DC-tree's insert, split and
// delete paths) whose operands are known to be valid MDSs of the space.

// AppendLifted appends to dst the values of d lifted to level, in d's
// order: the result is neither sorted nor duplicate-free unless level is
// d's own (see SortDedupFrom). level must be at or above d.Level and every
// value registered in h — there are no checks, each value is one table load.
func AppendLifted(dst []hierarchy.ID, h *hierarchy.Hierarchy, d DimSet, level int) []hierarchy.ID {
	switch level {
	case d.Level:
		return append(dst, d.IDs...)
	case hierarchy.LevelALL:
		return append(dst, hierarchy.ALL)
	}
	tab := h.AncestorTable(d.Level, level)
	for _, id := range d.IDs {
		dst = append(dst, tab[id.Code()])
	}
	return dst
}

// SortDedupFrom sorts ids[from:] in place, drops its duplicates and returns
// ids cut to what is left: the way to close a value set that AppendLifted
// calls have appended after position from.
func SortDedupFrom(ids []hierarchy.ID, from int) []hierarchy.ID {
	tail := ids[from:]
	slices.Sort(tail)
	return ids[:from+len(dedupSorted(tail))]
}

// unionInto appends the sorted union of two sorted ID slices to dst, which
// must not share memory with either.
func unionInto(dst, a, b []hierarchy.ID) []hierarchy.ID {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			dst = append(dst, a[i])
			i++
		case a[i] > b[j]:
			dst = append(dst, b[j])
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}

// CoverBuf is caller-owned storage for CoverInto. The zero value is ready
// for use; one buffer holds one result at a time.
type CoverBuf struct {
	dims []DimSet
	ids  []hierarchy.ID
}

// CoverInto is the k-way Cover computed into buf: per dimension one pass
// lifts every member's values to the cover's level and one sort merges
// them, where Cover builds and discards a union per member. atLeast, when
// non-nil, holds one level per dimension below which the cover's level may
// not fall: CoverInto(buf, space, levels, members) equals
// AdaptToLevels(space, Cover(members), levels).
//
// The returned MDS and its value sets are carved from buf and stay valid
// until buf is used again, so no member may be a result of the same buffer;
// callers that keep the result Clone it.
func CoverInto(buf *CoverBuf, space Space, atLeast []int, members []MDS) (MDS, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("%w: cover of zero MDSs", ErrBadDimSet)
	}
	dims := len(space)
	if atLeast != nil && len(atLeast) != dims {
		return nil, ErrDimMismatch
	}
	for _, m := range members {
		if len(m) != dims {
			return nil, ErrDimMismatch
		}
	}
	buf.dims, buf.ids = buf.dims[:0], buf.ids[:0]
	for i, h := range space {
		level := 0
		if atLeast != nil {
			level = atLeast[i]
		}
		for _, m := range members {
			if levelAbove(m[i].Level, level) {
				level = m[i].Level
			}
		}
		start := len(buf.ids)
		switch {
		case level == hierarchy.LevelALL:
			buf.ids = append(buf.ids, hierarchy.ALL)
		case len(members) == 2 && members[0][i].Level == level && members[1][i].Level == level:
			// The split's incremental group covers: two sorted sets of one
			// level merge without the sort.
			buf.ids = unionInto(buf.ids, members[0][i].IDs, members[1][i].IDs)
		default:
			for _, m := range members {
				buf.ids = AppendLifted(buf.ids, h, m[i], level)
			}
			buf.ids = SortDedupFrom(buf.ids, start)
		}
		buf.dims = append(buf.dims, DimSet{Level: level, IDs: buf.ids[start:len(buf.ids):len(buf.ids)]})
	}
	return MDS(buf.dims), nil
}
