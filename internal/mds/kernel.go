package mds

import (
	"fmt"
	"slices"

	"github.com/dcindex/dctree/internal/hierarchy"
)

// The write-path kernel: the set arithmetic of Cover computed into storage
// the caller owns, lifting through the hierarchy's dense ancestor tables, and
// the counts of Overlap, Extension and Volume taken without building a set.
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

// The count kernels: what the hierarchy split asks of two value sets is only
// ever how many values a union, an intersection or a difference holds, so
// these walk sorted duplicate-free ID slices of one level and build nothing.

// IntersectCount returns |a ∩ b|.
func IntersectCount(a, b []hierarchy.ID) int {
	i, j, n := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// UnionCount returns |a ∪ b|.
func UnionCount(a, b []hierarchy.ID) int {
	return len(a) + len(b) - IntersectCount(a, b)
}

// MemberCounts sorts the values of s by which of a and b hold them and
// returns how many are in a alone, in b alone and in neither. With a and b
// the covers of the split's two groups and s the entry being assigned, the
// cover a would gain |s \ a| = onlyB + neither values, onlyB of which b
// already has — and the same for b with onlyA.
func MemberCounts(s, a, b []hierarchy.ID) (onlyA, onlyB, neither int) {
	if len(s) == 1 {
		// A record's coordinate: two searches beat walking both covers.
		switch inA, inB := memberSorted(a, s[0]), memberSorted(b, s[0]); {
		case inA && !inB:
			return 1, 0, 0
		case inB && !inA:
			return 0, 1, 0
		case !inA:
			return 0, 0, 1
		}
		return 0, 0, 0
	}
	i, j := 0, 0
	for _, x := range s {
		for i < len(a) && a[i] < x {
			i++
		}
		for j < len(b) && b[j] < x {
			j++
		}
		inA, inB := i < len(a) && a[i] == x, j < len(b) && b[j] == x
		switch {
		case inA && !inB:
			onlyA++
		case inB && !inA:
			onlyB++
		case !inA:
			neither++
		}
	}
	return onlyA, onlyB, neither
}

// AppendMissing appends s \ ids to dst, in order.
func AppendMissing(dst, s, ids []hierarchy.ID) []hierarchy.ID {
	j := 0
	for _, x := range s {
		for j < len(ids) && ids[j] < x {
			j++
		}
		if j == len(ids) || ids[j] != x {
			dst = append(dst, x)
		}
	}
	return dst
}

// MergeDisjoint inserts the sorted values of add, none of which ids holds,
// into the sorted set ids in place (growing it as append does) and returns
// it: merged from the back, so no value moves twice.
func MergeDisjoint(ids, add []hierarchy.ID) []hierarchy.ID {
	i, j := len(ids)-1, len(add)-1
	ids = append(ids, add...)
	for k := len(ids) - 1; j >= 0; k-- {
		if i >= 0 && ids[i] > add[j] {
			ids[k] = ids[i]
			i--
		} else {
			ids[k] = add[j]
			j--
		}
	}
	return ids
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
