// Package mds implements minimum describing sequences (MDSs), the
// approximation the DC-tree uses in place of minimum bounding rectangles
// (Ester, Kohlhammer, Kriegel, ICDE 2000, §3.2).
//
// An MDS describes a subcube of a data cube with one entry per dimension.
// The entry for dimension i is a pair (dᵢ, lᵢ): a set of attribute values dᵢ
// that all belong to the relevant level lᵢ of the dimension's concept
// hierarchy. Unlike an MBR, an MDS enumerates exactly the values that occur
// (coverage + minimality, Definition 3), so it covers far less dead space in
// partially ordered dimensions.
//
// All binary operations of Definition 4 (overlap, extension, containment)
// require both operands to hold values of the same hierarchy level in every
// dimension; Align lifts the lower-level operand up by replacing each value
// with its ancestor (the paper's "adapt" step in Figures 5 and 7).
package mds

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"github.com/dcindex/dctree/internal/hierarchy"
)

// Space is the ordered list of concept hierarchies of a data cube's
// dimensions. Every MDS operation is defined relative to a Space.
type Space []*hierarchy.Hierarchy

// Errors returned by MDS operations.
var (
	ErrDimMismatch = errors.New("mds: dimension count mismatch")
	ErrBadDimSet   = errors.New("mds: malformed dimension set")
)

// DimSet is one entry (dᵢ, lᵢ) of an MDS: the set of attribute values for
// one dimension, all at hierarchy level Level. IDs are sorted ascending and
// duplicate-free. The ALL entry is represented as Level =
// hierarchy.LevelALL with the single ID hierarchy.ALL.
type DimSet struct {
	Level int
	IDs   []hierarchy.ID
}

// MDS is a minimum describing sequence: one DimSet per dimension of the
// Space.
type MDS []DimSet

// AllDim returns the DimSet describing "every value" of a dimension.
func AllDim() DimSet {
	return DimSet{Level: hierarchy.LevelALL, IDs: []hierarchy.ID{hierarchy.ALL}}
}

// Top returns the MDS (ALL, ..., ALL): the initial MDS of a fresh DC-tree.
func Top(dims int) MDS {
	m := make(MDS, dims)
	for i := range m {
		m[i] = AllDim()
	}
	return m
}

// FromLeaves builds the MDS of a single data record: one singleton set at
// leaf level 0 per dimension. ids must be leaf-level IDs, one per dimension.
func FromLeaves(ids []hierarchy.ID) MDS {
	m := make(MDS, len(ids))
	for i, id := range ids {
		m[i] = DimSet{Level: id.Level(), IDs: []hierarchy.ID{id}}
	}
	return m
}

// Clone returns a deep copy of the MDS.
func (m MDS) Clone() MDS {
	out := make(MDS, len(m))
	for i, d := range m {
		out[i] = DimSet{Level: d.Level, IDs: append([]hierarchy.ID(nil), d.IDs...)}
	}
	return out
}

// Equal reports whether two MDSs are structurally identical.
func (m MDS) Equal(n MDS) bool {
	if len(m) != len(n) {
		return false
	}
	for i := range m {
		if m[i].Level != n[i].Level || len(m[i].IDs) != len(n[i].IDs) {
			return false
		}
		for j := range m[i].IDs {
			if m[i].IDs[j] != n[i].IDs[j] {
				return false
			}
		}
	}
	return true
}

// Size is Definition 4's size(M) = Σᵢ |Mᵢ|: the total number of stored
// attribute values, i.e. the storage footprint driver of the MDS.
func (m MDS) Size() int {
	n := 0
	for _, d := range m {
		n += len(d.IDs)
	}
	return n
}

// Volume is Definition 4's volume(M) = Πᵢ |Mᵢ|, the number of potential
// subcube cells the MDS describes. Returned as float64: per-dimension
// cardinalities are exact small integers, and the product is used only for
// comparisons, where float64 cannot turn a nonzero volume into zero.
func (m MDS) Volume() float64 {
	v := 1.0
	for _, d := range m {
		v *= float64(len(d.IDs))
	}
	return v
}

// Validate checks the structural invariants of the MDS: one DimSet per
// dimension of the space, sorted duplicate-free IDs, every ID at the
// declared level, and the ALL encoding used exactly for ALL entries.
func (m MDS) Validate(space Space) error {
	if len(m) != len(space) {
		return fmt.Errorf("%w: mds has %d dims, space has %d", ErrDimMismatch, len(m), len(space))
	}
	for i, d := range m {
		if len(d.IDs) == 0 {
			return fmt.Errorf("%w: dim %d empty", ErrBadDimSet, i)
		}
		if d.Level == hierarchy.LevelALL {
			if len(d.IDs) != 1 || !d.IDs[0].IsALL() {
				return fmt.Errorf("%w: dim %d at level ALL must be exactly {ALL}", ErrBadDimSet, i)
			}
			continue
		}
		if d.Level < 0 || d.Level >= space[i].Depth() {
			return fmt.Errorf("%w: dim %d level %d outside hierarchy %q", ErrBadDimSet, i, d.Level, space[i].Name())
		}
		for j, id := range d.IDs {
			if id.Level() != d.Level {
				return fmt.Errorf("%w: dim %d id %v not at relevant level %d", ErrBadDimSet, i, id, d.Level)
			}
			if j > 0 && d.IDs[j-1] >= id {
				return fmt.Errorf("%w: dim %d ids not strictly sorted at %d", ErrBadDimSet, i, j)
			}
		}
	}
	return nil
}

// liftDim lifts a DimSet to a higher level of its hierarchy, replacing every
// value with its ancestor at the target level and deduplicating. Lifting to
// LevelALL yields the ALL entry.
func liftDim(h *hierarchy.Hierarchy, d DimSet, level int) (DimSet, error) {
	if level == d.Level {
		return d, nil
	}
	if level == hierarchy.LevelALL {
		return AllDim(), nil
	}
	if level < d.Level {
		return DimSet{}, fmt.Errorf("%w: cannot lower level %d to %d", ErrBadDimSet, d.Level, level)
	}
	lifted := make([]hierarchy.ID, 0, len(d.IDs))
	for _, id := range d.IDs {
		anc, err := h.AncestorAt(id, level)
		if err != nil {
			return DimSet{}, err
		}
		lifted = append(lifted, anc)
	}
	hierarchy.SortIDs(lifted)
	lifted = dedupSorted(lifted)
	return DimSet{Level: level, IDs: lifted}, nil
}

func dedupSorted(ids []hierarchy.ID) []hierarchy.ID {
	out := ids[:0]
	for i, id := range ids {
		if i == 0 || ids[i-1] != id {
			out = append(out, id)
		}
	}
	return out
}

// Adapt lifts m so that in every dimension its level is at least the level
// of n (the paper's "Adapt MDSs of entries to MDS of directory node").
// Dimensions where m is already at or above n's level are unchanged.
func Adapt(space Space, m, n MDS) (MDS, error) {
	if len(m) != len(n) || len(m) != len(space) {
		return nil, ErrDimMismatch
	}
	out := make(MDS, len(m))
	for i := range m {
		target := m[i].Level
		if levelAbove(n[i].Level, target) {
			target = n[i].Level
		}
		d, err := liftDim(space[i], m[i], target)
		if err != nil {
			return nil, err
		}
		out[i] = d
	}
	return out, nil
}

// levelAbove reports whether level a is strictly above level b in the
// concept hierarchy, treating LevelALL as the top.
func levelAbove(a, b int) bool {
	if a == b {
		return false
	}
	if a == hierarchy.LevelALL {
		return true
	}
	if b == hierarchy.LevelALL {
		return false
	}
	return a > b
}

// AdaptToLevels lifts m so that dimension i sits at least at levels[i]
// (hierarchy.LevelALL for the ALL entry). Dimensions already at or above
// their target are unchanged. This is the workhorse of the DC-tree's
// split: the node's relevant levels, with the split dimension lowered by
// one, become the adaptation target.
func AdaptToLevels(space Space, m MDS, levels []int) (MDS, error) {
	if len(m) != len(levels) || len(m) != len(space) {
		return nil, ErrDimMismatch
	}
	out := make(MDS, len(m))
	for i := range m {
		target := m[i].Level
		if levelAbove(levels[i], target) {
			target = levels[i]
		}
		d, err := liftDim(space[i], m[i], target)
		if err != nil {
			return nil, err
		}
		out[i] = d
	}
	return out, nil
}

// Align lifts both operands dimension-wise to their common (higher) level,
// as required before any Definition 4 operation. This is the adaption loop
// of the range-query algorithm (Fig. 7), where either operand may hold the
// higher-level values.
func Align(space Space, m, n MDS) (MDS, MDS, error) {
	am, err := Adapt(space, m, n)
	if err != nil {
		return nil, nil, err
	}
	an, err := Adapt(space, n, m)
	if err != nil {
		return nil, nil, err
	}
	return am, an, nil
}

// unionSorted returns the sorted union of two sorted ID slices.
func unionSorted(a, b []hierarchy.ID) []hierarchy.ID {
	return unionInto(make([]hierarchy.ID, 0, len(a)+len(b)), a, b)
}

// Overlap is Definition 4's overlap(M,N) = Πᵢ |Mᵢ ∩ Nᵢ| after aligning both
// operands. A zero result means the described subcubes are disjoint, which
// is the pruning test of the range-query algorithm.
//
// Overlap and Extension align one dimension at a time and lift only the
// lower operand of a dimension whose levels differ, so operands that
// already share levels — every pair the hierarchy split compares — cost no
// allocation.
func Overlap(space Space, m, n MDS) (float64, error) {
	if len(m) != len(n) || len(m) != len(space) {
		return 0, ErrDimMismatch
	}
	v := 1.0
	for i := range space {
		a, b := m[i], n[i]
		if a.Level != b.Level {
			var err error
			if a, b, err = alignDim(space, m, n, i); err != nil {
				return 0, err
			}
		}
		c := IntersectCount(a.IDs, b.IDs)
		if c == 0 {
			return 0, nil
		}
		v *= float64(c)
	}
	return v, nil
}

// Extension is Definition 4's extension(M,N) = Πᵢ |Mᵢ ∪ Nᵢ| after aligning
// both operands: the volume the union of the two MDSs would describe.
func Extension(space Space, m, n MDS) (float64, error) {
	if len(m) != len(n) || len(m) != len(space) {
		return 0, ErrDimMismatch
	}
	v := 1.0
	for i := range space {
		a, b := m[i], n[i]
		if a.Level != b.Level {
			var err error
			if a, b, err = alignDim(space, m, n, i); err != nil {
				return 0, err
			}
		}
		v *= float64(UnionCount(a.IDs, b.IDs))
	}
	return v, nil
}

// Contains reports Definition 4's containment: n contains m iff for every
// dimension i and every value mᵢ ∈ Mᵢ there is some nᵢ ∈ Nᵢ with mᵢ ⪯ nᵢ.
// The operands need not be level-aligned; m's values are lifted to n's
// level per dimension. If m sits at a higher level than n in some dimension
// (m is coarser), containment is false unless n's entry is ALL.
func Contains(space Space, n, m MDS) (bool, error) {
	if len(m) != len(n) || len(m) != len(space) {
		return false, ErrDimMismatch
	}
	for i := range m {
		if n[i].Level == hierarchy.LevelALL {
			continue
		}
		if levelAbove(m[i].Level, n[i].Level) {
			return false, nil
		}
		lifted, err := liftDim(space[i], m[i], n[i].Level)
		if err != nil {
			return false, err
		}
		if !subsetSorted(lifted.IDs, n[i].IDs) {
			return false, nil
		}
	}
	return true, nil
}

// subsetSorted reports a ⊆ b for sorted slices.
func subsetSorted(a, b []hierarchy.ID) bool {
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j == len(b) || b[j] != x {
			return false
		}
	}
	return true
}

// ContainsLeaves reports whether the MDS covers a data record given by its
// leaf-level IDs: for every dimension, the record's value lifted to the
// MDS's relevant level must be a member of the dimension set. This is the
// membership test used at data nodes and by the sequential-scan baseline.
func (m MDS) ContainsLeaves(space Space, leaves []hierarchy.ID) (bool, error) {
	if len(leaves) != len(m) || len(m) != len(space) {
		return false, ErrDimMismatch
	}
	for i, leaf := range leaves {
		if m[i].Level == hierarchy.LevelALL {
			continue
		}
		anc, err := space[i].AncestorAt(leaf, m[i].Level)
		if err != nil {
			return false, err
		}
		if !memberSorted(m[i].IDs, anc) {
			return false, nil
		}
	}
	return true, nil
}

func memberSorted(ids []hierarchy.ID, id hierarchy.ID) bool {
	_, found := slices.BinarySearch(ids, id)
	return found
}

// Cover computes the minimum describing sequence of a set of MDSs: per
// dimension the relevant level is the highest member level (coverage
// requires lifting every member; minimality forbids lifting further), and
// the value set is the union of the members' values at that level.
//
// Cover is how a node's MDS is (re)computed from its entries. Because the
// entries' MDSs live at lower levels than the node they came from, the
// cover after a hierarchy split naturally "decreases the relevant level"
// of the split dimension exactly as §3.2 describes.
func Cover(space Space, members ...MDS) (MDS, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("%w: cover of zero MDSs", ErrBadDimSet)
	}
	dims := len(space)
	out := make(MDS, dims)
	for i := 0; i < dims; i++ {
		level := 0
		for _, m := range members {
			if len(m) != dims {
				return nil, ErrDimMismatch
			}
			if levelAbove(m[i].Level, level) {
				level = m[i].Level
			}
		}
		if level == hierarchy.LevelALL {
			out[i] = AllDim()
			continue
		}
		var union []hierarchy.ID
		for _, m := range members {
			lifted, err := liftDim(space[i], m[i], level)
			if err != nil {
				return nil, err
			}
			union = unionSorted(union, lifted.IDs)
		}
		out[i] = DimSet{Level: level, IDs: union}
	}
	return out, nil
}

// String renders the MDS compactly, e.g.
// "({L2#0,L2#3}@2, {ALL}, {L0#1}@0)".
func (m MDS) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, d := range m {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteByte('{')
		for j, id := range d.IDs {
			if j > 0 {
				b.WriteByte(',')
			}
			b.WriteString(id.String())
		}
		b.WriteByte('}')
		if d.Level != hierarchy.LevelALL {
			fmt.Fprintf(&b, "@%d", d.Level)
		}
	}
	b.WriteByte(')')
	return b.String()
}

// OverlapIn returns |Mᵢ ∩ Nᵢ| in one dimension after aligning that
// dimension only. The hierarchy split uses per-dimension overlap and union
// sizes to drive its split-dimension decisions (Fig. 6).
func OverlapIn(space Space, m, n MDS, dim int) (int, error) {
	a, b, err := alignDim(space, m, n, dim)
	if err != nil {
		return 0, err
	}
	return IntersectCount(a.IDs, b.IDs), nil
}

// ExtensionIn returns |Mᵢ ∪ Nᵢ| in one dimension after aligning that
// dimension only.
func ExtensionIn(space Space, m, n MDS, dim int) (int, error) {
	a, b, err := alignDim(space, m, n, dim)
	if err != nil {
		return 0, err
	}
	return UnionCount(a.IDs, b.IDs), nil
}

func alignDim(space Space, m, n MDS, dim int) (DimSet, DimSet, error) {
	if dim < 0 || dim >= len(space) || len(m) != len(space) || len(n) != len(space) {
		return DimSet{}, DimSet{}, ErrDimMismatch
	}
	a, b := m[dim], n[dim]
	if levelAbove(b.Level, a.Level) {
		var err error
		a, err = liftDim(space[dim], a, b.Level)
		if err != nil {
			return DimSet{}, DimSet{}, err
		}
	} else if levelAbove(a.Level, b.Level) {
		var err error
		b, err = liftDim(space[dim], b, a.Level)
		if err != nil {
			return DimSet{}, DimSet{}, err
		}
	}
	return a, b, nil
}
