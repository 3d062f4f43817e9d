package index

import "fmt"

// Config carries the knobs of the paper's algorithms. The zero value is not
// usable; DefaultConfig returns the values used throughout the paper
// reproduction, and Normalize fills unset fields.
type Config struct {
	// DirCapacity is the maximum number of entries of a one-block
	// directory node; a supernode of b blocks holds b×DirCapacity.
	DirCapacity int

	// LeafCapacity is the maximum number of data records of a one-block
	// data node. 0, the default, is the block-filled data node: a node is
	// one block, as the X-tree's are (§4.2), so its capacity is as many
	// rows as one block's payload holds. Only the host knows its block,
	// so the host resolves 0 with LeafCapacityFor before New — 169 rows of
	// the TPC-D cube at 4 KiB — and Normalize leaves it alone.
	LeafCapacity int

	// MinFillRatio is the balance criterion of the split algorithm: a
	// split is acceptable only if each group receives at least this
	// fraction of the entries (§4.2 "nodes are balanced").
	MinFillRatio float64

	// MaxOverlapRatio is the overlap criterion of the split algorithm: a
	// split is acceptable only if overlap(G1,G2)/extension(G1,G2) does not
	// exceed this fraction (§4.2 "overlap is not too high"). The default
	// matches the X-tree's published 20 % threshold.
	MaxOverlapRatio float64

	// MaxSupernodeBlocks caps supernode growth as a safety valve; at the
	// cap the node accepts an unbalanced topological fallback split
	// instead of growing further. 0 selects the default (64): there is no
	// uncapped setting. 1: no supernodes; every failed split is forced (the
	// ablation of the X-tree inheritance). Kept as a field, not a constant,
	// because the meta blob persists it: a tree reopens under the cap it
	// was built with.
	MaxSupernodeBlocks int

	// RefineBound controls how eagerly a freshly split node's MDS lowers
	// its relevant levels: after a split, every dimension descends to the
	// finest hierarchy level at which the node's value set still has at
	// most RefineBound values. Lower levels make directory MDSs more
	// precise — more query pruning and more materialized-aggregate hits —
	// at the cost of larger MDSs. It also bounds what an entry may grow
	// to: a dimension that a split's cover or an insert leaves with more
	// than 2 × RefineBound values is lifted one level until it fits (ALL
	// past the top named level); the factor 2 keeps refinement and lifting
	// from undoing each other. 0 selects the default; -1 disables both
	// (the relevant level then only decreases via the split dimension
	// itself, and entries grow without bound).
	RefineBound int

	// Materialize controls whether directory entries store the aggregates
	// of their subtrees. Disabling it (ablation) forces every range query
	// to descend to the data nodes, like the X-tree baseline.
	//
	// This and FlatChooseSubtree below exist for ablations, not for
	// production: BenchmarkAblationNoMaterialization and the shape
	// goldens' ablation trees set them, and TestAblationsAgreeWithDefault
	// holds every variant to the default's answers. The meta blob persists
	// them.
	Materialize bool

	// FlatChooseSubtree makes the insert path weigh every new attribute
	// value equally instead of geometrically favoring coarse levels
	// (ablation). With it, records scatter across the coarse partition —
	// one new region costs the same as one new customer — and the tree
	// degenerates into unsplittable supernodes; see DESIGN.md §3.1.
	FlatChooseSubtree bool
}

// DefaultConfig returns the configuration used by the paper reproduction;
// its LeafCapacity is left for the host to resolve.
func DefaultConfig() Config {
	return Config{
		DirCapacity:        24,
		MinFillRatio:       0.35,
		MaxOverlapRatio:    0.20,
		MaxSupernodeBlocks: 64,
		RefineBound:        8,
		Materialize:        true,
	}
}

// Normalize fills unset fields from DefaultConfig and validates ranges. A
// zero LeafCapacity stays zero: New and Restore need it resolved.
func (c *Config) Normalize() error {
	d := DefaultConfig()
	if c.DirCapacity == 0 {
		c.DirCapacity = d.DirCapacity
	}
	if c.MinFillRatio == 0 {
		c.MinFillRatio = d.MinFillRatio
	}
	if c.MaxOverlapRatio == 0 {
		c.MaxOverlapRatio = d.MaxOverlapRatio
	}
	if c.MaxSupernodeBlocks == 0 {
		c.MaxSupernodeBlocks = d.MaxSupernodeBlocks
	}
	if c.RefineBound == 0 {
		c.RefineBound = d.RefineBound
	}
	switch {
	case c.DirCapacity < 4:
		return fmt.Errorf("%w: directory capacity %d < 4", ErrBadConfig, c.DirCapacity)
	case c.LeafCapacity < 4 && c.LeafCapacity != 0:
		return fmt.Errorf("%w: leaf capacity %d < 4", ErrBadConfig, c.LeafCapacity)
	case c.MinFillRatio < 0 || c.MinFillRatio > 0.5:
		return fmt.Errorf("%w: min fill ratio %g outside [0,0.5]", ErrBadConfig, c.MinFillRatio)
	case c.MaxOverlapRatio < 0 || c.MaxOverlapRatio > 1:
		return fmt.Errorf("%w: max overlap ratio %g outside [0,1]", ErrBadConfig, c.MaxOverlapRatio)
	case c.MaxSupernodeBlocks < 0:
		return fmt.Errorf("%w: negative supernode cap", ErrBadConfig)
	case c.RefineBound < -1:
		return fmt.Errorf("%w: refine bound below -1", ErrBadConfig)
	}
	return nil
}
