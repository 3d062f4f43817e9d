package index

import "fmt"

// Config carries the knobs of the paper's algorithms. The zero value is not
// usable; DefaultConfig returns the values used throughout the paper
// reproduction, and Normalize fills unset fields. A node has no capacity
// knob: it is one block, as the X-tree's are (§4.2), and holds what its
// encoding fits in its blocks × the one-block payload the host passes to
// New — a directory's entries, whose MDSs vary in size (§3.2), or a data
// node's rows at the byte widths its codes and measures need: 405 TPC-D
// rows at 4 KiB at the benchmark's scales.
type Config struct {
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
	// ablation of the X-tree inheritance). One node passes any cap: a
	// directory of two entries whose bytes overflow its blocks has no split
	// to force, so it grows to the blocks they need (tiny blocks, or
	// RefineBound -1). Kept as a field, not a constant, because the meta
	// blob persists it: a tree reopens under the cap it was built with.
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
}

// DefaultConfig returns the configuration used by the paper reproduction.
func DefaultConfig() Config {
	return Config{
		MinFillRatio:       0.35,
		MaxOverlapRatio:    0.20,
		MaxSupernodeBlocks: 64,
		RefineBound:        8,
	}
}

// Normalize fills unset fields from DefaultConfig and validates ranges.
func (c *Config) Normalize() error {
	d := DefaultConfig()
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
