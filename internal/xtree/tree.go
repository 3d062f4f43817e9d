package xtree

import (
	"errors"
	"fmt"
)

// Config carries the X-tree's tuning knobs; the defaults mirror the
// published parameters (35 % minimum fanout for the overlap-minimal split,
// 20 % maximum overlap for the topological split).
type Config struct {
	DirCapacity        int
	LeafCapacity       int
	MinFillRatio       float64
	MaxOverlapRatio    float64
	MaxSupernodeBlocks int
}

// DefaultConfig returns the baseline configuration. The capacities match
// the DC-tree defaults so both trees see comparable fanouts.
func DefaultConfig() Config {
	return Config{
		DirCapacity:        24,
		LeafCapacity:       48,
		MinFillRatio:       0.35,
		MaxOverlapRatio:    0.20,
		MaxSupernodeBlocks: 64,
	}
}

// Errors returned by the X-tree.
var (
	ErrBadConfig = errors.New("xtree: invalid configuration")
	ErrBadPoint  = errors.New("xtree: point dimensionality mismatch")
)

func (c *Config) normalize() error {
	d := DefaultConfig()
	if c.DirCapacity == 0 {
		c.DirCapacity = d.DirCapacity
	}
	if c.LeafCapacity == 0 {
		c.LeafCapacity = d.LeafCapacity
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
	switch {
	case c.DirCapacity < 4 || c.LeafCapacity < 4:
		return fmt.Errorf("%w: capacities too small", ErrBadConfig)
	case c.MinFillRatio < 0 || c.MinFillRatio > 0.5:
		return fmt.Errorf("%w: min fill ratio %g", ErrBadConfig, c.MinFillRatio)
	case c.MaxOverlapRatio < 0 || c.MaxOverlapRatio > 1:
		return fmt.Errorf("%w: max overlap ratio %g", ErrBadConfig, c.MaxOverlapRatio)
	}
	return nil
}

// xentry is one slot of an X-tree node: a child reference with its MBR, or
// a data point with its measure, in units of its scale.
type xentry struct {
	rect  Rect
	child *xnode // directory entries
	point Point  // leaf entries
	units int64  // leaf entries
}

// xnode is an X-tree node. splitDim records the dimension along which the
// node's contents were last split — the "split history" that the
// overlap-minimal split exploits.
type xnode struct {
	leaf     bool
	blocks   int
	entries  []xentry
	splitDim int // -1 until the node participates in a split
}

func (n *xnode) capacity(cfg *Config) int {
	per := cfg.DirCapacity
	if n.leaf {
		per = cfg.LeafCapacity
	}
	return per * n.blocks
}

func (n *xnode) overflowing(cfg *Config) bool {
	return len(n.entries) > n.capacity(cfg)
}

func (n *xnode) mbr() Rect {
	r := n.entries[0].rect.Clone()
	for _, e := range n.entries[1:] {
		r.Enlarge(e.rect)
	}
	return r
}

// Tree is an in-memory X-tree over D-dimensional integer points. Like the
// paper's experimental setup, the baseline runs memory-resident; all
// block-level behaviour (capacities, supernodes) is simulated through the
// entry capacities.
type Tree struct {
	dims   int
	cfg    Config
	root   *xnode
	height int
	count  int64
	nodes  int
	supers int
}

// New creates an empty X-tree for D-dimensional points.
func New(dims int, cfg Config) (*Tree, error) {
	if dims < 1 {
		return nil, fmt.Errorf("%w: %d dims", ErrBadConfig, dims)
	}
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	return &Tree{
		dims:   dims,
		cfg:    cfg,
		root:   &xnode{leaf: true, blocks: 1, splitDim: -1},
		height: 1,
		nodes:  1,
	}, nil
}

// Dims returns the point dimensionality.
func (t *Tree) Dims() int { return t.dims }

// Count returns the number of stored points.
func (t *Tree) Count() int64 { return t.count }

// Height returns the number of levels.
func (t *Tree) Height() int { return t.height }

// NodeCount returns the number of live nodes.
func (t *Tree) NodeCount() int { return t.nodes }

// SupernodeCount returns how many live nodes are supernodes.
func (t *Tree) SupernodeCount() int {
	n := 0
	var walk func(x *xnode)
	walk = func(x *xnode) {
		if x.blocks > 1 {
			n++
		}
		if x.leaf {
			return
		}
		for _, e := range x.entries {
			walk(e.child)
		}
	}
	walk(t.root)
	return n
}

// Insert adds one point with its measure value in units of its scale
// (cube.Schema.Units).
func (t *Tree) Insert(p Point, units int64) error {
	if len(p) != t.dims {
		return fmt.Errorf("%w: got %d, want %d", ErrBadPoint, len(p), t.dims)
	}
	newChild := t.insertInto(t.root, p, units)
	if newChild != nil {
		oldRoot := t.root
		t.root = &xnode{
			leaf:     false,
			blocks:   1,
			splitDim: -1,
			entries: []xentry{
				{rect: oldRoot.mbr(), child: oldRoot},
				{rect: newChild.mbr(), child: newChild},
			},
		}
		t.nodes++
		t.height++
	}
	t.count++
	return nil
}

// insertInto inserts the point below n and returns a new sibling if n was
// split.
func (t *Tree) insertInto(n *xnode, p Point, units int64) *xnode {
	if n.leaf {
		n.entries = append(n.entries, xentry{rect: RectOf(p), point: append(Point(nil), p...), units: units})
		if n.overflowing(&t.cfg) {
			return t.splitNode(n)
		}
		return nil
	}
	idx := t.chooseSubtree(n, p)
	e := &n.entries[idx]
	e.rect.EnlargePoint(p)
	if sibling := t.insertInto(e.child, p, units); sibling != nil {
		e.rect = e.child.mbr()
		n.entries = append(n.entries, xentry{rect: sibling.mbr(), child: sibling})
		if n.overflowing(&t.cfg) {
			return t.splitNode(n)
		}
	}
	return nil
}

// chooseSubtree picks the child whose MBR needs the least growth, R*-style:
// at the level above the leaves the overlap enlargement decides first;
// everywhere the area enlargement and then the absolute area break ties.
func (t *Tree) chooseSubtree(n *xnode, p Point) int {
	childIsLeaf := len(n.entries) > 0 && n.entries[0].child.leaf

	best := 0
	var bestOverlapDelta, bestAreaDelta, bestArea float64
	for i := range n.entries {
		e := &n.entries[i]
		grown := e.rect.Clone()
		grown.EnlargePoint(p)
		areaDelta := grown.Area() - e.rect.Area()
		area := e.rect.Area()

		overlapDelta := 0.0
		if childIsLeaf {
			for j := range n.entries {
				if j == i {
					continue
				}
				overlapDelta += grown.OverlapArea(n.entries[j].rect) - e.rect.OverlapArea(n.entries[j].rect)
			}
		}
		if i == 0 {
			bestOverlapDelta, bestAreaDelta, bestArea = overlapDelta, areaDelta, area
			continue
		}
		better := false
		switch {
		case childIsLeaf && overlapDelta != bestOverlapDelta:
			better = overlapDelta < bestOverlapDelta
		case areaDelta != bestAreaDelta:
			better = areaDelta < bestAreaDelta
		default:
			better = area < bestArea
		}
		if better {
			best, bestOverlapDelta, bestAreaDelta, bestArea = i, overlapDelta, areaDelta, area
		}
	}
	return best
}
