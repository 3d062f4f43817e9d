package tpcd

import (
	"fmt"
	"math/rand"

	"github.com/dcindex/dctree/internal/hierarchy"
	"github.com/dcindex/dctree/internal/mds"
	"github.com/dcindex/dctree/internal/xtree"
)

// Query is one generated range query in both representations: the
// range_mds the DC-tree and the sequential scan evaluate directly, and the
// equivalent (range_mbr, exact filter) pair for the X-tree (§5.2).
//
// The MBR over-approximates each chosen value set by its [min,max] code
// range under the total ordering; Filter re-checks exact membership per
// point so that all three systems return identical aggregates.
type Query struct {
	MDS    mds.MDS
	Rect   xtree.Rect
	Filter func(xtree.Point) bool
}

// QueryGen draws random range queries of a fixed selectivity, using its
// own random stream so workloads are reproducible independently of record
// generation.
type QueryGen struct {
	g   *Gen
	rng *rand.Rand
}

// Queries returns a query generator over g's cube.
func (g *Gen) Queries(seed int64) *QueryGen {
	return &QueryGen{g: g, rng: rand.New(rand.NewSource(seed))}
}

// Query draws one range query: per dimension a random hierarchy level, and
// a random subset of that level's values containing up to selectivity of
// all attribute values of the chosen level (the paper's generator, §5.2:
// "a selectivity of 25% involves a range that contains up to 25% of all
// attribute values of the chosen level in each dimension").
func (q *QueryGen) Query(selectivity float64) (Query, error) {
	if selectivity <= 0 || selectivity > 1 {
		return Query{}, fmt.Errorf("tpcd: selectivity %g outside (0,1]", selectivity)
	}
	space := q.g.schema.Space()
	rangeMDS := make(mds.MDS, len(space))
	for d, h := range space {
		level := q.rng.Intn(h.Depth())
		n, err := h.CountAt(level)
		if err != nil {
			return Query{}, err
		}
		k := int(selectivity * float64(n))
		if k < 1 {
			k = 1
		}
		if k > n {
			k = n
		}
		perm := q.rng.Perm(n)[:k]
		ids := make([]hierarchy.ID, k)
		for i, p := range perm {
			ids[i] = hierarchy.MakeID(level, uint32(p)) // codes are dense per level
		}
		hierarchy.SortIDs(ids)
		rangeMDS[d] = mds.DimSet{Level: level, IDs: ids}
	}
	rect, filter, err := q.g.ToXQuery(rangeMDS)
	if err != nil {
		return Query{}, err
	}
	return Query{MDS: rangeMDS, Rect: rect, Filter: filter}, nil
}

// Rollup draws an OLAP-style roll-up query: only dims randomly chosen
// dimensions are constrained, each at one of its two coarsest named
// levels with a small value set; the remaining dimensions stay ALL.
// This is the workload of the paper's motivating scenarios (revenue by
// region, by region × year, ...), where the DC-tree answers most of the
// range from materialized directory aggregates.
func (q *QueryGen) Rollup(dims int) (Query, error) {
	space := q.g.schema.Space()
	if dims < 1 || dims > len(space) {
		return Query{}, fmt.Errorf("tpcd: rollup dims %d outside [1,%d]", dims, len(space))
	}
	rangeMDS := make(mds.MDS, len(space))
	for d := range rangeMDS {
		rangeMDS[d] = mds.AllDim()
	}
	perm := q.rng.Perm(len(space))[:dims]
	for _, d := range perm {
		h := space[d]
		level := h.TopLevel() - q.rng.Intn(2)
		if level < 0 {
			level = 0
		}
		n, err := h.CountAt(level)
		if err != nil {
			return Query{}, err
		}
		k := 1 + q.rng.Intn(2)
		if k > n {
			k = n
		}
		idx := q.rng.Perm(n)[:k]
		ids := make([]hierarchy.ID, k)
		for i, p := range idx {
			ids[i] = hierarchy.MakeID(level, uint32(p))
		}
		hierarchy.SortIDs(ids)
		rangeMDS[d] = mds.DimSet{Level: level, IDs: ids}
	}
	rect, filter, err := q.g.ToXQuery(rangeMDS)
	if err != nil {
		return Query{}, err
	}
	return Query{MDS: rangeMDS, Rect: rect, Filter: filter}, nil
}

// ToXQuery converts a range_mds into the X-tree's range_mbr plus an exact
// membership filter. Constrained attribute dimensions get the [min,max]
// code range of the chosen IDs; the other attribute levels of each cube
// dimension stay unconstrained (full code range).
func (g *Gen) ToXQuery(rangeMDS mds.MDS) (xtree.Rect, func(xtree.Point) bool, error) {
	if len(rangeMDS) != g.schema.Dims() {
		return xtree.Rect{}, nil, fmt.Errorf("tpcd: range mds has %d dims, cube has %d",
			len(rangeMDS), g.schema.Dims())
	}
	space := g.schema.Space()
	lo := make([]uint32, len(g.xdims))
	hi := make([]uint32, len(g.xdims))
	type constraint struct {
		xidx int
		set  map[uint32]struct{}
	}
	var constraints []constraint

	for i, xd := range g.xdims {
		ds := rangeMDS[xd.dim]
		if ds.Level == hierarchy.LevelALL || ds.Level != xd.level {
			// Unconstrained attribute level: full code range.
			count, err := space[xd.dim].CountAt(xd.level)
			if err != nil {
				return xtree.Rect{}, nil, err
			}
			lo[i] = 0
			if count > 0 {
				hi[i] = uint32(count - 1)
			}
			continue
		}
		set := make(map[uint32]struct{}, len(ds.IDs))
		min, max := uint32(hierarchy.MaxCode), uint32(0)
		for _, id := range ds.IDs {
			c := id.Code()
			set[c] = struct{}{}
			if c < min {
				min = c
			}
			if c > max {
				max = c
			}
		}
		lo[i], hi[i] = min, max
		constraints = append(constraints, constraint{xidx: i, set: set})
	}
	filter := func(p xtree.Point) bool {
		for _, c := range constraints {
			if _, ok := c.set[p[c.xidx]]; !ok {
				return false
			}
		}
		return true
	}
	return xtree.Rect{Lo: lo, Hi: hi}, filter, nil
}
