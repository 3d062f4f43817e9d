// Package tpcd generates the evaluation workload of the DC-tree paper: a
// data cube derived from the TPC Benchmark D database (§5.1, Figures 8/9).
//
// The original experiments load a flat file produced by SQL selects over
// TPC-D data. This reproduction substitutes a deterministic synthetic
// generator with the paper's exact simplified schema — four dimensions
// (Customer, Supplier, Part, Time) whose hierarchy schemata and
// cardinality ratios follow TPC-D, plus the measure Extended Price — which
// exercises the identical code paths (see DESIGN.md, Substitutions).
//
// The package also implements the paper's range-query generator (§5.2):
// a random hierarchy level per dimension, a random value subset bounded by
// the selectivity, and the conversion of the resulting range_mds into a
// range_mbr over the 13 totally ordered attribute dimensions of the X-tree
// baseline (Fig. 10).
package tpcd

import (
	"fmt"
	"math/rand"

	"github.com/dcindex/dctree/internal/cube"
	"github.com/dcindex/dctree/internal/hierarchy"
	"github.com/dcindex/dctree/internal/xtree"
)

// Scale fixes the dimension cardinalities. The paper's data sets range
// from 100,000 to 300,000 records over TPC-D's fixed dimension tables;
// DefaultScale mirrors the TPC-D ratios at a laptop-friendly size.
type Scale struct {
	Regions           int
	NationsPerRegion  int
	SegmentsPerNation int
	Customers         int
	Suppliers         int
	Brands            int
	TypesPerBrand     int
	Parts             int
	Years             int
	DaysPerMonth      int
}

// DefaultScale matches TPC-D's shape: 5 regions, 25 nations, 5 market
// segments, 25 brands, 150 part types, 7 years of dates (1992–1998).
func DefaultScale() Scale {
	return Scale{
		Regions:           5,
		NationsPerRegion:  5,
		SegmentsPerNation: 5,
		Customers:         3000,
		Suppliers:         200,
		Brands:            25,
		TypesPerBrand:     6,
		Parts:             4000,
		Years:             7,
		DaysPerMonth:      30,
	}
}

// ScaleFor sizes the dimension tables for a LINEITEM count the way TPC-D's
// scale factor does: customers, suppliers and parts grow with the fact
// table (TPC-D SF=1 has 6M lineitems over 150k customers, 10k suppliers,
// 200k parts), while regions, nations, segments, brands, types and the
// calendar stay fixed.
func ScaleFor(records int) Scale {
	s := DefaultScale()
	s.Customers = clamp(records/40, 1000, 150000)
	s.Suppliers = clamp(records/600, 100, 10000)
	s.Parts = clamp(records/30, 1500, 200000)
	return s
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Dimension indexes of the cube (Fig. 9).
const (
	DimCustomer = 0
	DimSupplier = 1
	DimPart     = 2
	DimTime     = 3
)

// Gen is a deterministic workload generator for one cube instance.
type Gen struct {
	schema *cube.Schema
	scale  Scale
	rng    *rand.Rand

	custLeaves []hierarchy.ID
	suppLeaves []hierarchy.ID
	partLeaves []hierarchy.ID
	timeLeaves []hierarchy.ID

	xdims []xdim // X-tree attribute dimensions in Fig. 10 order
}

// xdim identifies one X-tree dimension: a (cube dimension, hierarchy
// level) pair, ordered top level first within each cube dimension.
type xdim struct {
	dim   int
	level int
}

var regionNames = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}
var segmentNames = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"}

// New builds a generator: it registers every dimension value of the scale
// in fresh concept hierarchies (the dimension tables of Fig. 8) and leaves
// the fact records to Record/Records.
func New(seed int64, scale Scale) (*Gen, error) {
	if scale.Regions < 1 || scale.NationsPerRegion < 1 || scale.SegmentsPerNation < 1 ||
		scale.Customers < 1 || scale.Suppliers < 1 || scale.Brands < 1 ||
		scale.TypesPerBrand < 1 || scale.Parts < 1 || scale.Years < 1 || scale.DaysPerMonth < 1 {
		return nil, fmt.Errorf("tpcd: every scale component must be positive: %+v", scale)
	}
	cust := hierarchy.MustNew("Customer", "Customer", "MktSegment", "Nation", "Region")
	supp := hierarchy.MustNew("Supplier", "Supplier", "Nation", "Region")
	part := hierarchy.MustNew("Part", "Part", "Type", "Brand")
	tim := hierarchy.MustNew("Time", "Day", "Month", "Year")
	// Extended Price is a decimal of cents, and the schema says so: scale 2.
	schema, err := cube.MustNewSchema(
		[]*hierarchy.Hierarchy{cust, supp, part, tim}, "ExtendedPrice").WithScales(2)
	if err != nil {
		return nil, err
	}

	g := &Gen{
		schema: schema,
		scale:  scale,
		rng:    rand.New(rand.NewSource(seed)),
	}
	g.xdims = []xdim{
		{DimCustomer, 3}, {DimCustomer, 2}, {DimCustomer, 1}, {DimCustomer, 0},
		{DimSupplier, 2}, {DimSupplier, 1}, {DimSupplier, 0},
		{DimPart, 2}, {DimPart, 1}, {DimPart, 0},
		{DimTime, 2}, {DimTime, 1}, {DimTime, 0},
	}
	if err := g.populate(); err != nil {
		return nil, err
	}
	return g, nil
}

// populate registers the dimension tables.
func (g *Gen) populate() error {
	s := g.scale
	region := func(i int) string {
		if i < len(regionNames) {
			return regionNames[i]
		}
		return fmt.Sprintf("REGION#%d", i)
	}
	segment := func(i int) string {
		if i < len(segmentNames) {
			return segmentNames[i]
		}
		return fmt.Sprintf("SEGMENT#%d", i)
	}
	nationOf := func(i int) (string, string) { // nation name, region name
		return fmt.Sprintf("NATION#%02d", i), region(i % s.Regions)
	}
	nations := s.Regions * s.NationsPerRegion

	cust, _ := g.schema.Dim(DimCustomer)
	for c := 0; c < s.Customers; c++ {
		nat, reg := nationOf(g.rng.Intn(nations))
		seg := segment(g.rng.Intn(s.SegmentsPerNation))
		leaf, err := cust.Register(reg, nat, seg, fmt.Sprintf("Customer#%06d", c))
		if err != nil {
			return err
		}
		g.custLeaves = append(g.custLeaves, leaf)
	}
	supp, _ := g.schema.Dim(DimSupplier)
	for sidx := 0; sidx < s.Suppliers; sidx++ {
		nat, reg := nationOf(g.rng.Intn(nations))
		leaf, err := supp.Register(reg, nat, fmt.Sprintf("Supplier#%04d", sidx))
		if err != nil {
			return err
		}
		g.suppLeaves = append(g.suppLeaves, leaf)
	}
	part, _ := g.schema.Dim(DimPart)
	for p := 0; p < s.Parts; p++ {
		brand := fmt.Sprintf("Brand#%02d", g.rng.Intn(s.Brands))
		ptype := fmt.Sprintf("TYPE %d", g.rng.Intn(s.TypesPerBrand))
		leaf, err := part.Register(brand, ptype, fmt.Sprintf("Part#%06d", p))
		if err != nil {
			return err
		}
		g.partLeaves = append(g.partLeaves, leaf)
	}
	tim, _ := g.schema.Dim(DimTime)
	for y := 0; y < s.Years; y++ {
		for m := 0; m < 12; m++ {
			for d := 0; d < s.DaysPerMonth; d++ {
				leaf, err := tim.Register(
					fmt.Sprintf("%d", 1992+y),
					fmt.Sprintf("%d-%02d", 1992+y, m+1),
					fmt.Sprintf("%d-%02d-%02d", 1992+y, m+1, d+1))
				if err != nil {
					return err
				}
				g.timeLeaves = append(g.timeLeaves, leaf)
			}
		}
	}
	return nil
}

// Schema returns the cube schema (four dimensions, one measure).
func (g *Gen) Schema() *cube.Schema { return g.schema }

// Scale returns the generator's scale.
func (g *Gen) Scale() Scale { return g.scale }

// XDims returns the number of X-tree attribute dimensions (13, Fig. 10).
func (g *Gen) XDims() int { return len(g.xdims) }

// Record draws one LINEITEM-like fact record: uniform foreign keys into
// the dimension tables and an Extended Price shaped like TPC-D's
// quantity × part price.
func (g *Gen) Record() cube.Record {
	qty := 1 + g.rng.Intn(50)
	price := 900 + float64(g.rng.Intn(120001))/100 // 900.00 .. 2100.00
	return cube.Record{
		Coords: []hierarchy.ID{
			g.custLeaves[g.rng.Intn(len(g.custLeaves))],
			g.suppLeaves[g.rng.Intn(len(g.suppLeaves))],
			g.partLeaves[g.rng.Intn(len(g.partLeaves))],
			g.timeLeaves[g.rng.Intn(len(g.timeLeaves))],
		},
		Measures: []float64{float64(qty) * price},
	}
}

// Records draws n fact records.
func (g *Gen) Records(n int) []cube.Record {
	out := make([]cube.Record, n)
	for i := range out {
		out[i] = g.Record()
	}
	return out
}

// XPoint maps a record to its X-tree point: the ID codes of the record's
// ancestors at every attribute level, in Fig. 10 order. The codes are the
// artificial total ordering assigned by the insert procedure (§3.1).
func (g *Gen) XPoint(rec cube.Record) (xtree.Point, error) {
	p := make(xtree.Point, len(g.xdims))
	space := g.schema.Space()
	for i, xd := range g.xdims {
		anc, err := space[xd.dim].AncestorAt(rec.Coords[xd.dim], xd.level)
		if err != nil {
			return nil, err
		}
		p[i] = anc.Code()
	}
	return p, nil
}
