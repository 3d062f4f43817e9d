// Package cube models the data cube of Gray et al. as used by the DC-tree
// paper (§3.1, Definition 2): d dimensions, each with a concept hierarchy,
// and m dependent measures. A data record is an element
// (a₁,…,a_d, x₁,…,x_m) with aᵢ a leaf attribute value of dimension i and
// xⱼ a measure value: a decimal of the measure's declared scale, held as
// an exact count of units of that scale (Schema.Units).
package cube

import (
	"errors"
	"fmt"
	"math"

	"github.com/dcindex/dctree/internal/hierarchy"
	"github.com/dcindex/dctree/internal/mds"
)

// Errors returned by cube operations.
var (
	ErrArity      = errors.New("cube: record arity does not match schema")
	ErrNotLeaf    = errors.New("cube: record coordinate is not a leaf-level value")
	ErrNoMeasure  = errors.New("cube: schema has no such measure")
	ErrNoDim      = errors.New("cube: schema has no such dimension")
	ErrEmptyShape = errors.New("cube: schema needs at least one dimension and one measure")
	// ErrMeasureValue refuses a value with no exact count of units at its
	// measure's scale (Schema.Units), or one that could overflow a sum.
	ErrMeasureValue = errors.New("cube: measure value is not an exact count of units of its scale")
)

// MaxScale is the finest decimal scale a measure may declare.
const MaxScale = 15

// gridTolerance is how far from an integer x·10^s may lie for x to be a
// value of scale s: the rounding of a decimal to its float and of the
// product, which a round trip through float64(u)/10^s does not absorb.
const gridTolerance = 1e-6

// Schema declares the shape of a data cube: its dimensions (each a concept
// hierarchy), the names of its measures and each measure's decimal scale.
type Schema struct {
	dims     mds.Space
	measures []string
	scales   []int
}

// NewSchema builds a schema from dimension hierarchies and measure names.
func NewSchema(dims []*hierarchy.Hierarchy, measures ...string) (*Schema, error) {
	if len(dims) == 0 || len(measures) == 0 {
		return nil, ErrEmptyShape
	}
	return &Schema{
		dims:     append(mds.Space(nil), dims...),
		measures: append([]string(nil), measures...),
		scales:   make([]int, len(measures)),
	}, nil
}

// WithScales returns a copy of the schema whose measures declare the given
// decimal scales, 0 to MaxScale (by default 0): a measure of scale s holds
// values on the grid of 10^-s, stored and summed as exact units of it.
func (s *Schema) WithScales(scales ...int) (*Schema, error) {
	if len(scales) != len(s.measures) {
		return nil, fmt.Errorf("%w: %d scales for %d measures", ErrArity, len(scales), len(s.measures))
	}
	for j, sc := range scales {
		if sc < 0 || sc > MaxScale {
			return nil, fmt.Errorf("cube: measure %q: scale %d outside 0..%d", s.measures[j], sc, MaxScale)
		}
	}
	c := *s
	c.scales = append([]int(nil), scales...)
	return &c, nil
}

// Scale returns measure j's decimal scale.
func (s *Schema) Scale(j int) int { return s.scales[j] }

// Units returns measure j's value x as a count of units of its scale,
// round(x·10^s); −0 is 0. It refuses NaN, ±Inf, an x·10^s more than
// gridTolerance off an integer, and 2^53 units or more, which a float
// would not hold exactly.
func (s *Schema) Units(j int, x float64) (int64, error) {
	u, ok := units(x, s.scales[j])
	if !ok {
		return 0, fmt.Errorf("%w: measure %q value %v at scale %d", ErrMeasureValue, s.measures[j], x, s.scales[j])
	}
	return u, nil
}

// units is Units at scale s, reporting a value it refuses as !ok.
func units(x float64, s int) (int64, bool) {
	y := x * math.Pow10(s)
	u := math.Round(y)
	return int64(u), math.Abs(u) < 1<<53 && math.Abs(y-u) <= gridTolerance
}

// ScaleOf returns the smallest decimal scale at which x is an exact count of
// units (Units), or -1 if there is none: 3703.6800000000003, a decimal
// printed from a float with rounding noise, is a value of scale 2.
func ScaleOf(x float64) int {
	for s := 0; s <= MaxScale; s++ {
		if _, ok := units(x, s); ok {
			return s
		}
	}
	return -1
}

// Value returns the float nearest the decimal u units of measure j stand
// for: float64(u) / 10^s, the one conversion every answer takes.
func (s *Schema) Value(j int, u int64) float64 { return float64(u) / math.Pow10(s.scales[j]) }

// Answer returns the float answer of measure j's aggregate in units.
func (s *Schema) Answer(j int, a Fixed) Agg {
	return Agg{Sum: s.Value(j, a.Sum), Count: a.Count, Min: s.Value(j, a.Min), Max: s.Value(j, a.Max)}
}

// MustNewSchema is NewSchema but panics on error.
func MustNewSchema(dims []*hierarchy.Hierarchy, measures ...string) *Schema {
	s, err := NewSchema(dims, measures...)
	if err != nil {
		panic(err)
	}
	return s
}

// Dims returns the cube's dimension count.
func (s *Schema) Dims() int { return len(s.dims) }

// Measures returns the cube's measure count.
func (s *Schema) Measures() int { return len(s.measures) }

// Space returns the ordered concept hierarchies of the dimensions.
// The returned slice is owned by the schema.
func (s *Schema) Space() mds.Space { return s.dims }

// Dim returns the hierarchy of dimension i.
func (s *Schema) Dim(i int) (*hierarchy.Hierarchy, error) {
	if i < 0 || i >= len(s.dims) {
		return nil, fmt.Errorf("%w: %d", ErrNoDim, i)
	}
	return s.dims[i], nil
}

// DimIndex resolves a dimension by name.
func (s *Schema) DimIndex(name string) (int, error) {
	for i, h := range s.dims {
		if h.Name() == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("%w: %q", ErrNoDim, name)
}

// MeasureName returns the name of measure j.
func (s *Schema) MeasureName(j int) (string, error) {
	if j < 0 || j >= len(s.measures) {
		return "", fmt.Errorf("%w: %d", ErrNoMeasure, j)
	}
	return s.measures[j], nil
}

// MeasureIndex resolves a measure by name.
func (s *Schema) MeasureIndex(name string) (int, error) {
	for j, m := range s.measures {
		if m == name {
			return j, nil
		}
	}
	return 0, fmt.Errorf("%w: %q", ErrNoMeasure, name)
}

// Record is one data record of the cube: interned leaf-level coordinates,
// one per dimension, and the measure values.
type Record struct {
	Coords   []hierarchy.ID
	Measures []float64
}

// ValidateRecord checks a record against the schema: correct arity, every
// coordinate registered at leaf level of its dimension, every measure an
// exact count of units of its scale (Units).
func (s *Schema) ValidateRecord(r Record) error {
	if len(r.Coords) != len(s.dims) || len(r.Measures) != len(s.measures) {
		return fmt.Errorf("%w: %d coords / %d measures, want %d / %d",
			ErrArity, len(r.Coords), len(r.Measures), len(s.dims), len(s.measures))
	}
	for j, x := range r.Measures {
		if _, err := s.Units(j, x); err != nil {
			return err
		}
	}
	return s.ValidateCoords(r.Coords)
}

// ValidateCoords checks a record's coordinates: one per dimension, each
// registered at leaf level of its dimension.
func (s *Schema) ValidateCoords(coords []hierarchy.ID) error {
	if len(coords) != len(s.dims) {
		return fmt.Errorf("%w: %d coords, want %d", ErrArity, len(coords), len(s.dims))
	}
	for i, c := range coords {
		if c.Level() != 0 {
			return fmt.Errorf("%w: dim %d value %v", ErrNotLeaf, i, c)
		}
		if _, err := s.dims[i].ValueName(c); err != nil {
			return fmt.Errorf("cube: dim %d: %w", i, err)
		}
	}
	return nil
}

// InternRecord interns a record given as per-dimension top-down string
// paths plus measure values, registering unseen attribute values in the
// dimension hierarchies (the dynamic dictionary maintenance of §3.1).
func (s *Schema) InternRecord(paths [][]string, measures []float64) (Record, error) {
	if len(paths) != len(s.dims) || len(measures) != len(s.measures) {
		return Record{}, fmt.Errorf("%w: %d paths / %d measures, want %d / %d",
			ErrArity, len(paths), len(measures), len(s.dims), len(s.measures))
	}
	coords := make([]hierarchy.ID, len(paths))
	for i, p := range paths {
		id, err := s.dims[i].Register(p...)
		if err != nil {
			return Record{}, fmt.Errorf("cube: dim %d: %w", i, err)
		}
		coords[i] = id
	}
	return Record{Coords: coords, Measures: append([]float64(nil), measures...)}, nil
}

// Clone returns a deep copy of the record.
func (r Record) Clone() Record {
	return Record{
		Coords:   append([]hierarchy.ID(nil), r.Coords...),
		Measures: append([]float64(nil), r.Measures...),
	}
}
