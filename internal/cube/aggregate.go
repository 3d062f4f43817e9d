package cube

import (
	"fmt"
	"math"
)

// Op is an aggregation operator applicable to a measure in a range query
// (§1: "applies a given aggregation operator to the set of selected cells").
type Op int

// Supported aggregation operators.
const (
	Sum Op = iota
	Count
	Avg
	Min
	Max
)

// String names the operator.
func (op Op) String() string {
	switch op {
	case Sum:
		return "SUM"
	case Count:
		return "COUNT"
	case Avg:
		return "AVG"
	case Min:
		return "MIN"
	case Max:
		return "MAX"
	default:
		return fmt.Sprintf("Op(%d)", int(op))
	}
}

// ParseOp parses an operator name (case-sensitive, as printed by String).
func ParseOp(s string) (Op, error) {
	switch s {
	case "SUM":
		return Sum, nil
	case "COUNT":
		return Count, nil
	case "AVG":
		return Avg, nil
	case "MIN":
		return Min, nil
	case "MAX":
		return Max, nil
	}
	return 0, fmt.Errorf("cube: unknown aggregation operator %q", s)
}

// Agg is the answer of an aggregation of one measure over a set of
// records, in floats: enough state (sum, count, min, max) to answer every
// supported Op. An engine folds Fixed aggregates and makes its Agg once
// (Schema.Answer).
//
// The zero Agg is the aggregate of the empty set.
type Agg struct {
	Sum   float64
	Count int64
	Min   float64
	Max   float64
}

// AggOf returns the aggregate of a single measure value.
func AggOf(x float64) Agg {
	return Agg{Sum: x, Count: 1, Min: x, Max: x}
}

// IsEmpty reports whether the aggregate covers no records.
func (a Agg) IsEmpty() bool { return a.Count == 0 }

// Merge folds another aggregate into this one.
func (a *Agg) Merge(b Agg) {
	if b.Count == 0 {
		return
	}
	if a.Count == 0 {
		*a = b
		return
	}
	a.Sum += b.Sum
	a.Count += b.Count
	if b.Min < a.Min {
		a.Min = b.Min
	}
	if b.Max > a.Max {
		a.Max = b.Max
	}
}

// Value extracts the operator's result from the aggregate. For the empty
// aggregate Sum and Count are 0, Avg is NaN, Min is +Inf and Max is -Inf —
// the conventional identity elements.
func (a Agg) Value(op Op) float64 {
	switch op {
	case Sum:
		return a.Sum
	case Count:
		return float64(a.Count)
	case Avg:
		if a.Count == 0 {
			return math.NaN()
		}
		return a.Sum / float64(a.Count)
	case Min:
		if a.Count == 0 {
			return math.Inf(1)
		}
		return a.Min
	case Max:
		if a.Count == 0 {
			return math.Inf(-1)
		}
		return a.Max
	default:
		return math.NaN()
	}
}

// Fixed is the aggregate of one measure in units of its scale
// (Schema.Units): sum, count, min and max as integers. It is what the
// DC-tree stores next to each directory MDS, and what every engine folds:
// integer folds are exact, so every fold order gives the same aggregate.
// A host keeps every sum inside int64 by refusing the insert that could
// leave it. The zero Fixed is the aggregate of the empty set.
type Fixed struct {
	Sum, Count, Min, Max int64
}

// FixedOf returns the aggregate of a single value of u units.
func FixedOf(u int64) Fixed { return Fixed{Sum: u, Count: 1, Min: u, Max: u} }

// Add folds one more value of u units into the aggregate.
func (a *Fixed) Add(u int64) {
	if a.Count == 0 {
		*a = FixedOf(u)
		return
	}
	a.Sum += u
	a.Count++
	a.Min = min(a.Min, u)
	a.Max = max(a.Max, u)
}

// Merge folds another aggregate into this one.
func (a *Fixed) Merge(b Fixed) {
	if b.Count == 0 {
		return
	}
	if a.Count == 0 {
		*a = b
		return
	}
	a.Sum += b.Sum
	a.Count += b.Count
	a.Min = min(a.Min, b.Min)
	a.Max = max(a.Max, b.Max)
}

// AggVector is one Agg per measure of a schema.
type AggVector []Agg

// NewAggVector returns the empty aggregate vector for m measures.
func NewAggVector(m int) AggVector { return make(AggVector, m) }
