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

// Agg is the materialized aggregate of one measure over a set of records.
// It carries enough state (sum, count, min, max) to answer every supported
// Op, which is what the DC-tree stores next to each directory MDS.
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

// Add folds one more measure value into the aggregate.
func (a *Agg) Add(x float64) {
	if a.Count == 0 {
		*a = AggOf(x)
		return
	}
	a.Sum += x
	a.Count++
	if x < a.Min {
		a.Min = x
	}
	if x > a.Max {
		a.Max = x
	}
}

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

// AggVector is one Agg per measure of a schema.
type AggVector []Agg

// NewAggVector returns the empty aggregate vector for m measures.
func NewAggVector(m int) AggVector { return make(AggVector, m) }

// AggOfRecord returns the aggregate vector of a single record.
func AggOfRecord(measures []float64) AggVector {
	v := make(AggVector, len(measures))
	for j, x := range measures {
		v[j] = AggOf(x)
	}
	return v
}

// Merge folds another vector into this one; the arities must match.
func (v AggVector) Merge(w AggVector) {
	for j := range v {
		v[j].Merge(w[j])
	}
}

// AddRecord folds one record's measures into the vector.
func (v AggVector) AddRecord(measures []float64) {
	for j := range v {
		v[j].Add(measures[j])
	}
}

// Clone returns a copy of the vector.
func (v AggVector) Clone() AggVector { return append(AggVector(nil), v...) }

// Equal reports exact equality of two vectors.
func (v AggVector) Equal(w AggVector) bool {
	if len(v) != len(w) {
		return false
	}
	for j := range v {
		if v[j] != w[j] {
			return false
		}
	}
	return true
}
