// Package seqscan implements the sequential-search baseline of the
// DC-tree paper's evaluation (§5.2): a flat file of data records with no
// index. A range query "simply runs through every existing data record and
// determines whether this data record is contained in the range_mds or
// not; in the positive case, the measure value of the data record is added
// to the result."
package seqscan

import (
	"errors"
	"fmt"

	"github.com/dcindex/dctree/internal/cube"
	"github.com/dcindex/dctree/internal/mds"
)

// Errors returned by the scanner.
var (
	ErrBadMeasure = errors.New("seqscan: measure index out of range")
	ErrNotFound   = errors.New("seqscan: record not found")
)

// Store is the flat record file. Appends are O(1); every query costs a
// full scan.
type Store struct {
	schema *cube.Schema
	recs   []cube.Record

	// RecordsScanned counts total membership tests across all queries,
	// the scanner's work metric.
	RecordsScanned int64
}

// New creates an empty flat store for the schema.
func New(schema *cube.Schema) *Store {
	return &Store{schema: schema}
}

// Schema returns the store's cube schema.
func (s *Store) Schema() *cube.Schema { return s.schema }

// Count returns the number of stored records.
func (s *Store) Count() int { return len(s.recs) }

// Insert appends one record.
func (s *Store) Insert(rec cube.Record) error {
	if err := s.schema.ValidateRecord(rec); err != nil {
		return err
	}
	s.recs = append(s.recs, rec.Clone())
	return nil
}

// Delete removes one record matching rec exactly.
func (s *Store) Delete(rec cube.Record) error {
	for i := range s.recs {
		if equal(s.recs[i], rec) {
			s.recs[i] = s.recs[len(s.recs)-1]
			s.recs = s.recs[:len(s.recs)-1]
			return nil
		}
	}
	return ErrNotFound
}

func equal(a, b cube.Record) bool {
	if len(a.Coords) != len(b.Coords) || len(a.Measures) != len(b.Measures) {
		return false
	}
	for i := range a.Coords {
		if a.Coords[i] != b.Coords[i] {
			return false
		}
	}
	for j := range a.Measures {
		if a.Measures[j] != b.Measures[j] {
			return false
		}
	}
	return true
}

// RangeAgg scans all records and aggregates the measure over those inside
// the query MDS: their values in units of the measure's scale are folded,
// exactly, and the float answer made once (cube.Schema.Answer), as every
// engine makes it.
func (s *Store) RangeAgg(q mds.MDS, measure int) (cube.Agg, error) {
	if measure < 0 || measure >= s.schema.Measures() {
		return cube.Agg{}, fmt.Errorf("%w: %d", ErrBadMeasure, measure)
	}
	if err := q.Validate(s.schema.Space()); err != nil {
		return cube.Agg{}, err
	}
	var agg cube.Fixed
	space := s.schema.Space()
	for i := range s.recs {
		s.RecordsScanned++
		ok, err := q.ContainsLeaves(space, s.recs[i].Coords)
		if err != nil {
			return cube.Agg{}, err
		}
		if ok {
			u, _ := s.schema.Units(measure, s.recs[i].Measures[measure]) // Insert validated it
			agg.Add(u)
		}
	}
	return s.schema.Answer(measure, agg), nil
}

// RangeQuery is RangeAgg narrowed to one operator.
func (s *Store) RangeQuery(q mds.MDS, op cube.Op, measure int) (float64, error) {
	agg, err := s.RangeAgg(q, measure)
	if err != nil {
		return 0, err
	}
	return agg.Value(op), nil
}
