package dctree

import (
	"errors"
	"fmt"

	"github.com/dcindex/dctree/internal/hierarchy"
	"github.com/dcindex/dctree/internal/mds"
)

// ErrBadQuerySpec reports an unbuildable query specification.
var ErrBadQuerySpec = errors.New("dctree: bad query specification")

// QueryBuilder assembles a range query MDS from attribute value names.
// Dimensions left unconstrained select all their values. Each dimension
// may be constrained at exactly one hierarchy level (the definition of a
// range_mds, §3.2).
type QueryBuilder struct {
	schema *Schema
	sets   map[int]DimSet
	asOf   *Version
	err    error
}

// NewQuery starts a query over the schema's cube.
func NewQuery(schema *Schema) *QueryBuilder {
	return &QueryBuilder{schema: schema, sets: make(map[int]DimSet)}
}

// Where constrains one dimension at one level to a set of value names.
// Value names are matched at the given level wherever they occur (a name
// that repeats under several parents, like a market segment per nation,
// selects all occurrences). Unknown names are an error at Build time.
//
//	NewQuery(schema).
//	    Where("Customer", "Region", "EUROPE", "ASIA").
//	    Where("Time", "Year", "1996")
func (b *QueryBuilder) Where(dimension, level string, values ...string) *QueryBuilder {
	if b.err != nil {
		return b
	}
	d, err := b.schema.DimIndex(dimension)
	if err != nil {
		b.err = err
		return b
	}
	h, err := b.schema.Dim(d)
	if err != nil {
		b.err = err
		return b
	}
	lvl, err := h.LevelIndex(level)
	if err != nil {
		b.err = err
		return b
	}
	if len(values) == 0 {
		b.err = fmt.Errorf("%w: empty value list for %s.%s", ErrBadQuerySpec, dimension, level)
		return b
	}
	if _, dup := b.sets[d]; dup {
		b.err = fmt.Errorf("%w: dimension %s constrained twice", ErrBadQuerySpec, dimension)
		return b
	}
	var ids []ID
	for _, v := range values {
		found, err := h.FindByName(lvl, v)
		if err != nil {
			b.err = err
			return b
		}
		if len(found) == 0 {
			b.err = fmt.Errorf("%w: no value %q at level %s of %s", ErrBadQuerySpec, v, level, dimension)
			return b
		}
		ids = append(ids, found...)
	}
	hierarchy.SortIDs(ids)
	ids = dedupIDs(ids)
	b.sets[d] = DimSet{Level: lvl, IDs: ids}
	return b
}

// WhereIDs constrains one dimension to pre-resolved IDs (all at the same
// level). Useful when IDs come from a previous query or from the
// hierarchy API directly.
func (b *QueryBuilder) WhereIDs(dimension string, ids ...ID) *QueryBuilder {
	if b.err != nil {
		return b
	}
	d, err := b.schema.DimIndex(dimension)
	if err != nil {
		b.err = err
		return b
	}
	if len(ids) == 0 {
		b.err = fmt.Errorf("%w: empty ID list for %s", ErrBadQuerySpec, dimension)
		return b
	}
	if _, dup := b.sets[d]; dup {
		b.err = fmt.Errorf("%w: dimension %s constrained twice", ErrBadQuerySpec, dimension)
		return b
	}
	level := ids[0].Level()
	sorted := append([]ID(nil), ids...)
	hierarchy.SortIDs(sorted)
	sorted = dedupIDs(sorted)
	for _, id := range sorted {
		if id.Level() != level {
			b.err = fmt.Errorf("%w: mixed levels in %s constraint", ErrBadQuerySpec, dimension)
			return b
		}
	}
	b.sets[d] = DimSet{Level: level, IDs: sorted}
	return b
}

// AsOf pins the query to an MVCC version (Tree.Snapshot): the request
// built by BuildRequest resolves against the version's captured state,
// without the tree lock. A nil version queries the live tree.
func (b *QueryBuilder) AsOf(v *Version) *QueryBuilder {
	b.asOf = v
	return b
}

// BuildRequest assembles the query as a QueryRequest for Tree.Execute,
// carrying the AsOf version if one was set. Measure, AllMeasures and
// CollectStats start at their zero values — set them on the returned
// request.
func (b *QueryBuilder) BuildRequest() (QueryRequest, error) {
	q, err := b.Build()
	if err != nil {
		return QueryRequest{}, err
	}
	return QueryRequest{Query: q, AsOf: b.asOf}, nil
}

// Build assembles the MDS, validating it against the schema.
func (b *QueryBuilder) Build() (MDS, error) {
	if b.err != nil {
		return nil, b.err
	}
	q := make(MDS, b.schema.Dims())
	for d := range q {
		if ds, ok := b.sets[d]; ok {
			q[d] = ds
		} else {
			q[d] = mds.AllDim()
		}
	}
	if err := q.Validate(b.schema.Space()); err != nil {
		return nil, err
	}
	return q, nil
}

// dedupIDs removes duplicate IDs in place, keeping the first occurrence
// of each in its original position. Correct for ANY input order — the old
// implementation only collapsed adjacent duplicates, so it silently left
// duplicates in unsorted input; first-seen order keeps the result
// deterministic for the caller's ordering, sorted or not.
func dedupIDs(ids []ID) []ID {
	seen := make(map[ID]struct{}, len(ids))
	out := ids[:0]
	for _, id := range ids {
		if _, dup := seen[id]; dup {
			continue
		}
		seen[id] = struct{}{}
		out = append(out, id)
	}
	return out
}
