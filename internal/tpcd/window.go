package tpcd

import (
	"cmp"
	"slices"

	"github.com/dcindex/dctree/internal/cube"
)

// Arrival is the order in which a stream's records reach the warehouse.
type Arrival int

const (
	// Random is generation order: each record's day is drawn uniformly.
	Random Arrival = iota
	// TimeOrdered is the same records sorted, stably, by day: the
	// warehouse's refresh, where new facts carry the newest dates.
	TimeOrdered
)

// String returns the arrival order's name.
func (a Arrival) String() string {
	if a == TimeOrdered {
		return "time-ordered"
	}
	return "random"
}

// Window is the paper's fully dynamic scenario (§1) as a stream: a
// warehouse holding the newest Size facts. The first Size records are
// loaded; then each slide step inserts the next record and deletes the
// oldest one still live.
type Window struct {
	Records []cube.Record // the stream, in arrival order
	Size    int           // the live records: the window's width
}

// Window draws a stream of size+steps records, in the given arrival order,
// for a window of size live records.
func (g *Gen) Window(size, steps int, arrival Arrival) *Window {
	recs := g.Records(size + steps)
	if arrival == TimeOrdered {
		slices.SortStableFunc(recs, func(a, b cube.Record) int {
			return cmp.Compare(a.Coords[DimTime].Code(), b.Coords[DimTime].Code())
		})
	}
	return &Window{Records: recs, Size: size}
}

// Build returns the records loaded before the first step.
func (w *Window) Build() []cube.Record { return w.Records[:w.Size] }

// Steps returns the number of slide steps the stream holds.
func (w *Window) Steps() int { return len(w.Records) - w.Size }

// Step returns slide step i's records: the newest, to insert, and the
// oldest live one, to delete.
func (w *Window) Step(i int) (newest, oldest cube.Record) {
	return w.Records[w.Size+i], w.Records[i]
}

// Live returns the records live after step i: the Size that follow the i+1
// expired ones. Live(-1) is Build.
func (w *Window) Live(i int) []cube.Record { return w.Records[i+1 : i+1+w.Size] }
