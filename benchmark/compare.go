package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// spread is the relative distance between repeated values of one metric:
// interquartile range over median with four or more values, full range
// over median with fewer. A single value has no spread.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	med := median(s)
	if med == 0 {
		return 0
	}
	lo, hi := s[0], s[len(s)-1]
	if len(s) >= 4 {
		lo, hi = quantile(s, 0.25), quantile(s, 0.75)
	}
	return math.Abs((hi - lo) / med)
}

// quantile interpolates on a sorted sample (the "exclusive" method of
// Python's statistics.quantiles, which the acceptance protocol uses).
func quantile(sorted []float64, q float64) float64 {
	pos := q*float64(len(sorted)+1) - 1
	i := int(math.Floor(pos))
	if i < 0 {
		return sorted[0]
	}
	if i >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

// verdict judges b against a for one metric. Worse and better mean beyond
// the metric's bound in that direction; a spread wider than the bound on
// either side leaves the pair unresolved — except for setup_s, whose spread
// the acceptance protocol does not judge either. Per-layer metrics have no
// bound and get no verdict.
func verdict(def metricDef, a, b metricResult) (deltaPct float64, v string) {
	delta := 0.0
	if a.Value != 0 {
		delta = (b.Value - a.Value) / math.Abs(a.Value)
	}
	if def.Bound == 0 {
		return 100 * delta, "-"
	}
	if def.Name != "setup_s" && (spread(a.Values) > def.Bound || spread(b.Values) > def.Bound) {
		return 100 * delta, "unresolved"
	}
	worse := delta
	if def.Better == higher {
		worse = -delta
	}
	switch {
	case worse > def.Bound:
		return 100 * delta, "worse"
	case worse < -def.Bound:
		return 100 * delta, "better"
	}
	return 100 * delta, "unchanged"
}

func readResult(path string) (*result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.SchemaVersion != schemaVersion {
		return nil, fmt.Errorf("%s: schema version %d, this build reads %d", path, r.SchemaVersion, schemaVersion)
	}
	return &r, nil
}

// compare prints one row per (workload, metric) of two result files and
// reports whether any end-to-end row is worse or unresolved.
func compare(w io.Writer, pathA, pathB string) (clean bool, err error) {
	a, err := readResult(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResult(pathB)
	if err != nil {
		return false, err
	}
	byName := make(map[string]workloadResult)
	for _, wl := range b.Workloads {
		byName[wl.Name] = wl
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\ta\tb\tdelta %\tbound %\tverdict")
	clean = true
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			continue
		}
		for _, def := range allMetrics() {
			ma, okA := wa.Metrics[def.Name]
			mb, okB := wb.Metrics[def.Name]
			if !okA || !okB {
				continue
			}
			delta, v := verdict(def, ma, mb)
			if v == "worse" || v == "unresolved" {
				clean = false
			}
			bound := "-"
			if def.Bound > 0 {
				bound = fmt.Sprintf("%.0f", 100*def.Bound)
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%+.2f\t%s\t%s\n",
				wa.Name, def.Name, def.Unit, ma.Value, mb.Value, delta, bound, v)
		}
	}
	return clean, tw.Flush()
}
