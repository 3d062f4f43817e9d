package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the tests read.
type benchmarkSpec struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSpecMatchesRegistry keeps BENCHMARK.json and the metric tables in
// metrics.go in step: same names, units, directions and bounds, same
// workloads.
func TestSpecMatchesRegistry(t *testing.T) {
	spec := readSpec(t)
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end of BENCHMARK.json differs from metrics.go:\n%+v\n%+v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer of BENCHMARK.json differs from metrics.go")
	}
	if len(spec.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(spec.PerLayer))
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, want %v", names, workloadNames)
	}
	seen := make(map[string]bool)
	for _, d := range allMetrics() {
		if seen[d.Name] {
			t.Errorf("metric %s is named twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// exactCounters are the per-layer counts that one client and no timer make
// repeat exactly; storage.view_calls holds on cold-read, whose queries read
// every node through a view.
var exactCounters = []string{
	"core.splits_hierarchy", "core.splits_forced", "core.supernodes_created", "core.supernodes_grown",
	"core.root_splits", "core.height", "core.nodes", "storage.view_calls",
}

func smoke(t *testing.T) *result {
	t.Helper()
	var out bytes.Buffer
	res, err := run(options{workload: "all", seed: 1, seconds: 0, trace: -1, scale: 0.01,
		dir: t.TempDir(), out: t.TempDir(), repeat: 1}, &out)
	if err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	if res.failed() > 0 {
		t.Fatalf("%d of %d operations failed\n%s", res.failed(), res.attempted(), out.String())
	}
	return res
}

// TestSmoke runs all four workloads at -scale 0.01 with tracing and every
// check on, twice, and asserts that every metric BENCHMARK.json names is
// present, finite and carries its unit, that the seed-1 op streams match
// the pinned digests, and that single-client counters repeat exactly.
func TestSmoke(t *testing.T) {
	spec := readSpec(t)
	a, b := smoke(t), smoke(t)
	for i, w := range a.Workloads {
		if w.DigestStatus != "ok" {
			t.Errorf("%s: workload_digest %s is %s", w.Name, w.Digest, w.DigestStatus)
		}
		if w.OpsAttempted < 1 {
			t.Errorf("%s: no operations attempted", w.Name)
		}
		if _, err := os.Stat(w.TraceFile); err != nil {
			t.Errorf("%s: trace file: %v", w.Name, err)
		}
		for _, d := range append(append([]metricDef(nil), spec.EndToEnd...), spec.PerLayer...) {
			m, ok := w.Metrics[d.Name]
			switch {
			case !ok:
				t.Errorf("%s: metric %s is missing", w.Name, d.Name)
			case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
				t.Errorf("%s: metric %s = %v", w.Name, d.Name, m.Value)
			case m.Unit != d.Unit || m.Unit == "":
				t.Errorf("%s: metric %s has unit %q, want %q", w.Name, d.Name, m.Unit, d.Unit)
			}
		}
		for _, d := range spec.EndToEnd {
			if w.Metrics[d.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, d.Name, w.Metrics[d.Name].Value)
			}
		}

		other := b.Workloads[i]
		if w.Digest != other.Digest {
			t.Errorf("%s: workload_digest differs between two runs of seed 1", w.Name)
		}
		exact := []string{"storage.wal_bytes_per_record"}
		if w.Name == "paper-mem" || w.Name == "cold-read" {
			exact = append(exact, exactCounters...)
			exact = append(exact, "disk_bytes_per_record")
			for _, c := range classNames {
				exact = append(exact, "core.nodes_visited_per_query."+c, "core.pruned_ratio."+c,
					"core.materialized_hits_per_query."+c)
			}
		}
		for _, name := range exact {
			if x, y := w.Metrics[name].Value, other.Metrics[name].Value; x != y {
				t.Errorf("%s: %s = %v, then %v: a single-client counter must repeat", w.Name, name, x, y)
			}
		}
	}
}

// TestDriverLine checks the last line the driver parses: one JSON object
// with exactly correct, attempted, failed and metrics, the metrics being
// every end-to-end metric on --trace 0 and every per-layer one on --trace 1.
func TestDriverLine(t *testing.T) {
	spec := readSpec(t)
	for trace, defs := range [][]metricDef{spec.EndToEnd, spec.PerLayer} {
		var out bytes.Buffer
		_, err := run(options{workload: "replicated", seed: 7, seconds: 0, trace: trace, scale: 0.01,
			dir: t.TempDir(), repeat: 1}, &out)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var last map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			t.Fatalf("last line is not JSON: %v", err)
		}
		if len(last) != 4 {
			t.Errorf("last line has %d keys, want correct, attempted, failed, metrics", len(last))
		}
		var metrics map[string]map[string]any
		if err := json.Unmarshal(last["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		if len(metrics) != len(defs) {
			t.Errorf("--trace %d reports %d metrics, want %d", trace, len(metrics), len(defs))
		}
		for _, d := range defs {
			m, ok := metrics[d.Name]
			if !ok || m["unit"] != d.Unit || len(m) != 2 {
				t.Errorf("--trace %d: metric %s reported as %v", trace, d.Name, m)
			}
		}
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, writeRPS []float64, p50 float64) string {
		r := result{SchemaVersion: schemaVersion, Workloads: []workloadResult{{Name: "paper-mem",
			Metrics: map[string]metricResult{
				"write_rps":    {Value: median(writeRPS), Unit: "ops/s", Values: writeRPS},
				"write_p50_us": {Value: p50, Unit: "us", Values: []float64{p50}},
			}}}}
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", []float64{1000, 1010, 990}, 100)
	for _, tc := range []struct {
		name     string
		rps      []float64
		p50      float64
		rpsV     string
		p50V     string
		wantFine bool
	}{
		{"same", []float64{1005, 995, 1000}, 101, "unchanged", "unchanged", true},
		{"slower", []float64{700, 705, 695}, 140, "worse", "worse", false},
		{"faster", []float64{1400, 1410, 1390}, 60, "better", "better", true},
		{"noisy", []float64{700, 1000, 1400}, 100, "unresolved", "unchanged", false},
	} {
		var out bytes.Buffer
		clean, err := compare(&out, base, write(tc.name+".json", tc.rps, tc.p50))
		if err != nil {
			t.Fatal(err)
		}
		if clean != tc.wantFine {
			t.Errorf("%s: clean = %v, want %v\n%s", tc.name, clean, tc.wantFine, out.String())
		}
		for _, line := range strings.Split(out.String(), "\n") {
			f := strings.Fields(line)
			if len(f) < 2 {
				continue
			}
			if f[1] == "write_rps" && f[len(f)-1] != tc.rpsV {
				t.Errorf("%s: write_rps judged %s, want %s", tc.name, f[len(f)-1], tc.rpsV)
			}
			if f[1] == "write_p50_us" && f[len(f)-1] != tc.p50V {
				t.Errorf("%s: write_p50_us judged %s, want %s", tc.name, f[len(f)-1], tc.p50V)
			}
		}
	}
	if _, err := compare(io.Discard, base, filepath.Join(dir, "missing.json")); err == nil {
		t.Error("comparing with a missing file succeeded")
	}
}
