// Command benchmark is the one benchmark of the DC-tree engine: four
// workloads generated from a seed, each run untraced for the end-to-end
// metrics and traced for the per-layer metrics, with every answer checked
// against the sequential-scan oracle. See README.md in this directory.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"github.com/dcindex/dctree/internal/core"
	"github.com/dcindex/dctree/internal/storage"
)

const schemaVersion = 1

// An untraced pass runs every data set of its run `repeats` times, one sweep
// over the sets after another, and takes each operation's time from the
// fastest of its executions (see endToEndMetrics). maxSets bounds a sweep
// whatever -seconds says, so a run ends well inside the driver's 180 s.
const (
	repeats = 3
	maxSets = 8
)

//go:embed testdata/digests.json
var pinnedDigestsJSON []byte

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int // 0 untraced pass only, 1 traced pass only, -1 both
	scale    float64
	dir, out string
	repeat   int
}

// result is the versioned file one run writes.
type result struct {
	SchemaVersion int              `json:"schema_version"`
	Seed          int64            `json:"seed"`
	Scale         float64          `json:"scale"`
	Seconds       int              `json:"seconds"`
	Repeat        int              `json:"repeat"`
	Host          hostFacts        `json:"host"`
	Config        configFacts      `json:"config"`
	Workloads     []workloadResult `json:"workloads"`
}

type configFacts struct {
	Core          core.Config        `json:"core"`
	WAL           storage.WALOptions `json:"wal"`
	FlushPolicy   string             `json:"flush_policy"`
	WarmPoolBytes int                `json:"warm_pool_bytes"`
	ColdPoolBytes int                `json:"cold_pool_bytes"`
}

type workloadResult struct {
	Name         string                  `json:"name"`
	Digest       string                  `json:"workload_digest"`
	DigestStatus string                  `json:"workload_digest_status"`
	Rounds       int                     `json:"rounds"`
	OpsAttempted int64                   `json:"ops_attempted"`
	OpsFailed    int64                   `json:"ops_failed"`
	Notes        []string                `json:"notes,omitempty"`
	Metrics      map[string]metricResult `json:"metrics"`
	TraceFile    string                  `json:"trace_file,omitempty"`
}

// metricResult holds one value per repeat; Value is their median.
type metricResult struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Samples int       `json:"samples,omitempty"`
	Values  []float64 `json:"values"`
}

// pass is one workload run one way (untraced or traced).
type pass struct {
	digest            string
	rounds            int
	attempted, failed int64
	notes             []string
	metrics           map[string]value
	perRound          map[string][]float64 // untraced pass: what a round yields once, round by round
	bursts            []float64            // median calibration burst of every round, us
	traceFile         string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload to run: all, "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&o.seed, "seed", 1, "workload seed; the engine receives only the generated inputs")
	flag.IntVar(&o.seconds, "seconds", 10, "measure the untraced pass for at least this long, in whole rounds (0: one round)")
	flag.IntVar(&o.trace, "trace", -1, "0: untraced pass only (end-to-end metrics), 1: traced pass only (per-layer metrics), -1: both")
	flag.Float64Var(&o.scale, "scale", 1, "multiplies every record and operation count")
	flag.StringVar(&o.dir, "dir", filepath.Join(os.TempDir(), "dcbenchmark"), "data directory; fsync latency is that of its filesystem")
	flag.StringVar(&o.out, "out", "", "directory for the result JSON and trace files (empty: write none)")
	flag.IntVar(&o.repeat, "repeat", 1, "run the whole set this many times; the result holds every value and the median")
	cmp := flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
	flag.Parse()

	if *cmp {
		if flag.NArg() != 2 {
			fatal(errors.New("usage: -compare a.json b.json"))
		}
		clean, err := compare(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !clean {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	res, err := run(o, os.Stdout)
	if err != nil {
		fatal(err)
	}
	if res.failed() > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// run executes the requested workloads and passes, prints every metric by
// name with its unit, and ends its output with one JSON object.
func run(o options, w io.Writer) (*result, error) {
	names := workloadNames
	if o.workload != "all" {
		if _, known := workloadSizes[o.workload]; !known {
			return nil, fmt.Errorf("unknown workload %q", o.workload)
		}
		names = []string{o.workload}
	}
	if o.scale <= 0 || o.repeat < 1 || o.seconds < 0 || o.trace < -1 || o.trace > 1 {
		return nil, errors.New("need -scale > 0, -repeat >= 1, -seconds >= 0, -trace in {-1,0,1}")
	}
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return nil, err
	}
	if o.out != "" {
		if err := os.MkdirAll(o.out, 0o755); err != nil {
			return nil, err
		}
	}
	res := &result{
		SchemaVersion: schemaVersion, Seed: o.seed, Scale: o.scale, Seconds: o.seconds, Repeat: o.repeat,
		Host: collectHostFacts(o.dir),
		Config: configFacts{Core: baseConfig, WAL: walOptions,
			FlushPolicy:   "engine defaults (CommitInterval 2ms, CommitBytes 256KiB, autotune off), real fsync on the filesystem of -dir",
			WarmPoolBytes: warmPoolBytes, ColdPoolBytes: coldPoolBytes},
	}
	for _, name := range names {
		res.Workloads = append(res.Workloads, workloadResult{Name: name, Metrics: make(map[string]metricResult)})
	}

	var last *pass
	passes := 0
	for rep := 0; rep < o.repeat; rep++ {
		for i, name := range names {
			for _, traced := range []bool{false, true} {
				if (traced && o.trace == 0) || (!traced && o.trace == 1) {
					continue
				}
				p, err := runPass(name, o, traced)
				if err != nil {
					return nil, fmt.Errorf("%s: %w", name, err)
				}
				res.Workloads[i].merge(p, o)
				printPass(w, name, traced, p)
				last = p
				passes++
			}
		}
	}

	if o.out != "" {
		path := filepath.Join(o.out, fmt.Sprintf("result-seed%d.json", o.seed))
		b, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "result written to %s\n", path)
	}

	// The last line: one JSON object. A single pass reports its metrics;
	// several passes report the totals (their metrics are in the tables
	// above and in the result file).
	final := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.failed() == 0, res.attempted(), res.failed(), map[string]value{}}
	if passes == 1 {
		for k, v := range last.metrics {
			final.Metrics[k] = value{Value: v.Value, Unit: v.Unit}
		}
	}
	b, err := json.Marshal(final)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(w, string(b))
	return res, nil
}

func (r *result) attempted() (n int64) {
	for _, w := range r.Workloads {
		n += w.OpsAttempted
	}
	return n
}

func (r *result) failed() (n int64) {
	for _, w := range r.Workloads {
		n += w.OpsFailed
	}
	return n
}

func (w *workloadResult) merge(p *pass, o options) {
	w.Digest = p.digest
	w.DigestStatus = digestStatus(w.Name, o, p.digest)
	w.Rounds += p.rounds
	w.OpsAttempted += p.attempted
	w.OpsFailed += p.failed
	w.Notes = append(w.Notes, p.notes...)
	if p.traceFile != "" {
		w.TraceFile = p.traceFile
	}
	for name, v := range p.metrics {
		m := w.Metrics[name]
		m.Unit, m.Samples = v.Unit, v.Samples
		m.Values = append(m.Values, v.Value)
		m.Value = median(m.Values)
		w.Metrics[name] = m
	}
}

// digestStatus compares a seed-1 op stream with the digest pinned in
// testdata/digests.json; other seeds and unpinned scales are not checked.
func digestStatus(workload string, o options, got string) string {
	if o.seed != 1 {
		return "unpinned"
	}
	var pinned map[string]string
	if err := json.Unmarshal(pinnedDigestsJSON, &pinned); err != nil {
		return "mismatch: testdata/digests.json: " + err.Error()
	}
	want, ok := pinned[digestKey(workload, o.scale)]
	switch {
	case !ok:
		return "unpinned"
	case want != got:
		return "mismatch: pinned " + want
	}
	return "ok"
}

func runPass(workload string, o options, traced bool) (*pass, error) {
	dir := filepath.Join(o.dir, workload)
	p := &pass{metrics: make(map[string]value)}
	absorb := func(r *round) {
		p.rounds++
		p.attempted += r.attempted
		p.failed += r.failed
		p.notes = append(p.notes, r.notes...)
		p.bursts = append(p.bursts, micros(r.burst))
	}

	if !traced {
		// The first sweep takes on data sets while a third of the budget
		// lasts; the other sweeps repeat them in the same order, so the
		// executions of one operation lie a sweep apart in time.
		sweeps := repeats
		if o.seconds == 0 {
			sweeps = 1
		}
		budget := time.Duration(o.seconds) * time.Second / time.Duration(sweeps)
		var sets [][]*round
		// The oracle check goes with the run's last round: in the first it
		// would lengthen the sweep the others are sized by.
		run := func(j int, oracle bool) error {
			r, _, err := runRound(workload, roundSeed(o.seed, j), o.scale, dir, roundOpts{oracle: oracle})
			if err != nil {
				return err
			}
			absorb(r)
			sets[j] = append(sets[j], r)
			return nil
		}
		start := time.Now()
		// after j rounds, the next would end at about elapsed·(j+1)/j
		for j := 0; j == 0 || (j < maxSets && time.Since(start)*time.Duration(j+1)/time.Duration(j) <= budget); j++ {
			sets = append(sets, nil)
			if err := run(j, sweeps == 1); err != nil {
				return nil, err
			}
		}
		for rep := 1; rep < sweeps; rep++ {
			for j := range sets {
				if err := run(j, rep == sweeps-1 && j == len(sets)-1); err != nil {
					return nil, err
				}
			}
		}
		p.digest = sets[0][0].digest
		p.perRound = endToEndMetrics(sets, p.metrics)
	} else {
		// The reference round is untraced: it supplies the snapshot deltas,
		// the allocation counts and the probes, and is what the traced
		// round's timed phases are compared with for trace.overhead_pct.
		ref, _, err := runRound(workload, o.seed, o.scale, dir, roundOpts{layers: true, oracle: true})
		if err != nil {
			return nil, err
		}
		trd, tr, err := runRound(workload, o.seed, o.scale, dir, roundOpts{traced: true})
		if err != nil {
			return nil, err
		}
		p.digest = ref.digest
		absorb(ref)
		absorb(trd)
		if ref.digest != trd.digest {
			p.failed++
			p.notes = append(p.notes, "the same seed generated two different op streams")
		}
		perLayerMetrics(ref, trd, tr, p.metrics)
		if o.out != "" {
			p.traceFile = filepath.Join(o.out, "trace-"+workload+".jsonl")
			if err := tr.writeJSONL(p.traceFile); err != nil {
				return nil, err
			}
		}
	}
	if s := digestStatus(workload, o, p.digest); strings.HasPrefix(s, "mismatch") {
		p.failed++
		p.notes = append(p.notes, "workload_digest "+p.digest+" "+s)
	}
	for name, v := range p.metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			p.failed++
			p.notes = append(p.notes, "metric "+name+" is not finite")
		}
	}
	return p, nil
}

// roundSeed derives the seed of data set j from the run's seed. Set 0 uses
// the seed itself: it is the one whose digest is pinned and whose counters
// the traced pass reports. The other sets draw other data, so that a run
// averages over the shape of the tree as well.
func roundSeed(seed int64, j int) int64 { return seed + int64(j)*1_000_000_007 }

// endToEndMetrics joins the rounds of an untraced pass. The rounds of one
// data set do the same work operation by operation, so each operation's time
// is the fastest of its executions: what the host's interruptions and slow
// spells (and a collection that happened to be running) added to one
// execution, another a sweep later was spared. Percentiles are then taken
// over the operations of all sets, rates are operations over the sum of
// their times, and what a round yields once is the median over all rounds.
// It returns those once-per-round values for the report.
func endToEndMetrics(sets [][]*round, out map[string]value) map[string][]float64 {
	var (
		writeLat, queryLat []time.Duration
		classLat           [numClasses][]time.Duration
		rounds             int
	)
	perRound := make(map[string][]float64)
	for _, set := range sets {
		for _, r := range set {
			rounds++
			perRound["setup_s"] = append(perRound["setup_s"], r.setup.Seconds())
			perRound["heap_mb"] = append(perRound["heap_mb"], r.heapMB)
			perRound["disk_bytes_per_record"] = append(perRound["disk_bytes_per_record"], r.diskPerRec)
		}
		writeLat = append(writeLat, fastest(set, func(r *round) []time.Duration { return r.writeLat })...)
		for c := range classLat {
			best := fastest(set, func(r *round) []time.Duration { return r.queryLat[c] })
			classLat[c] = append(classLat[c], best...)
			queryLat = append(queryLat, best...)
		}
	}
	pooled := map[string]value{
		"write_rps":           {Value: ratio(float64(len(writeLat)), sum(writeLat).Seconds()), Samples: len(writeLat)},
		"write_p50_us":        {Value: micros(percentile(writeLat, 0.50)), Samples: len(writeLat)},
		"query_qps":           {Value: ratio(float64(len(queryLat)), sum(queryLat).Seconds()), Samples: len(queryLat)},
		"query_sel01_p50_us":  {Value: micros(percentile(classLat[classSel01], 0.50)), Samples: len(classLat[classSel01])},
		"query_sel25_p50_us":  {Value: micros(percentile(classLat[classSel25], 0.50)), Samples: len(classLat[classSel25])},
		"query_rollup_p50_us": {Value: micros(percentile(classLat[classRollup], 0.50)), Samples: len(classLat[classRollup])},
	}
	for _, d := range endToEnd {
		v, ok := pooled[d.Name]
		if !ok {
			v = value{Value: median(perRound[d.Name]), Samples: rounds}
		}
		v.Unit = d.Unit
		out[d.Name] = v
	}
	return perRound
}

// fastest returns, operation by operation, the shortest time among the
// rounds of one data set.
func fastest(set []*round, lat func(*round) []time.Duration) []time.Duration {
	best := append([]time.Duration(nil), lat(set[0])...)
	for _, r := range set[1:] {
		for i, d := range lat(r) {
			best[i] = min(best[i], d)
		}
	}
	return best
}

// perLayerMetrics joins the three ways a layer is measured from outside:
// the reference round's snapshot deltas and probes, and the traced round's
// spans. A metric the workload does not exercise reads 0.
func perLayerMetrics(ref, trd *round, tr *tracer, out map[string]value) {
	L := ref.layer
	sum := tr.summarize()
	// anyPhase adds a span name over all phases; timed over the write and
	// query phases only, which is where storage time can block an operation.
	anyPhase := func(layer, name string) (s layerSum) {
		for p := range phaseNames {
			v := sum[sumKey{p, layer, name}]
			s.count += v.count
			s.busy += v.busy
			s.self += v.self
		}
		return s
	}
	timed := func(name string) (s layerSum) {
		for _, p := range []int{phaseWrite, phaseQuery} {
			v := sum[sumKey{p, "storage", name}]
			s.count += v.count
			s.busy += v.busy
		}
		return s
	}
	ins := anyPhase("core", "Insert")
	L["core.insert_self_us"] = ratio(micros(ins.self), float64(ins.count))
	for _, c := range classNames {
		ex := anyPhase("core", "Execute."+c)
		L["core.execute_self_us."+c] = ratio(micros(ex.self), float64(ex.count))
	}
	for _, op := range []string{"read", "view", "write", "sync"} {
		s := timed(op)
		L["storage."+op+"_calls"] = float64(s.count)
		L["storage."+op+"_busy_ms"] = millis(s.busy)
	}
	L["storage.alloc_calls"] = float64(timed("alloc").count)
	L["storage.free_calls"] = float64(timed("free").count)
	L["storage.setmeta_busy_ms"] = millis(timed("setmeta").busy)
	L["trace.overhead_pct"] = 100 * (ratio(trd.timed().Seconds(), ref.timed().Seconds()) - 1)
	L["host.calib_burst_us"] = micros(ref.burst)

	for _, d := range perLayer {
		out[d.Name] = value{Value: L[d.Name], Unit: d.Unit}
	}
}

func roundValues(xs []float64) string {
	if len(xs) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteString("rounds:")
	for _, x := range xs {
		fmt.Fprintf(&b, " %.5g", x)
	}
	return b.String()
}

func printPass(w io.Writer, workload string, traced bool, p *pass) {
	kind := "untraced pass, end-to-end metrics"
	if traced {
		kind = "traced pass, per-layer metrics"
	}
	fmt.Fprintf(w, "== %s: %s (%d rounds) ==\n", workload, kind, p.rounds)
	fmt.Fprintf(w, "workload_digest %s\n", p.digest)
	fmt.Fprintf(w, "ops_attempted %d\nops_failed %d\n", p.attempted, p.failed)
	for _, n := range p.notes {
		fmt.Fprintf(w, "  failure: %s\n", n)
	}
	fmt.Fprintf(w, "calibration burst %.1f us (median of the rounds' medians); CPU-bound times are at reference speed, a burst in %d us\n",
		median(p.bursts), refBurst.Microseconds())
	names := make([]string, 0, len(p.metrics))
	for n := range p.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, n := range names {
		v := p.metrics[n]
		samples := ""
		if v.Samples > 0 {
			samples = fmt.Sprintf("n=%d", v.Samples)
		}
		fmt.Fprintf(tw, "%s\t%.6g\t%s\t%s\t%s\n", n, v.Value, v.Unit, samples, roundValues(p.perRound[n]))
	}
	tw.Flush()
	if p.traceFile != "" {
		fmt.Fprintf(w, "trace written to %s\n", p.traceFile)
	}
}
