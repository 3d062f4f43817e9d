// Command dcbench regenerates the figures of the DC-tree paper's
// evaluation (§5) on synthetic TPC-D data.
//
// Usage:
//
//	dcbench [flags]
//
//	-exp string     experiment to run: all, fig11a, fig11b, fig12a,
//	                fig12b, fig12c, fig12d, fig13, speedups, ablation
//	                (default "all")
//	-n string       comma-separated data-set sizes (default "10000,20000,30000";
//	                the paper uses 100000,200000,300000)
//	-queries int    random queries averaged per size (default 100)
//	-seed int       workload seed (default 1)
//	-verify         cross-check all systems' answers on every query
//	-csv            emit CSV instead of aligned tables
//	-workers-sweep  sweep parallel query worker counts (-sweep-workers,
//	                default 1,2,4,8) at the smallest size and print
//	                per-worker-count throughput JSON; the cold variant
//	                charges -cold-read-latency per node fault
//	-wal            benchmark durable-insert throughput (one writer vs
//	                -wal-workers concurrent writers sharing fsyncs) and
//	                print JSON; tune with -wal-n, -wal-workers,
//	                -wal-sync-delay; exits nonzero when concurrent
//	                writers fail to batch
//	-snapshot-scan  benchmark insert tail latency during long concurrent
//	                scans (locked live scans vs MVCC snapshot scans) and
//	                print JSON; tune with -snapshot-n
//	-replica        benchmark log-shipping replication (primary overhead,
//	                follower lag, drain, promotion) and print JSON; tune
//	                with -replica-n, -replica-workers; add -sync for a
//	                synchronous-replication (quorum-acknowledged) run
//
// Example (the paper's full sweep — takes a while):
//
//	dcbench -exp all -n 100000,200000,300000
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/dcindex/dctree/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment: all, fig11a, fig11b, fig12a, fig12b, fig12c, fig12d, fig13, rollup, bitmap, views, speedups, ablation")
	sizes := flag.String("n", "10000,20000,30000", "comma-separated data-set sizes")
	queries := flag.Int("queries", 100, "random queries averaged per size")
	seed := flag.Int64("seed", 1, "workload seed")
	verify := flag.Bool("verify", false, "cross-check all systems' answers on every query")
	csv := flag.Bool("csv", false, "emit CSV")
	skipAblation := flag.Bool("skip-ablation", false, "omit the ablation table from -exp all")
	metrics := flag.Bool("metrics", false, "run the query workload at the smallest size and dump DC-tree metrics in Prometheus text format")
	workersSweep := flag.Bool("workers-sweep", false, "sweep parallel query worker counts at the smallest size and print per-worker-count throughput JSON")
	sweepWorkers := flag.String("sweep-workers", "1,2,4,8", "comma-separated worker counts for -workers-sweep")
	coldLatency := flag.Duration("cold-read-latency", 100*time.Microsecond, "per-node-fault read latency charged by the cold variant of -workers-sweep")
	walBench := flag.Bool("wal", false, "benchmark durable-insert throughput: one writer vs -wal-workers concurrent writers sharing fsyncs, JSON output")
	walN := flag.Int("wal-n", 5000, "records inserted per variant of -wal")
	walWorkers := flag.Int("wal-workers", 8, "concurrent inserters in the group-commit variants of -wal")
	walSyncDelay := flag.Duration("wal-sync-delay", 2*time.Millisecond, "modeled log-device latency for the -wal modeled-disk variants (added to every fsync)")
	snapScan := flag.Bool("snapshot-scan", false, "benchmark insert tail latency during long concurrent scans: locked live scans vs MVCC snapshot scans, JSON output")
	snapN := flag.Int("snapshot-n", 40000, "records inserted per variant of -snapshot-scan (half pre-loaded before the clock starts)")
	replBench := flag.Bool("replica", false, "benchmark log-shipping replication: primary overhead, follower lag, drain and promotion, JSON output")
	replN := flag.Int("replica-n", 20000, "records inserted per run of -replica")
	replWorkers := flag.Int("replica-workers", 4, "concurrent inserters on the primary for -replica")
	replSync := flag.Bool("sync", false, "with -replica, add a synchronous-replication run (SyncReplication=1: every insert held for a follower acknowledgment) and report its overhead")
	flag.Parse()

	opt := bench.DefaultOptions()
	opt.QueriesPerPoint = *queries
	opt.Seed = *seed
	opt.Verify = *verify
	opt.SkipAblation = *skipAblation

	var ns []int
	for _, part := range strings.Split(*sizes, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			fmt.Fprintf(os.Stderr, "dcbench: bad size %q\n", part)
			os.Exit(2)
		}
		ns = append(ns, n)
	}
	opt.Sizes = ns

	if *metrics {
		if err := bench.MetricsDump(opt, os.Stdout); err != nil {
			fatal(err)
		}
		return
	}

	if *walBench {
		res, err := bench.WALBench(opt, *walN, *walWorkers, *walSyncDelay, "")
		if err != nil {
			fatal(err)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fatal(err)
		}
		// Concurrent writers that never share an fsync mean the commit path
		// stopped batching — the regression CI runs this mode to catch.
		if v := res.Variants[1]; v.Workers > 1 && v.MeanBatch <= 1 {
			fatal(fmt.Errorf("%d concurrent writers did not batch: %.2f appends per fsync", v.Workers, v.MeanBatch))
		}
		return
	}

	if *replBench {
		res, err := bench.ReplBench(opt, *replN, *replWorkers, "", *replSync)
		if err != nil {
			fatal(err)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fatal(err)
		}
		return
	}

	if *snapScan {
		res, err := bench.MVCCBench(opt, *snapN)
		if err != nil {
			fatal(err)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fatal(err)
		}
		return
	}

	if *workersSweep {
		var workers []int
		for _, part := range strings.Split(*sweepWorkers, ",") {
			w, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || w <= 0 {
				fmt.Fprintf(os.Stderr, "dcbench: bad worker count %q\n", part)
				os.Exit(2)
			}
			workers = append(workers, w)
		}
		res, err := bench.WorkersSweep(opt, workers, *coldLatency)
		if err != nil {
			fatal(err)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fatal(err)
		}
		return
	}

	type driver func(bench.Options) (*bench.Table, error)
	drivers := map[string]driver{
		"fig11a":   bench.Fig11aInsert,
		"fig11b":   bench.Fig11bInsertPerRecord,
		"fig12a":   func(o bench.Options) (*bench.Table, error) { return bench.Fig12Query(o, 0.01, "a") },
		"fig12b":   func(o bench.Options) (*bench.Table, error) { return bench.Fig12Query(o, 0.05, "b") },
		"fig12c":   func(o bench.Options) (*bench.Table, error) { return bench.Fig12Query(o, 0.25, "c") },
		"fig12d":   bench.Fig12dSeqScan,
		"fig13":    bench.Fig13NodeSizes,
		"rollup":   bench.Rollup,
		"bitmap":   bench.Bitmap,
		"views":    bench.Views,
		"speedups": bench.Speedups,
		"ablation": bench.Ablation,
	}

	var tables []*bench.Table
	if *exp == "all" {
		ts, err := bench.All(opt)
		if err != nil {
			fatal(err)
		}
		tables = ts
	} else {
		d, ok := drivers[*exp]
		if !ok {
			fmt.Fprintf(os.Stderr, "dcbench: unknown experiment %q\n", *exp)
			os.Exit(2)
		}
		t, err := d(opt)
		if err != nil {
			fatal(err)
		}
		tables = []*bench.Table{t}
	}

	for i, t := range tables {
		if *csv {
			if err := t.WriteCSV(os.Stdout); err != nil {
				fatal(err)
			}
			fmt.Println()
			continue
		}
		if i > 0 {
			fmt.Println()
		}
		fmt.Print(t.String())
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "dcbench: %v\n", err)
	os.Exit(1)
}
