package main

import (
	"math"
	"sort"
	"time"
)

// metricDef names one metric. BENCHMARK.json at the repository root lists
// the same names, units, directions and bounds; bench_test.go keeps the
// two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the metrics a user of the engine sees. Every workload
// reports every one of them from its untraced pass. The bounds are what
// this sandbox resolves: the same code on the same data runs in one of two
// speeds some 30 % apart for seconds at a time, which leaves 10–15 % between
// the quartiles of ten runs of any timing; sizes and counts repeat within
// 3 %.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"write_rps", "ops/s", higher, 0.25},
	{"write_p50_us", "us", lower, 0.25},
	{"query_qps", "q/s", higher, 0.25},
	{"query_sel01_p50_us", "us", lower, 0.25},
	{"query_sel25_p50_us", "us", lower, 0.25},
	{"query_rollup_p50_us", "us", lower, 0.25},
	{"heap_mb", "MiB", lower, 0.10},
	{"disk_bytes_per_record", "B", lower, 0.10},
}

// perLayer are the metrics of single layers (this repository's packages),
// all measured from outside the engine. A traced run reports every one; a
// metric a workload does not exercise reads 0 there.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var defs []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	perClass := func(unit, better, prefix string) {
		for _, c := range classNames {
			add(unit, better, prefix+"."+c)
		}
	}
	// whole operations: the tails, which this sandbox does not repeat
	add("us", lower, "op.write_p99_us", "op.query_p99_us")
	// core, write path
	add("us", lower, "core.insert_self_us", "core.insert_us_first_fifth", "core.insert_us_last_fifth", "core.delete_p50_us")
	add("ratio", lower, "core.insert_growth")
	add("count", lower, "core.allocs_per_insert", "core.delete_misses")
	add("B", lower, "core.bytes_per_insert")
	// core, tree structure
	add("count", lower, "core.splits_hierarchy", "core.splits_forced", "core.supernodes_created",
		"core.supernodes_grown", "core.root_splits", "core.height", "core.nodes")
	add("ratio", lower, "core.supernode_share")
	add("count", lower, "core.l1_avg_entries")
	// core, query path
	perClass("us", lower, "core.execute_self_us")
	perClass("count", lower, "core.nodes_visited_per_query")
	perClass("ratio", higher, "core.pruned_ratio")
	perClass("count", higher, "core.materialized_hits_per_query")
	perClass("count", lower, "core.allocs_per_query")
	add("ratio", higher, "core.mask_pool_hit_ratio", "core.cache_hit_ratio")
	add("count", higher, "core.flat_node_reads_per_query")
	add("count", lower, "core.decode_fallbacks")
	// core, commit / checkpoint / restart
	add("count", higher, "core.wal_batch_mean")
	add("us", lower, "core.wal_commit_interval_us")
	add("count", higher, "core.checkpoints")
	add("s", lower, "core.checkpoint_stall_s")
	add("ms", lower, "core.checkpoint_p50_ms")
	add("count", lower, "core.checkpoint_pages_written", "core.checkpoint_requeued_nodes")
	add("rec/s", higher, "core.bulkload_rps")
	add("ms", lower, "core.flush_ms", "core.open_ms", "core.recover_ms")
	add("count", lower, "core.recover_replayed_records")
	add("us", lower, "core.recover_us_per_record")
	// storage: spans of the traced store, store and WAL snapshots, probes
	add("count", lower, "storage.read_calls", "storage.view_calls", "storage.write_calls",
		"storage.sync_calls", "storage.alloc_calls", "storage.free_calls")
	add("ms", lower, "storage.read_busy_ms", "storage.view_busy_ms", "storage.write_busy_ms",
		"storage.sync_busy_ms", "storage.setmeta_busy_ms")
	add("ratio", higher, "storage.pool_hit_ratio")
	add("B", lower, "storage.bytes_read_per_query", "storage.bytes_written_per_write")
	add("count", higher, "storage.mmap_views")
	add("count", lower, "storage.mmap_fallbacks", "storage.mmap_remaps",
		"storage.wal_appends", "storage.wal_syncs", "storage.wal_segments")
	add("count", higher, "storage.wal_recycled")
	add("B", lower, "storage.wal_bytes_per_record")
	add("ns", lower, "storage.view_extent_ns", "storage.read_extent_ns", "storage.wal_append_ns")
	add("us", lower, "storage.wal_fsync_us")
	// mds, hierarchy, cube, bitmap: layer probes
	add("ns", lower, "mds.cover_ns", "mds.adapt_to_levels_ns", "mds.overlap_ns",
		"mds.extension_ns", "mds.contains_ns", "mds.decode_ns")
	add("ns", lower, "hierarchy.parent_ns", "hierarchy.ancestor_at_ns", "hierarchy.register_ns")
	add("ms", lower, "hierarchy.decode_ms")
	add("ns", lower, "cube.validate_record_ns", "cube.agg_merge_ns", "bitmap.dense_set_get_ns")
	// repl
	add("B", lower, "repl.lag_bytes_max", "repl.bytes_shipped_per_record")
	add("ms", lower, "repl.drain_ms", "repl.promote_ms")
	add("rec/s", higher, "repl.apply_rps")
	add("count", lower, "repl.follower_checkpoints", "repl.resyncs", "repl.sync_degraded")
	// tpcd, harness
	add("rec/s", higher, "tpcd.generate_rps")
	add("%", lower, "trace.overhead_pct")
	add("us", lower, "host.calib_burst_us")
	return defs
}

// allMetrics lists the end-to-end metrics, then the per-layer ones.
func allMetrics() []metricDef {
	return append(append([]metricDef(nil), endToEnd...), perLayer...)
}

// value is one reported measurement. Samples is the number of timed
// observations behind a percentile or rate (0 for counters and gauges).
type value struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// percentile is nearest-rank on an unsorted sample; it sorts a copy.
func percentile(lat []time.Duration, p float64) time.Duration {
	if len(lat) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func micros(d time.Duration) float64 { return float64(d) / 1e3 }
func millis(d time.Duration) float64 { return float64(d) / 1e6 }

func sum(lat []time.Duration) (total time.Duration) {
	for _, d := range lat {
		total += d
	}
	return total
}

func mean(lat []time.Duration) time.Duration {
	if len(lat) == 0 {
		return 0
	}
	return sum(lat) / time.Duration(len(lat))
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
