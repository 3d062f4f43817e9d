package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dcindex/dctree/internal/core"
	"github.com/dcindex/dctree/internal/cube"
	"github.com/dcindex/dctree/internal/repl"
	"github.com/dcindex/dctree/internal/seqscan"
	"github.com/dcindex/dctree/internal/storage"
)

// Flush policy, the same on every run and recorded in the result: engine
// defaults (CommitInterval 2 ms, CommitBytes 256 KiB, autotune off) and a
// real fsync on the filesystem of -dir.
var (
	baseConfig = core.DefaultConfig()
	walOptions = storage.WALOptions{}
)

const (
	warmPoolBytes = 16 << 20 // buffer pool of the stores that fit their data
	coldPoolBytes = 1 << 20  // cold-read: the image is ≈ 50× this pool
	drainTimeout  = 30 * time.Second
)

// round is what one pass over a workload's op stream measured. When the
// round ends its times are brought to reference speed (see calib.go),
// except the write times of a workload whose writes wait for the log device.
type round struct {
	setup      time.Duration
	writeLat   []time.Duration // one per write op, in op order
	writeTime  time.Duration   // sum of writeLat
	queryLat   [numClasses][]time.Duration
	queryTime  time.Duration // sum of queryLat
	heapMB     float64
	diskPerRec float64
	digest     string
	burst      time.Duration // median calibration burst

	// layer holds the per-layer metrics this round could compute from
	// public snapshots and harness timers; spans and probes add the rest.
	layer map[string]float64

	attempted, failed int64
	notes             []string // first few failure messages
}

func (r *round) fail(format string, args ...any) {
	r.failed++
	if len(r.notes) < 8 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

// timed is the time of the timed phases; they follow one another.
func (r *round) timed() time.Duration { return r.writeTime + r.queryTime }

// roundRun is the state of one round in flight.
type roundRun struct {
	roundOpts
	in    *input
	sz    sizes
	dir   string  // this round's data directory
	tr    *tracer // nil unless traced
	r     *round
	start time.Time
	speed speedometer

	heapBase uint64 // HeapAlloc when the round began

	mallocs, allocBytes uint64 // heap allocations during the write phase
	queries             int    // queries issued so far
	qstats              [numClasses]core.QueryStats
}

// roundOpts says what a round does besides measuring.
type roundOpts struct {
	// traced records spans.
	traced bool
	// layers asks for the per-layer extras that cost time outside the
	// timed phases: allocation passes, tree walks, probes, the lag sampler.
	layers bool
	// oracle asks for the seqscan comparison (first round of a pass).
	oracle bool
}

// runRound generates the workload from the seed and runs it once.
func runRound(workload string, seed int64, scale float64, dir string, opts roundOpts) (*round, *tracer, error) {
	x := &roundRun{roundOpts: opts, dir: dir,
		sz: workloadSizes[workload].scaled(scale),
		r:  &round{layer: make(map[string]float64)}}
	if err := os.RemoveAll(dir); err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	if x.traced {
		x.tr = newTracer(workload == "durable-mixed" || workload == "replicated")
	}
	x.speed.bursts = make([]time.Duration, 0, 4096) // no allocation inside the timed loops
	runtime.GC()                                    // the last round's tree goes in the second collection after it
	x.heapBase = heapAlloc()
	x.start = time.Now()
	in, err := generate(workload, seed, scale)
	if err != nil {
		return nil, nil, err
	}
	x.in = in
	x.r.digest = in.digest
	x.r.layer["tpcd.generate_rps"] = ratio(float64(len(in.preload)+in.inserts()), time.Since(x.start).Seconds())

	switch workload {
	case "paper-mem":
		err = x.paperMem()
	case "cold-read":
		err = x.coldRead()
	case "durable-mixed":
		err = x.durableMixed()
	case "replicated":
		err = x.replicated()
	default:
		err = fmt.Errorf("unknown workload %q", workload)
	}
	x.tr.finish()
	x.toReferenceSpeed()
	return x.r, x.tr, err
}

// store wraps a real store for the tree.
func (x *roundRun) store(inner storage.Store) *tracedStore {
	return newTracedStore(inner, x.tr, x.layers)
}

// endSetup closes the set-up time, with a burst on either side of it.
func (x *roundRun) endSetup() {
	x.r.setup = time.Since(x.start)
	x.speed.tick(time.Now())
}

// toReferenceSpeed multiplies the round's CPU-bound times by the round's
// speed factor.
func (x *roundRun) toReferenceSpeed() {
	r, f := x.r, x.speed.factor()
	r.burst = time.Duration(float64(refBurst) / f)
	r.setup = time.Duration(float64(r.setup) * f)
	for c := range r.queryLat {
		scaleAll(r.queryLat[c], f)
	}
	r.queryTime = time.Duration(float64(r.queryTime) * f)
	if !x.sz.deviceBound {
		scaleAll(r.writeLat, f)
		r.writeTime = time.Duration(float64(r.writeTime) * f)
	}
}

// writePhase issues all the write ops one by one from a single client.
func (x *roundRun) writePhase(tree *core.Tree) {
	x.writeSlice(tree, 0, len(x.in.writes))
	x.finishWrites()
}

// writeSlice issues write ops lo..hi-1 and adds their time to the write
// phase.
func (x *roundRun) writeSlice(tree *core.Tree, lo, hi int) {
	x.tr.setPhase(phaseWrite)
	if x.r.writeLat == nil {
		x.r.writeLat = make([]time.Duration, len(x.in.writes))
	}
	lat := x.r.writeLat
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var busy time.Duration // the bursts are not part of the phase
	for i := lo; i < hi; i++ {
		op := x.in.writes[i]
		var err error
		var s, e time.Time
		if op.del {
			root, call := x.tr.opBegin(i, "delete", "Delete")
			s = time.Now()
			err = tree.Delete(op.rec)
			e = time.Now()
			x.tr.opEnd(root, call)
		} else {
			root, call := x.tr.opBegin(i, "insert", "Insert")
			s = time.Now()
			err = tree.Insert(op.rec)
			e = time.Now()
			x.tr.opEnd(root, call)
		}
		lat[i] = e.Sub(s)
		busy += lat[i]
		if err != nil {
			x.r.fail("write %d: %v", i, err)
		}
		x.speed.tick(e)
	}
	x.r.writeTime += busy
	runtime.ReadMemStats(&ms1)
	x.mallocs += ms1.Mallocs - ms0.Mallocs
	x.allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
	x.r.attempted += int64(hi - lo)
}

// finishWrites derives what needs the whole write phase.
func (x *roundRun) finishWrites() {
	n := float64(len(x.in.writes))
	x.r.layer["core.allocs_per_insert"] = ratio(float64(x.mallocs), n)
	x.r.layer["core.bytes_per_insert"] = ratio(float64(x.allocBytes), n)

	var ins, dels []time.Duration
	for i, w := range x.in.writes {
		if w.del {
			dels = append(dels, x.r.writeLat[i])
		} else {
			ins = append(ins, x.r.writeLat[i])
		}
	}
	fifth := (len(ins) + 4) / 5
	first, last := mean(ins[:fifth]), mean(ins[len(ins)-fifth:])
	x.r.layer["core.insert_us_first_fifth"] = micros(first)
	x.r.layer["core.insert_us_last_fifth"] = micros(last)
	x.r.layer["core.insert_growth"] = ratio(float64(last), float64(first))
	x.r.layer["core.delete_p50_us"] = micros(percentile(dels, 0.5))
	x.r.layer["op.write_p99_us"] = micros(percentile(x.r.writeLat, 0.99))
}

// queryPhase runs the whole query mix from a single client.
func (x *roundRun) queryPhase(tree *core.Tree) { x.querySlice(tree, 0, len(x.in.queries)) }

// querySlice issues queries lo..hi-1 and adds their time to the query phase.
func (x *roundRun) querySlice(tree *core.Tree, lo, hi int) {
	x.tr.setPhase(phaseQuery)
	ctx := context.Background()
	var busy time.Duration
	for i := lo; i < hi; i++ {
		q := x.in.queries[i]
		root, call := x.tr.opBegin(len(x.in.writes)+i, "query", "Execute."+classNames[q.class])
		s := time.Now()
		res, err := tree.Execute(ctx, core.QueryRequest{Query: q.mds, CollectStats: true})
		e := time.Now()
		x.tr.opEnd(root, call)
		if err != nil {
			x.r.fail("query %d: %v", i, err)
		}
		x.r.queryLat[q.class] = append(x.r.queryLat[q.class], e.Sub(s))
		busy += e.Sub(s)
		st := &x.qstats[q.class]
		st.NodesVisited += res.Stats.NodesVisited
		st.EntriesScanned += res.Stats.EntriesScanned
		st.EntriesPruned += res.Stats.EntriesPruned
		st.MaterializedHits += res.Stats.MaterializedHits
		x.speed.tick(e)
	}
	x.r.queryTime += busy
	x.queries += hi - lo
	x.r.attempted += int64(hi - lo)
}

// heapAlloc is HeapAlloc after a forced collection.
func heapAlloc() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// heap is taken at the end of the write phase: what the round has put on
// the heap, its input included. What the harness keeps of earlier rounds
// (their latencies) is in heapBase and stays out.
func (x *roundRun) heap() {
	x.r.heapMB = float64(heapAlloc()-x.heapBase) / (1 << 20)
}

// queryLayers turns the query phase's work counters into per-class layer
// metrics and, on a layers run, measures allocations per query class in a
// separate untimed pass over the quiet tree.
func (x *roundRun) queryLayers(tree *core.Tree) {
	L := x.r.layer
	var all []time.Duration
	for c := range x.r.queryLat {
		all = append(all, x.r.queryLat[c]...)
	}
	L["op.query_p99_us"] = micros(percentile(all, 0.99))
	for c, name := range classNames {
		n := float64(len(x.r.queryLat[c]))
		st := x.qstats[c]
		L["core.nodes_visited_per_query."+name] = ratio(float64(st.NodesVisited), n)
		L["core.pruned_ratio."+name] = ratio(float64(st.EntriesPruned), float64(st.EntriesScanned))
		L["core.materialized_hits_per_query."+name] = ratio(float64(st.MaterializedHits), n)
	}
	if !x.layers {
		return
	}
	ctx := context.Background()
	for c, name := range classNames {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		n := 0
		for i := c; i < len(x.in.queries); i += numClasses {
			if _, err := tree.Execute(ctx, core.QueryRequest{Query: x.in.queries[i].mds}); err != nil {
				x.r.fail("alloc pass query %d: %v", i, err)
			}
			n++
		}
		runtime.ReadMemStats(&ms1)
		L["core.allocs_per_query."+name] = ratio(float64(ms1.Mallocs-ms0.Mallocs), float64(n))
	}
}

// writeLayers records what the write phase did to one tree, as deltas of
// public snapshots taken around the timed phases.
func (x *roundRun) writeLayers(before, after core.Metrics) {
	L := x.r.layer
	writes := len(x.in.writes)
	L["core.delete_misses"] = float64(after.DeleteMisses - before.DeleteMisses)
	L["core.splits_hierarchy"] = float64(after.SplitsHierarchy - before.SplitsHierarchy)
	L["core.splits_forced"] = float64(after.SplitsForced - before.SplitsForced)
	L["core.supernodes_created"] = float64(after.SupernodesCreated - before.SupernodesCreated)
	L["core.supernodes_grown"] = float64(after.SupernodesGrown - before.SupernodesGrown)
	L["core.root_splits"] = float64(after.RootSplits - before.RootSplits)
	L["core.height"] = float64(after.Height)

	L["core.wal_batch_mean"] = after.WALGroupCommitBatchMean
	L["core.wal_commit_interval_us"] = micros(after.WALCommitInterval)
	L["core.checkpoints"] = float64(after.Checkpoints - before.Checkpoints)
	L["core.checkpoint_stall_s"] = after.CheckpointWriterStallSeconds - before.CheckpointWriterStallSeconds
	L["core.checkpoint_p50_ms"] = millis(after.CheckpointLatency.Quantile(0.5))
	L["core.checkpoint_pages_written"] = float64(after.CheckpointPagesWritten - before.CheckpointPagesWritten)
	L["core.checkpoint_requeued_nodes"] = float64(after.CheckpointRequeuedNodes - before.CheckpointRequeuedNodes)
	L["storage.bytes_written_per_write"] = ratio(float64(after.Store.BytesWritten-before.Store.BytesWritten), float64(writes))
}

// readLayers records what the query phase cost one tree's caches and store.
func (x *roundRun) readLayers(before, after core.Metrics) {
	L := x.r.layer
	queries := x.queries
	hits, misses := after.MaskPoolHits-before.MaskPoolHits, after.MaskPoolMisses-before.MaskPoolMisses
	L["core.mask_pool_hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	hits, misses = after.CacheHits-before.CacheHits, after.CacheMisses-before.CacheMisses
	L["core.cache_hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	L["core.flat_node_reads_per_query"] = ratio(float64(after.FlatNodeReads-before.FlatNodeReads), float64(queries))
	L["core.decode_fallbacks"] = float64(after.DecodeFallbacks - before.DecodeFallbacks)

	st := after.Store.Sub(before.Store)
	L["storage.pool_hit_ratio"] = ratio(float64(st.Hits), float64(st.Hits+st.Misses))
	L["storage.bytes_read_per_query"] = ratio(float64(st.BytesRead), float64(queries))
	L["storage.mmap_views"] = float64(after.MmapViews - before.MmapViews)
	L["storage.mmap_fallbacks"] = float64(after.MmapFallbacks - before.MmapFallbacks)
	L["storage.mmap_remaps"] = float64(after.MmapRemaps - before.MmapRemaps)
}

func (x *roundRun) walLayers(ws storage.WALStats) {
	L := x.r.layer
	L["storage.wal_appends"] = float64(ws.Appends)
	L["storage.wal_syncs"] = float64(ws.Syncs)
	L["storage.wal_segments"] = float64(ws.Segments)
	L["storage.wal_recycled"] = float64(ws.Recycled)
	L["storage.wal_bytes_per_record"] = ratio(float64(ws.BytesStored), float64(ws.Appends))
}

// structure walks the tree for its shape; it faults every node, so it runs
// after everything that is measured.
func (x *roundRun) structure(tree *core.Tree) error {
	if !x.layers {
		return nil
	}
	levels, err := tree.LevelStats()
	if err != nil {
		return err
	}
	nodes, supers := 0, 0
	for _, l := range levels {
		nodes += l.Nodes
		supers += l.Supernodes
	}
	x.r.layer["core.nodes"] = float64(nodes)
	x.r.layer["core.supernode_share"] = ratio(float64(supers), float64(nodes))
	if len(levels) > 1 {
		x.r.layer["core.l1_avg_entries"] = levels[1].AvgEntries
	}
	return nil
}

// check compares the tree with what the op stream says it must hold: the
// record count always, and on the first round of a run the answers of the
// oracle sample against a sequential scan of the final record set (COUNT,
// MIN, MAX exact, SUM within 1e-9 relative).
func (x *roundRun) check(tree *core.Tree, what string) error {
	x.r.attempted++
	if got, want := tree.Count(), int64(len(x.in.final)); got != want {
		x.r.fail("%s: %d records, op stream leaves %d", what, got, want)
	}
	if !x.oracle {
		return nil
	}
	scan := seqscan.New(x.in.gen.Schema())
	for _, rec := range x.in.final {
		if err := scan.Insert(rec); err != nil {
			return err
		}
	}
	ctx := context.Background()
	for i, q := range x.in.checks {
		x.r.attempted++
		res, err := tree.Execute(ctx, core.QueryRequest{Query: q.mds})
		if err != nil {
			x.r.fail("%s: check query %d: %v", what, i, err)
			continue
		}
		want, err := scan.RangeAgg(q.mds, 0)
		if err != nil {
			return err
		}
		if !sameAgg(res.Agg, want) {
			x.r.fail("%s: check query %d (%s): tree %+v, scan %+v", what, i, classNames[q.class], res.Agg, want)
		}
	}
	return nil
}

func sameAgg(got, want cube.Agg) bool {
	if got.Count != want.Count {
		return false
	}
	if want.Count == 0 {
		return true
	}
	return got.Min == want.Min && got.Max == want.Max &&
		math.Abs(got.Sum-want.Sum) <= 1e-9*math.Abs(want.Sum)
}

// diskBytes is the store file plus the live WAL segments.
func diskBytes(storePath, walPrefix string) (int64, error) {
	fi, err := os.Stat(storePath)
	if err != nil {
		return 0, err
	}
	total := fi.Size()
	if walPrefix == "" {
		return total, nil
	}
	segs, err := storage.ListSegments(walPrefix)
	if err != nil {
		return 0, err
	}
	for _, s := range segs {
		total += s.Size
	}
	return total, nil
}

// paperMem is the paper's own experiment: timed single-record inserts into
// an empty in-memory tree (Fig. 11), then the query mix on the tree those
// inserts built (Fig. 12).
func (x *roundRun) paperMem() error {
	ts := x.store(storage.NewMemStore(baseConfig.BlockSize))
	defer ts.Close()
	tree, err := core.New(ts, x.in.gen.Schema(), baseConfig)
	if err != nil {
		return err
	}
	x.endSetup()

	before := tree.Metrics()
	x.writePhase(tree)
	x.heap()
	x.queryPhase(tree)
	x.tr.setPhase(phaseAfter)
	after := tree.Metrics()
	x.writeLayers(before, after)
	x.readLayers(before, after)
	x.queryLayers(tree)

	// The serialized image is the same format a file would hold.
	w0 := ts.Stats().BytesWritten
	d, err := x.tr.call("Flush", tree.Flush)
	if err != nil {
		return err
	}
	x.r.layer["core.flush_ms"] = millis(d)
	x.r.diskPerRec = ratio(float64(ts.Stats().BytesWritten-w0), float64(tree.Count()))

	if err := x.check(tree, "tree"); err != nil {
		return err
	}
	if err := x.structure(tree); err != nil {
		return err
	}
	x.probes(ts)
	return tree.Close()
}

// coldRead bulk-loads an image several times the size of the buffer pool
// it is then reopened with, runs the query mix through zero-copy extent
// views, and finishes by deleting a spread of the records from the cold
// tree.
func (x *roundRun) coldRead() error {
	path := filepath.Join(x.dir, "cold.dc")
	ps, err := storage.OpenPagedStore(path, baseConfig.BlockSize, warmPoolBytes)
	if err != nil {
		return err
	}
	ts := x.store(ps)
	tree, err := core.New(ts, x.in.gen.Schema(), baseConfig)
	if err != nil {
		return err
	}
	d, err := x.tr.call("BulkLoad", func() error { return tree.BulkLoad(x.in.preload) })
	if err != nil {
		return err
	}
	x.r.layer["core.bulkload_rps"] = ratio(float64(len(x.in.preload)), d.Seconds())
	if d, err = x.tr.call("Flush", tree.Flush); err != nil {
		return err
	}
	x.r.layer["core.flush_ms"] = millis(d)
	if err := errors.Join(tree.Close(), ps.Close()); err != nil {
		return err
	}
	x.endSetup()

	if ps, err = storage.OpenPagedStore(path, baseConfig.BlockSize, coldPoolBytes); err != nil {
		return err
	}
	defer ps.Close()
	ts = x.store(ps)
	d, err = x.tr.call("Open", func() error {
		tree, err = core.Open(ts)
		return err
	})
	if err != nil {
		return err
	}
	x.r.layer["core.open_ms"] = millis(d)

	before := tree.Metrics()
	x.queryPhase(tree)
	x.writePhase(tree)
	x.heap()
	x.tr.setPhase(phaseAfter)
	after := tree.Metrics()
	x.writeLayers(before, after)
	x.readLayers(before, after)
	x.queryLayers(tree)

	if _, err := x.tr.call("Flush", tree.Flush); err != nil {
		return err
	}
	bytes, err := diskBytes(path, "")
	if err != nil {
		return err
	}
	x.r.diskPerRec = ratio(float64(bytes), float64(tree.Count()))

	if err := x.check(tree, "tree"); err != nil {
		return err
	}
	if err := x.structure(tree); err != nil {
		return err
	}
	x.probes(ts)
	return tree.Close()
}

// walConfig is the engine configuration of the two WAL workloads.
func (x *roundRun) walConfig() core.Config {
	cfg := baseConfig
	cfg.CheckpointDirtyBytes = x.sz.ckptDirtyKiB << 10
	return cfg
}

// durableMixed writes durably to and reads from one live tree on the full
// operational stack, then crashes the store and recovers a copy.
func (x *roundRun) durableMixed() error {
	path, wal := filepath.Join(x.dir, "live.dc"), filepath.Join(x.dir, "wal")
	ps, err := storage.OpenPagedStore(path, baseConfig.BlockSize, warmPoolBytes)
	if err != nil {
		return err
	}
	defer ps.Close()
	ts := x.store(ps)
	tree, err := core.NewDurableOpts(ts, x.in.gen.Schema(), x.walConfig(), wal, walOptions)
	if err != nil {
		return err
	}
	defer tree.Close() // after a crash this fails by design; the copy is what counts
	d, err := x.tr.call("BulkLoad", func() error { return tree.BulkLoad(x.in.preload) })
	if err != nil {
		return err
	}
	x.r.layer["core.bulkload_rps"] = ratio(float64(len(x.in.preload)), d.Seconds())
	ctx := context.Background()
	if _, err := x.tr.call("Checkpoint", func() error { return tree.Checkpoint(ctx) }); err != nil {
		return err
	}
	x.endSetup()

	// One client alternates between writing and reading the live tree; the
	// checkpointer works in the background throughout.
	before := tree.Metrics()
	for p, w, q := 0, len(x.in.writes), len(x.in.queries); p < x.sz.slices; p++ {
		x.writeSlice(tree, p*w/x.sz.slices, (p+1)*w/x.sz.slices)
		x.querySlice(tree, p*q/x.sz.slices, (p+1)*q/x.sz.slices)
	}
	x.finishWrites()
	x.heap()
	x.tr.setPhase(phaseAfter)
	after := tree.Metrics()
	x.writeLayers(before, after)
	x.readLayers(before, after)
	x.walLayers(tree.WALStats())

	// Crash: the store stops accepting mutations; a checkpoint call then
	// serializes behind any background checkpoint still in flight (it fails
	// or finds nothing to do), after which the files are quiescent.
	ts.crash()
	_ = tree.Checkpoint(ctx)
	crashPath, crashWAL := filepath.Join(x.dir, "crash.dc"), filepath.Join(x.dir, "crashwal")
	if err := copyCrashImage(path, wal, crashPath, crashWAL); err != nil {
		return err
	}

	cps, err := storage.OpenPagedStore(crashPath, baseConfig.BlockSize, warmPoolBytes)
	if err != nil {
		return err
	}
	defer cps.Close()
	cts := x.store(cps)
	var rec *core.Tree
	d, err = x.tr.call("OpenDurableOpts", func() error {
		rec, err = core.OpenDurableOpts(cts, crashWAL, walOptions)
		return err
	})
	if err != nil {
		return fmt.Errorf("recovery: %w", err)
	}
	replayed := rec.Metrics().RecoveryReplayedRecords
	x.r.layer["core.recover_ms"] = millis(d)
	x.r.layer["core.recover_replayed_records"] = float64(replayed)
	x.r.layer["core.recover_us_per_record"] = ratio(micros(d), float64(replayed))

	if err := x.check(rec, "recovered tree"); err != nil {
		return err
	}
	// Space is taken on the recovered image after a checkpoint of its own,
	// so that it does not depend on where the background checkpointer
	// happened to be when the writer finished.
	if _, err := x.tr.call("Checkpoint", func() error { return rec.Checkpoint(ctx) }); err != nil {
		return err
	}
	bytes, err := diskBytes(crashPath, crashWAL)
	if err != nil {
		return err
	}
	x.r.diskPerRec = ratio(float64(bytes), float64(rec.Count()))
	x.queryLayers(rec)
	if err := x.structure(rec); err != nil {
		return err
	}
	x.probes(cts)
	return rec.Close()
}

// copyCrashImage copies the store file and the WAL segments as they are on
// disk at the moment of the crash.
func copyCrashImage(storePath, walPrefix, toStore, toWAL string) error {
	if err := copyFile(storePath, toStore); err != nil {
		return err
	}
	segs, err := storage.ListSegments(walPrefix)
	if err != nil {
		return err
	}
	for _, s := range segs {
		if err := copyFile(s.Path, storage.SegmentPath(toWAL, s.Index)); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(from, to string) error {
	src, err := os.Open(from)
	if err != nil {
		return err
	}
	defer src.Close()
	dst, err := os.Create(to)
	if err != nil {
		return err
	}
	if _, err := io.Copy(dst, src); err != nil {
		dst.Close()
		return err
	}
	return dst.Close()
}

// replicated puts log shipping and the follower's acknowledgment on the
// blocking path of every write, reads the replica between slices of the
// writes, then promotes the follower and checks what it holds.
func (x *roundRun) replicated() error {
	path, wal := filepath.Join(x.dir, "primary.dc"), filepath.Join(x.dir, "wal")
	ps, err := storage.OpenPagedStore(path, baseConfig.BlockSize, warmPoolBytes)
	if err != nil {
		return err
	}
	defer ps.Close()
	ts := x.store(ps)
	cfg := x.walConfig()
	cfg.SyncReplication = 1
	prim, err := core.NewDurableOpts(ts, x.in.gen.Schema(), cfg, wal, walOptions)
	if err != nil {
		return err
	}
	defer prim.Close()
	// Retention floor from birth, so the follower can bootstrap from LSN 1.
	prim.WAL().SetRetainLSN(0)
	f, err := repl.NewFollower(&repl.WALSource{Tree: prim}, repl.FollowerOptions{
		Dir:             filepath.Join(x.dir, "follower"),
		ID:              "benchmark",
		Config:          cfg,
		Poll:            time.Millisecond,
		CheckpointEvery: time.Second,
		WAL:             walOptions,
		PoolBytes:       warmPoolBytes,
	})
	if err != nil {
		return err
	}
	defer f.Close()
	x.endSetup()

	var maxLag atomic.Int64
	stopSampler := make(chan struct{})
	var sampler sync.WaitGroup
	if x.layers {
		sampler.Add(1)
		go func() {
			defer sampler.Done()
			tick := time.NewTicker(10 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stopSampler:
					return
				case <-tick.C:
					if lag := f.Metrics().LagBytes; lag > maxLag.Load() {
						maxLag.Store(lag)
					}
				}
			}
		}()
	}

	// One client alternates between the two sides of the pair: a slice of
	// the writes on the primary, then — once the replica has applied them —
	// one pass of the mix on the replica. Spreading the passes over the
	// round samples the machine's speed many times, not once.
	before := prim.Metrics()
	replica := f.Tree()
	qbefore := replica.Metrics()
	var drain, drains time.Duration
	for p, w, q := 0, len(x.in.writes), len(x.in.queries); p < x.sz.slices; p++ {
		x.writeSlice(prim, p*w/x.sz.slices, (p+1)*w/x.sz.slices)
		tip := prim.WAL().LastLSN()
		drainStart := time.Now()
		for f.AppliedLSN() < tip {
			if err := f.Err(); err != nil {
				close(stopSampler)
				sampler.Wait()
				return fmt.Errorf("follower: %w", err)
			}
			if time.Since(drainStart) > drainTimeout {
				x.r.fail("follower still at LSN %d of %d after %v", f.AppliedLSN(), tip, drainTimeout)
				break
			}
			time.Sleep(200 * time.Microsecond)
		}
		drain = time.Since(drainStart)
		drains += drain
		x.querySlice(replica, p*q/x.sz.slices, (p+1)*q/x.sz.slices)
	}
	x.finishWrites()
	qafter := replica.Metrics()
	close(stopSampler)
	sampler.Wait()
	x.heap()
	x.tr.setPhase(phaseAfter)

	after := prim.Metrics()
	x.writeLayers(before, after)
	x.walLayers(prim.WALStats())
	fm := f.Metrics()
	L := x.r.layer
	L["repl.lag_bytes_max"] = float64(maxLag.Load())
	L["repl.drain_ms"] = millis(drain)
	L["repl.apply_rps"] = ratio(float64(fm.RecordsApplied), (x.r.writeTime + drains).Seconds())
	L["repl.bytes_shipped_per_record"] = ratio(float64(fm.BytesShipped), float64(fm.RecordsApplied))
	L["repl.follower_checkpoints"] = float64(fm.Checkpoints)
	L["repl.resyncs"] = float64(fm.Resyncs)
	L["repl.sync_degraded"] = float64(after.ReplSyncDegraded)
	for i := int64(0); i < after.ReplSyncDegraded; i++ {
		x.r.fail("write acknowledged without the follower (sync degraded)")
	}
	bytes, err := diskBytes(path, wal)
	if err != nil {
		return err
	}
	x.r.diskPerRec = ratio(float64(bytes), float64(prim.Count()))

	var rw *core.Tree
	d, err := x.tr.call("Promote", func() error {
		rw, err = f.Promote()
		return err
	})
	if err != nil {
		return fmt.Errorf("promote: %w", err)
	}
	L["repl.promote_ms"] = millis(d)
	x.r.attempted++
	if rw.Count() != prim.Count() {
		x.r.fail("promoted tree holds %d records, primary %d", rw.Count(), prim.Count())
	}
	if err := x.check(rw, "promoted tree"); err != nil {
		return err
	}

	x.readLayers(qbefore, qafter)
	x.queryLayers(rw)
	if err := x.structure(rw); err != nil {
		return err
	}
	x.probes(ts)
	return rw.Close()
}
