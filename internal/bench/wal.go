package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/dcindex/dctree/internal/core"
	"github.com/dcindex/dctree/internal/cube"
	"github.com/dcindex/dctree/internal/hierarchy"
	"github.com/dcindex/dctree/internal/storage"
)

// WALVariant is one durable-insert configuration of the WAL benchmark.
type WALVariant struct {
	// Mode is "single_writer" (one client: every insert pays its own
	// fsync) or "group_commit" (Workers clients on the same commit path: a
	// batch is whatever they append while the previous fsync is in flight).
	Mode    string `json:"mode"`
	Workers int    `json:"workers"`
	// SyncDelayUS is the modeled log-device latency added to every fsync
	// (0 = the raw filesystem), mirroring the workers sweep's cold
	// variant: fast container filesystems commit in ~100 µs where the
	// paper's warehouse disks take milliseconds.
	SyncDelayUS   float64 `json:"sync_delay_us,omitempty"`
	Records       int     `json:"records"`
	Seconds       float64 `json:"seconds"`
	InsertsPerSec float64 `json:"inserts_per_sec"`
	WALAppends    int64   `json:"wal_appends"`
	WALFsyncs     int64   `json:"wal_fsyncs"`
	// MeanBatch is appends per fsync — the group-commit amortization.
	MeanBatch float64 `json:"mean_batch"`
}

// WALBenchResult is the JSON shape dcbench -wal emits.
type WALBenchResult struct {
	Records int `json:"records"`
	// FsyncProbeUS is the measured cost of one fsync on the benchmark
	// directory's filesystem — the floor a lone writer pays per insert.
	FsyncProbeUS float64      `json:"fsync_probe_us"`
	Variants     []WALVariant `json:"variants"`
	// Speedups of Workers concurrent writers over one, at equal modeled
	// device latency — what sharing fsyncs buys on the one commit path.
	SpeedupRaw         float64 `json:"speedup_raw"`
	SpeedupModeledDisk float64 `json:"speedup_modeled_disk"`
}

// walBenchSchema builds a deliberately small cube (one two-level
// dimension, one measure): the benchmark's subject is the commit path —
// WAL append, group commit, fsync — so the tree work per insert is kept
// light to not drown the signal in MDS arithmetic. Records get unique
// leaf values in blocks of 64 under one parent.
func walBenchSchema(n int) (*cube.Schema, []cube.Record, error) {
	h, err := hierarchy.New("K", "Leaf", "Top")
	if err != nil {
		return nil, nil, err
	}
	schema, err := cube.NewSchema([]*hierarchy.Hierarchy{h}, "V")
	if err != nil {
		return nil, nil, err
	}
	recs := make([]cube.Record, n)
	for i := range recs {
		recs[i], err = schema.InternRecord(
			[][]string{{fmt.Sprintf("T%d", i/64), fmt.Sprintf("L%d", i)}},
			[]float64{float64(i)},
		)
		if err != nil {
			return nil, nil, err
		}
	}
	return schema, recs, nil
}

// WALBench measures durable-insert throughput of one writer against
// workers concurrent writers on the same self-clocking commit path, on the
// raw filesystem and with a modeled disk-class commit latency (syncDelay),
// all on a file-backed store and log in dir (a temp directory when empty).
func WALBench(opt Options, n, workers int, syncDelay time.Duration, dir string) (*WALBenchResult, error) {
	if dir == "" {
		d, err := os.MkdirTemp("", "dcwalbench")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(d)
		dir = d
	}
	res := &WALBenchResult{Records: n, FsyncProbeUS: probeFsync(dir)}

	// The modeled-disk single writer pays the full device latency per
	// record; cap its record count so the benchmark finishes in seconds
	// (the throughput measurement does not need equal counts across
	// variants).
	singleModeledN := max(n/5, 200)
	runs := []struct {
		mode    string
		workers int
		delay   time.Duration
		n       int
	}{
		{"single_writer", 1, 0, n},
		{"group_commit", workers, 0, n},
		{"single_writer", 1, syncDelay, singleModeledN},
		{"group_commit", workers, syncDelay, n},
	}
	for i, r := range runs {
		schema, recs, err := walBenchSchema(r.n)
		if err != nil {
			return nil, err
		}
		cfg := opt.DCConfig
		sub := filepath.Join(dir, fmt.Sprintf("run%d", i))
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return nil, err
		}
		st, err := storage.OpenPagedStore(filepath.Join(sub, "store.dc"), cfg.BlockSize, 0)
		if err != nil {
			return nil, err
		}
		tree, err := core.NewDurableOpts(st, schema, cfg, filepath.Join(sub, "idx"),
			storage.WALOptions{SyncDelay: r.delay})
		if err != nil {
			st.Close()
			return nil, err
		}

		start := time.Now()
		var wg sync.WaitGroup
		var firstErr error
		var errMu sync.Mutex
		per := (len(recs) + r.workers - 1) / r.workers
		for w := 0; w < r.workers; w++ {
			lo, hi := w*per, (w+1)*per
			if hi > len(recs) {
				hi = len(recs)
			}
			if lo >= hi {
				break
			}
			wg.Add(1)
			go func(part []cube.Record) {
				defer wg.Done()
				for _, rec := range part {
					if err := tree.Insert(rec); err != nil {
						errMu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						errMu.Unlock()
						return
					}
				}
			}(recs[lo:hi])
		}
		wg.Wait()
		elapsed := time.Since(start)
		stats := tree.WALStats()
		if err := tree.Close(); err != nil {
			st.Close()
			return nil, err
		}
		if err := st.Close(); err != nil {
			return nil, err
		}
		if firstErr != nil {
			return nil, firstErr
		}

		v := WALVariant{
			Mode:          r.mode,
			Workers:       r.workers,
			SyncDelayUS:   float64(r.delay) / float64(time.Microsecond),
			Records:       len(recs),
			Seconds:       elapsed.Seconds(),
			InsertsPerSec: float64(len(recs)) / elapsed.Seconds(),
			WALAppends:    stats.Appends,
			WALFsyncs:     stats.Syncs,
		}
		if stats.Syncs > 0 {
			v.MeanBatch = float64(stats.Appends) / float64(stats.Syncs)
		}
		res.Variants = append(res.Variants, v)
	}

	res.SpeedupRaw = res.Variants[1].InsertsPerSec / res.Variants[0].InsertsPerSec
	res.SpeedupModeledDisk = res.Variants[3].InsertsPerSec / res.Variants[2].InsertsPerSec

	return res, nil
}

// probeFsync measures one fsync on dir's filesystem (microseconds).
func probeFsync(dir string) float64 {
	f, err := os.CreateTemp(dir, "fsync-probe")
	if err != nil {
		return 0
	}
	defer os.Remove(f.Name())
	defer f.Close()
	buf := make([]byte, 64)
	const n = 50
	start := time.Now()
	for i := 0; i < n; i++ {
		f.Write(buf)
		f.Sync()
	}
	return float64(time.Since(start)) / n / float64(time.Microsecond)
}
