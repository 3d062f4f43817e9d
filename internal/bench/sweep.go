package bench

import (
	"context"
	"runtime"
	"sync/atomic"
	"time"

	"github.com/dcindex/dctree/internal/core"
	"github.com/dcindex/dctree/internal/storage"
	"github.com/dcindex/dctree/internal/tpcd"
)

// latencyStore charges every extent read a fixed latency, modeling the
// paper's disk-resident setting (a node fault costs one block read) on top
// of the in-memory store. Embedding the interface hides the store's
// zero-copy views, so every non-resident node a query visits is one charged
// Read. The latency is switchable at runtime so tree construction stays
// fast. The workers sweep and BenchmarkParallelScaling share it.
type latencyStore struct {
	storage.Store
	delay atomic.Int64 // nanoseconds added per Read
}

func (s *latencyStore) Read(id storage.PageID) ([]byte, int, error) {
	if d := s.delay.Load(); d > 0 {
		time.Sleep(time.Duration(d))
	}
	return s.Store.Read(id)
}

// SweepPoint is one (variant, worker count) cell of the workers sweep.
type SweepPoint struct {
	Variant       string  `json:"variant"` // "hot" or "cold"
	Workers       int     `json:"workers"`
	MsPerQuery    float64 `json:"ms_per_query"`
	QueriesPerSec float64 `json:"queries_per_sec"`
	// Speedup is relative to workers=1 of the same variant.
	Speedup float64 `json:"speedup_vs_1_worker"`
	// TasksSpawned / TasksStolen are the work-stealing queue's counters for
	// this cell (delta of the tree metrics over the cell's queries).
	TasksSpawned int64 `json:"tasks_spawned"`
	TasksStolen  int64 `json:"tasks_stolen"`
}

// SweepResult is the JSON shape dcbench -workers-sweep emits.
type SweepResult struct {
	Records     int     `json:"records"`
	Queries     int     `json:"queries"`
	Selectivity float64 `json:"selectivity"`
	// ColdReadLatencyUS is the per-node-fault latency the cold variant
	// charges, in microseconds.
	ColdReadLatencyUS float64 `json:"cold_read_latency_us"`
	// GOMAXPROCS / NumCPU qualify the hot variant: on a single-core host a
	// CPU-bound descent cannot scale, only the fault-overlapping cold
	// variant can.
	GOMAXPROCS int          `json:"gomaxprocs"`
	NumCPU     int          `json:"num_cpu"`
	Points     []SweepPoint `json:"points"`
}

// WorkersSweep measures parallel range-query throughput across worker
// counts, in two variants: hot (warm node cache, CPU-bound) and cold (cache
// evicted per query, every node fault charged coldLatency — the paper's
// disk-bound cost model, where scaling comes from overlapping faults).
func WorkersSweep(opt Options, workerCounts []int, coldLatency time.Duration) (*SweepResult, error) {
	n := opt.Sizes[0]
	scale := opt.Scale
	if scale == (tpcd.Scale{}) {
		scale = tpcd.ScaleFor(n)
	}
	gen, err := tpcd.New(opt.Seed, scale)
	if err != nil {
		return nil, err
	}
	ls := &latencyStore{Store: storage.NewMemStore(opt.DCConfig.BlockSize)}
	tree, err := core.New(ls, gen.Schema(), opt.DCConfig)
	if err != nil {
		return nil, err
	}
	for _, r := range gen.Records(n) {
		if err := tree.Insert(r); err != nil {
			return nil, err
		}
	}
	if err := tree.Flush(); err != nil {
		return nil, err
	}

	const selectivity = 0.25
	qg := gen.Queries(opt.Seed + 77)
	queries := make([]tpcd.Query, opt.QueriesPerPoint)
	for i := range queries {
		if queries[i], err = qg.Query(selectivity); err != nil {
			return nil, err
		}
	}

	res := &SweepResult{
		Records:           n,
		Queries:           len(queries),
		Selectivity:       selectivity,
		ColdReadLatencyUS: float64(coldLatency) / float64(time.Microsecond),
		GOMAXPROCS:        runtime.GOMAXPROCS(0),
		NumCPU:            runtime.NumCPU(),
	}
	for _, variant := range []struct {
		name  string
		delay time.Duration
		cold  bool
	}{
		{"hot", 0, false},
		{"cold", coldLatency, true},
	} {
		base := 0.0
		for _, workers := range workerCounts {
			before := tree.Metrics()
			var elapsed time.Duration
			for _, q := range queries {
				if variant.cold {
					tree.EvictCache()
				}
				ls.delay.Store(int64(variant.delay))
				start := time.Now()
				_, err := tree.Execute(context.Background(),
					core.QueryRequest{Query: q.MDS, Parallel: workers})
				elapsed += time.Since(start)
				ls.delay.Store(0)
				if err != nil {
					return nil, err
				}
			}
			after := tree.Metrics()
			sec := elapsed.Seconds() / float64(len(queries))
			p := SweepPoint{
				Variant:       variant.name,
				Workers:       workers,
				MsPerQuery:    sec * 1000,
				QueriesPerSec: 1 / sec,
				TasksSpawned:  after.ParallelTasksSpawned - before.ParallelTasksSpawned,
				TasksStolen:   after.ParallelTasksStolen - before.ParallelTasksStolen,
			}
			if base == 0 {
				base = sec
			}
			p.Speedup = base / sec
			res.Points = append(res.Points, p)
		}
	}
	return res, nil
}
