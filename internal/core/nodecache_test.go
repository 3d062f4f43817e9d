package core

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dcindex/dctree/internal/cube"
	"github.com/dcindex/dctree/internal/index"
	"github.com/dcindex/dctree/internal/mds"
	"github.com/dcindex/dctree/internal/storage"
)

// slowReadStore delays every extent read, widening the fault window so
// singleflight races become deterministic.
type slowReadStore struct {
	storage.Store
	delay time.Duration
	reads atomic.Int64
}

func (s *slowReadStore) Read(id storage.PageID) ([]byte, int, error) {
	s.reads.Add(1)
	if s.delay > 0 {
		time.Sleep(s.delay)
	}
	return s.Store.Read(id)
}

// TestNodeCacheShardOps unit-stresses the sharded cache itself: concurrent
// putNew/get/markDirty/drop/dirtyIDs/evictClean/len/fault over overlapping
// IDs. Run with -race; the assertions are secondary to the race detector.
func TestNodeCacheShardOps(t *testing.T) {
	c := newNodeCache()
	const ids = 256
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 2000; i++ {
				id := nodeID(rng.Intn(ids) + 1)
				switch i % 6 {
				case 0:
					c.putNew(index.NewNode(id, true, 3, 1))
				case 1:
					c.get(id)
				case 2:
					c.markDirty(id)
				case 3:
					c.drop(id)
				case 4:
					c.clearDirty(c.dirtyIDs())
				case 5:
					if _, _, err := c.fault(id, func() (*index.Node, error) {
						return index.NewNode(id, true, 3, 1), nil
					}); err != nil {
						t.Error(err)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	c.evictClean()
	if n := c.len(); n < 0 || n > ids {
		t.Fatalf("len = %d", n)
	}
	// Every remaining resident node must be dirty.
	for i := range c.shards {
		sh := &c.shards[i]
		for id := range sh.nodes {
			if _, dirty := sh.dirty[id]; !dirty {
				t.Fatalf("clean node %d survived evictClean", id)
			}
		}
	}
}

// TestSingleflightFaultStorm asserts that a storm of concurrent Get
// calls for the same cold node performs exactly one store read (and one
// decode): every other caller piggybacks on the leader's in-flight fault.
func TestSingleflightFaultStorm(t *testing.T) {
	cfg := smallConfig()
	ss := &slowReadStore{Store: storage.NewMemStore(cfg.BlockSize), delay: 50 * time.Millisecond}
	s := testSchema(t)
	tree, err := New(ss, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for _, r := range genRecords(t, s, rng, 200) {
		if err := tree.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.Flush(); err != nil {
		t.Fatal(err)
	}
	tree.EvictCache()

	before := ss.reads.Load()
	sharedBefore := tree.Metrics().CacheFaultsShared
	const storm = 16
	var wg sync.WaitGroup
	start := make(chan struct{})
	errs := make(chan error, storm)
	for g := 0; g < storm; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			tree.mu.RLock()
			defer tree.mu.RUnlock()
			if _, err := tree.nodes().Get(tree.ix.Root()); err != nil {
				errs <- err
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := ss.reads.Load() - before; got != 1 {
		t.Fatalf("fault storm performed %d store reads, want 1", got)
	}
	if shared := tree.Metrics().CacheFaultsShared - sharedBefore; shared != storm-1 {
		t.Fatalf("shared faults = %d, want %d", shared, storm-1)
	}
}

// TestEvictCachePreservesDirtyNodes is the regression test for the
// insert → EvictCache → query interleaving: EvictCache must not drop nodes
// whose in-memory state has not been flushed, or their mutations would be
// silently lost. Run with -race.
func TestEvictCachePreservesDirtyNodes(t *testing.T) {
	tree := newTestTree(t, smallConfig())
	s := tree.Schema()
	rng := rand.New(rand.NewSource(99))
	warm := genRecords(t, s, rng, 300)
	stream := genRecords(t, s, rng, 400)
	for _, r := range warm {
		if err := tree.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	// Nothing has been flushed: every node is dirty, so eviction must be a
	// no-op and the full count must survive.
	tree.EvictCache()
	all, err := rangeAgg(tree, tree.RootMDS(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if all.Count != int64(len(warm)) {
		t.Fatalf("count after evict = %d, want %d", all.Count, len(warm))
	}

	// Interleave inserts, evictions and queries concurrently.
	queries := make([]mds.MDS, 50)
	qrng := rand.New(rand.NewSource(101))
	for i := range queries {
		queries[i] = randomQuery(qrng, s, 0.25)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i, r := range stream {
			if err := tree.Insert(r); err != nil {
				errs <- err
				return
			}
			if i%50 == 25 {
				tree.EvictCache()
			}
			if i%100 == 75 {
				if err := tree.Flush(); err != nil {
					errs <- err
					return
				}
				tree.EvictCache()
			}
		}
	}()
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 150; i++ {
				q := queries[(i*3+w)%len(queries)]
				if _, err := rangeAgg(tree, q, 0); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	total := append(append([]cube.Record(nil), warm...), stream...)
	if tree.Count() != int64(len(total)) {
		t.Fatalf("count = %d, want %d", tree.Count(), len(total))
	}
	for i := 0; i < 20; i++ {
		q := queries[i]
		want := bruteAgg(t, s, total, q, 0)
		got, err := rangeAgg(tree, q, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !aggMatches(got, want) {
			t.Fatalf("query %d mismatch after evict interleaving", i)
		}
	}
}

// TestConcurrentCacheStress drives getNode/markDirty/dropNode/Flush through
// the public API under -race: queries fault nodes while inserts split and
// drop them and a background goroutine flushes and evicts.
func TestConcurrentCacheStress(t *testing.T) {
	tree := newTestTree(t, smallConfig())
	s := tree.Schema()
	rng := rand.New(rand.NewSource(31))
	warm := genRecords(t, s, rng, 300)
	stream := genRecords(t, s, rng, 400)
	for _, r := range warm {
		if err := tree.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.Flush(); err != nil {
		t.Fatal(err)
	}
	queries := make([]mds.MDS, 64)
	qrng := rand.New(rand.NewSource(33))
	for i := range queries {
		queries[i] = randomQuery(qrng, s, 0.25)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 16)
	wg.Add(1)
	go func() { // writer: inserts mark nodes dirty and drop split victims
		defer wg.Done()
		defer close(stop)
		for _, r := range stream {
			if err := tree.Insert(r); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Add(1)
	go func() { // flusher: flush + evict rounds concurrently with everything
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			// Paced, not spinning: a busy flush loop would make the test's
			// wall clock depend on host load instead of on the workload.
			case <-time.After(time.Millisecond):
			}
			if err := tree.Flush(); err != nil {
				errs <- err
				return
			}
			tree.EvictCache()
			tree.CachedNodes()
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) { // readers: serial and parallel descents fault nodes
			defer wg.Done()
			for i := 0; i < 200; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := queries[(i*5+w)%len(queries)]
				var err error
				if w%2 == 0 {
					_, err = rangeAgg(tree, q, 0)
				} else {
					_, err = tree.Execute(context.Background(), QueryRequest{Query: q, Parallel: 4})
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	m := tree.Metrics()
	if m.CacheHits == 0 || m.CacheMisses == 0 {
		t.Fatalf("cache stress exercised no hits/misses: %+v", m)
	}
}

// TestQueryCtxPoolReuse asserts that steady-state queries recycle their
// mask arenas and keep answering correctly while alternating query shapes
// (which forces arena reslicing and regrowth).
func TestQueryCtxPoolReuse(t *testing.T) {
	tree := newTestTree(t, smallConfig())
	s := tree.Schema()
	rng := rand.New(rand.NewSource(55))
	recs := genRecords(t, s, rng, 500)
	for _, r := range recs {
		if err := tree.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	qrng := rand.New(rand.NewSource(57))
	shapes := []mds.MDS{
		randomQuery(qrng, s, 0.05),
		randomQuery(qrng, s, 0.6),
		tree.RootMDS(),
		randomQuery(qrng, s, 0.25),
	}
	wants := make([]cube.Agg, len(shapes))
	for i, q := range shapes {
		wants[i] = bruteAgg(t, s, recs, q, 0)
	}
	for round := 0; round < 10; round++ {
		for i, q := range shapes {
			got, err := rangeAgg(tree, q, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !aggMatches(got, wants[i]) {
				t.Fatalf("round %d query %d: %+v != %+v", round, i, got, wants[i])
			}
		}
	}
	m := tree.Metrics()
	if m.MaskPoolHits == 0 {
		t.Fatalf("mask pool never hit: %+v", m)
	}
	if m.MaskPoolHitRatio <= 0.5 {
		t.Fatalf("mask pool hit ratio = %g, want > 0.5", m.MaskPoolHitRatio)
	}
}

// TestParallelStealMetrics asserts the work-stealing descent reports queue
// activity on a tree deep enough to fan out.
func TestParallelStealMetrics(t *testing.T) {
	tree := newTestTree(t, smallConfig())
	s := tree.Schema()
	rng := rand.New(rand.NewSource(61))
	for _, r := range genRecords(t, s, rng, 2000) {
		if err := tree.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	// Fully-contained queries are answered by materialized aggregates at the
	// root without descending; partially-overlapping ranges force workers
	// down the tree and onto the shared queue.
	qrng := rand.New(rand.NewSource(63))
	for i := 0; i < 16; i++ {
		q := randomQuery(qrng, s, 0.3)
		if _, err := tree.Execute(context.Background(), QueryRequest{Query: q, Parallel: 4}); err != nil {
			t.Fatal(err)
		}
	}
	m := tree.Metrics()
	if m.ParallelTasksSpawned == 0 {
		t.Fatalf("no tasks spawned onto the steal queue: %+v", m)
	}
}
