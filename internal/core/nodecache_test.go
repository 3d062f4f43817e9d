package core

import (
	"context"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/dcindex/dctree/internal/cube"
	"github.com/dcindex/dctree/internal/mds"
	"github.com/dcindex/dctree/internal/storage"
)

// TestReadersNeverFillCache pins the read side's invariant: a query
// resolves a resident node from the cache and frames every other node where
// it lies, so no reader ever decodes a node or writes the cache. On a twin
// whose store serves no views, after EvictCache, concurrent live and as-of
// queries and both scans leave the cache empty, a query reads exactly the
// nodes it visits, and every answer equals the
// sequential-scan oracle. Run with -race.
func TestReadersNeverFillCache(t *testing.T) {
	cfg := smallConfig()
	st := storage.NewMemStore(cfg.BlockSize)
	s := testSchema(t)
	tree, err := New(st, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(71))
	recs := genRecords(t, s, rng, 600)
	for _, r := range recs {
		if err := tree.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	twin := openDecodeTwin(t, tree, st)
	snap, err := twin.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	twin.EvictCache()

	queries := make([]mds.MDS, 24)
	wants := make([]cube.Agg, len(queries))
	for i := range queries {
		queries[i] = randomQuery(rng, s, 0.3)
		wants[i] = bruteAgg(t, s, recs, queries[i], 0)
	}

	// A query reads each node it visits once, from the store.
	for i, q := range queries[:8] {
		before := twin.Store().Stats().Reads
		res, err := twin.Execute(context.Background(), QueryRequest{Query: q, CollectStats: true})
		if err != nil {
			t.Fatal(err)
		}
		if reads := twin.Store().Stats().Reads - before; reads != int64(res.Stats.NodesVisited) {
			t.Fatalf("query %d: %d store reads for %d nodes visited", i, reads, res.Stats.NodesVisited)
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, q := range queries {
				req := QueryRequest{Query: q}
				if w == 1 || w == 2 && i%2 == 1 {
					req.AsOf = snap
				}
				res, err := twin.Execute(context.Background(), req)
				if err != nil || !aggMatches(res.Agg, wants[i]) {
					t.Errorf("query %d (as-of %v): %+v, %v; want %+v",
						i, req.AsOf != nil, res.Agg, err, wants[i])
					return
				}
				if n := twin.CachedNodes(); n != 0 {
					t.Errorf("%d nodes cached by readers", n)
					return
				}
			}
		}(w)
	}
	for _, scan := range []func(func(cube.Record) bool) error{twin.Scan, snap.Scan} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := 0
			if err := scan(func(cube.Record) bool { n++; return true }); err != nil || n != len(recs) {
				t.Errorf("scan saw %d records (%v), want %d", n, err, len(recs))
			}
		}()
	}
	wg.Wait()
	if n := twin.CachedNodes(); n != 0 {
		t.Fatalf("%d nodes cached after the readers ran, want 0", n)
	}
	if m := twin.Metrics(); m.DecodeFallbacks == 0 || m.FlatNodeReads != 0 {
		t.Fatalf("twin: %d checked reads, %d flat views; want > 0 and 0", m.DecodeFallbacks, m.FlatNodeReads)
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

// TestConcurrentCacheStress drives Get/MarkDirty/Drop/Flush through the
// public API under -race: queries resolve nodes while inserts split and
// drop them, a background goroutine flushes and evicts, and another walks
// the tree through LevelStats and Validate, which read under the shared
// hold as queries do. The workload, not the clock, drives the rounds: every
// 100 inserts the writer waits for a completed flush-and-evict round, so the
// inserts after it fault evicted nodes back in, and halfway through it waits
// for the walker's first round.
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
	// failed closes on the first error, so that no goroutine waits on one
	// that has returned.
	failed := make(chan struct{})
	var failOnce sync.Once
	fail := func(err error) {
		errs <- err
		failOnce.Do(func() { close(failed) })
	}
	rounds := make(chan struct{}, 1) // a flush-and-evict round completed
	walked := make(chan struct{})    // the walker completed its first round
	await := func(c <-chan struct{}) bool {
		select {
		case <-c:
			return true
		case <-failed:
			return false
		}
	}
	wg.Add(1)
	go func() { // writer: inserts mark nodes dirty and drop split victims
		defer wg.Done()
		defer close(stop)
		for i, r := range stream {
			if err := tree.Insert(r); err != nil {
				fail(err)
				return
			}
			if i%100 == 99 && !await(rounds) || i == len(stream)/2 && !await(walked) {
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
				fail(err)
				return
			}
			tree.EvictCache()
			tree.CachedNodes()
			select {
			case rounds <- struct{}{}:
			default:
			}
		}
	}()
	wg.Add(1)
	go func() { // walker: the two whole-tree checks
		defer wg.Done()
		for first := true; ; first = false {
			if _, err := tree.LevelStats(); err != nil {
				fail(err)
				return
			}
			if err := tree.Validate(); err != nil {
				fail(err)
				return
			}
			if first {
				close(walked)
			}
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) { // readers: single- and all-measures descents
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
					_, err = tree.Execute(context.Background(), QueryRequest{Query: q, AllMeasures: true})
				}
				if err != nil {
					fail(err)
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

// TestChecksLeaveCacheAlone: Validate and LevelStats read every node through
// the live tree's Source, as queries do. After Flush and EvictCache they
// fault no node into the cache and count no miss, and LevelStats reports
// what it reported over the resident tree.
func TestChecksLeaveCacheAlone(t *testing.T) {
	tree := newTestTree(t, smallConfig())
	for _, r := range genRecords(t, tree.Schema(), rand.New(rand.NewSource(41)), 600) {
		if err := tree.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.Flush(); err != nil {
		t.Fatal(err)
	}
	want, err := tree.LevelStats()
	if err != nil {
		t.Fatal(err)
	}
	tree.EvictCache()
	misses := tree.Metrics().CacheMisses
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	if n := tree.CachedNodes(); n != 0 {
		t.Fatalf("Validate cached %d nodes", n)
	}
	got, err := tree.LevelStats()
	if err != nil {
		t.Fatal(err)
	}
	if n := tree.CachedNodes(); n != 0 {
		t.Fatalf("LevelStats cached %d nodes", n)
	}
	if d := tree.Metrics().CacheMisses - misses; d != 0 {
		t.Fatalf("the checks counted %d cache misses", d)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("LevelStats over the evicted tree %+v, over the resident tree %+v", got, want)
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
