package index

import (
	"context"
	"sync"

	"github.com/dcindex/dctree/internal/cube"
)

// The parallel descent is morsel-style work stealing: one shared queue of
// subtree tasks, seeded with the root. Each worker drains a task depth-first
// over a private stack, but whenever it uncovers a partially-overlapping
// child while the queue is hungry (an idle worker, or fewer queued tasks
// than workers) it pushes the child onto the queue instead — so a skewed
// supernode subtree is split up and redistributed on the fly rather than
// pinning the whole pool behind one straggler, and every other worker keeps
// locality by staying on its own stack while the queue is primed.
//
// Queries only read the tree (the host excludes mutations for the
// duration), so no task ever touches shared mutable state: workers hold a
// private aggregate and descent, merged once at the end.

// stealTask is one subtree handed through the shared queue. origin is the
// worker index that pushed it (-1 for the root seed), which lets the queue
// count cross-worker steals.
type stealTask struct {
	id     NodeID
	origin int
}

// stealQueue is the shared LIFO work queue. pending counts queued plus
// in-flight tasks; the descent is complete when it reaches zero.
type stealQueue struct {
	mu      sync.Mutex
	cond    sync.Cond
	tasks   []stealTask
	pending int
	waiting int
	workers int
	aborted bool
	spawned int64 // tasks pushed beyond the root seed
	stolen  int64 // tasks popped by a worker other than their pusher
}

func newStealQueue(workers int, seed NodeID) *stealQueue {
	q := &stealQueue{
		workers: workers,
		pending: 1,
		tasks:   []stealTask{{id: seed, origin: -1}},
	}
	q.cond.L = &q.mu
	return q
}

// pop blocks until a task is available, the descent completes, or an abort.
func (q *stealQueue) pop(w int) (NodeID, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if q.aborted || q.pending == 0 {
			return NilNode, false
		}
		if n := len(q.tasks); n > 0 {
			tk := q.tasks[n-1]
			q.tasks = q.tasks[:n-1]
			if tk.origin >= 0 && tk.origin != w {
				q.stolen++
			}
			return tk.id, true
		}
		q.waiting++
		q.cond.Wait()
		q.waiting--
	}
}

// trySpawn offers a subtree to the queue. It accepts only while the queue
// is hungry; otherwise the caller keeps the subtree on its local stack and
// avoids the shared-queue round trip.
func (q *stealQueue) trySpawn(id NodeID, w int) bool {
	q.mu.Lock()
	if q.aborted || (q.waiting == 0 && len(q.tasks) >= q.workers) {
		q.mu.Unlock()
		return false
	}
	q.tasks = append(q.tasks, stealTask{id: id, origin: w})
	q.pending++
	q.spawned++
	q.mu.Unlock()
	q.cond.Signal()
	return true
}

// done retires one popped task; the last retirement releases every waiter.
func (q *stealQueue) done() {
	q.mu.Lock()
	q.pending--
	finished := q.pending == 0
	q.mu.Unlock()
	if finished {
		q.cond.Broadcast()
	}
}

// abort makes further pops fail and wakes every waiter. Workers already
// inside a task notice through their own error or context poll.
func (q *stealQueue) abort() {
	q.mu.Lock()
	q.aborted = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// executeParallel runs one range query over a work-stealing worker pool.
//
// Every worker runs its own descent over the shared query context, so
// cancellation is polled per worker and each worker's QueryStats are merged
// into the result — the parallel path reports exactly the serial path's
// work counters (every overlapping node is visited once; only the traversal
// order differs).
//
// Called from Execute with q.Parallel ≥ 1; src and root name the resolver
// and seed, as for the serial walk.
func (ix *Index) executeParallel(ctx context.Context, qc *queryCtx, req Query, src Source, root NodeID) (Result, error) {
	var res Result
	measures := ix.schema.Measures()
	var vec cube.AggVector
	if req.AllMeasures {
		vec = cube.NewAggVector(measures)
	}

	q := newStealQueue(req.Parallel, root)
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		workErr error
		st      QueryStats
	)
	for w := 0; w < req.Parallel; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			local := cube.NewAggVector(1)
			if req.AllMeasures {
				local = cube.NewAggVector(measures)
			}
			d := ix.newDescent(ctx, src, qc, req)
			d.q, d.w = q, w
			err := d.stealWorker(local)
			if err != nil {
				q.abort()
			}
			mu.Lock()
			if err != nil && workErr == nil {
				workErr = err
			}
			st.add(d.st)
			if req.AllMeasures {
				vec.Merge(local)
			} else {
				res.Agg.Merge(local[0])
			}
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	ix.c.stealSpawned.Add(q.spawned)
	ix.c.stealStolen.Add(q.stolen)
	res.Stats = st
	if workErr != nil {
		return Result{Stats: st}, workErr
	}
	if req.AllMeasures {
		res.AggVector = vec
	}
	return res, nil
}

// stealWorker pops subtree tasks until the descent completes or aborts. Each
// task is drained depth-first over the worker's own stack (whose backing
// array is reused across tasks): visitNode answers or prunes what can be
// decided per entry and offers partially-overlapping children to the shared
// queue while it is hungry.
func (d *descent) stealWorker(out cube.AggVector) error {
	for {
		id, ok := d.q.pop(d.w)
		if !ok {
			return nil
		}
		d.stack = append(d.stack[:0], id)
		var err error
		for len(d.stack) > 0 && err == nil {
			id := d.stack[len(d.stack)-1]
			d.stack = d.stack[:len(d.stack)-1]
			err = d.visitNode(id, out)
		}
		d.q.done()
		if err != nil {
			return err
		}
	}
}
