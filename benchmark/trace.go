package main

import (
	"bufio"
	"errors"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dcindex/dctree/internal/storage"
)

// Phases of one round. Spans carry the phase they started in, so the
// summarizer can separate set-up I/O from the I/O of the timed phases.
const (
	phaseSetup = iota
	phaseWrite
	phaseQuery
	phaseAfter // footprint, crash, recovery, promotion, checks
)

var phaseNames = [...]string{"setup", "write", "query", "after"}

// span is one traced interval. Spans of one operation share opSeq; parent
// 0 marks a root.
type span struct {
	id, parent int32
	opSeq      int32
	phase      uint8
	layer      string
	name       string
	start, end int64 // ns since the tracer's origin
}

// tracer keeps spans in memory and writes them out when the workload
// ends. A nil *tracer is the untraced pass: every method is a no-op.
type tracer struct {
	origin time.Time

	mu    sync.Mutex
	spans []span

	phase atomic.Int32
	// cur is the call span that storage spans become children of. On
	// workloads with a second client or a background checkpointer the
	// enclosing call is ambiguous, so cur stays at the workload span and
	// storage time is reported as layer totals only.
	cur       atomic.Int32
	ambiguous bool
	workload  int32 // id of the span covering the whole round
}

func newTracer(ambiguous bool) *tracer {
	t := &tracer{origin: time.Now(), ambiguous: ambiguous, spans: make([]span, 0, 1<<16)}
	t.workload = t.begin(0, -1, "harness", "workload")
	t.cur.Store(t.workload)
	return t
}

func (t *tracer) setPhase(p int) {
	if t != nil {
		t.phase.Store(int32(p))
	}
}

func (t *tracer) begin(parent int32, opSeq int, layer, name string) int32 {
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{id: id, parent: parent, opSeq: int32(opSeq),
		phase: uint8(t.phase.Load()), layer: layer, name: name, start: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int32) {
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	t.spans[id-1].end = now
	t.mu.Unlock()
}

// opBegin opens the root span of one operation and the core call span
// under it; opEnd closes both.
func (t *tracer) opBegin(opSeq int, op, call string) (root, callID int32) {
	if t == nil {
		return 0, 0
	}
	root = t.begin(0, opSeq, "op", op)
	callID = t.begin(root, opSeq, "core", call)
	if !t.ambiguous {
		t.cur.Store(callID)
	}
	return root, callID
}

func (t *tracer) opEnd(root, callID int32) {
	if t == nil {
		return
	}
	t.end(callID)
	t.end(root)
	if !t.ambiguous {
		t.cur.Store(t.workload)
	}
}

// call times one phase-level engine call (BulkLoad, Flush, Open, …) and,
// when tracing, records it as a core span under the workload span with the
// storage spans it causes as children.
func (t *tracer) call(name string, fn func() error) (time.Duration, error) {
	var id int32
	if t != nil {
		id = t.begin(t.workload, -1, "core", name)
		if !t.ambiguous {
			t.cur.Store(id)
		}
	}
	start := time.Now()
	err := fn()
	d := time.Since(start)
	if t != nil {
		t.end(id)
		t.cur.Store(t.workload)
	}
	return d, err
}

func (t *tracer) finish() {
	if t != nil {
		t.end(t.workload)
	}
}

// layerSum is what the summarizer reports per (phase, layer, name): how
// often the layer was entered, how long it was busy, and its self time —
// busy minus the part its child spans cover.
type layerSum struct {
	count      int64
	busy, self time.Duration
}

type sumKey struct {
	phase       int
	layer, name string
}

func (t *tracer) summarize() map[sumKey]layerSum {
	children := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		children[s.parent] += s.end - s.start
	}
	out := make(map[sumKey]layerSum)
	for _, s := range t.spans {
		k := sumKey{int(s.phase), s.layer, s.name}
		v := out[k]
		v.count++
		v.busy += time.Duration(s.end - s.start)
		v.self += time.Duration(s.end - s.start - children[s.id])
		out[k] = v
	}
	return out
}

// writeJSONL writes one span per line:
// {"id","parent","op_seq","layer","name","phase","start_ns","end_ns"}.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var b []byte
	for _, s := range t.spans {
		b = append(b[:0], `{"id":`...)
		b = strconv.AppendInt(b, int64(s.id), 10)
		b = append(b, `,"parent":`...)
		b = strconv.AppendInt(b, int64(s.parent), 10)
		b = append(b, `,"op_seq":`...)
		b = strconv.AppendInt(b, int64(s.opSeq), 10)
		b = append(b, `,"layer":"`...)
		b = append(b, s.layer...)
		b = append(b, `","name":"`...)
		b = append(b, s.name...)
		b = append(b, `","phase":"`...)
		b = append(b, phaseNames[s.phase]...)
		b = append(b, `","start_ns":`...)
		b = strconv.AppendInt(b, s.start, 10)
		b = append(b, `,"end_ns":`...)
		b = strconv.AppendInt(b, s.end, 10)
		b = append(b, "}\n"...)
		w.Write(b) // a failed write sticks to w and comes back from Flush
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

var errCrashed = errors.New("benchmark: store crashed")

// maxProbePages bounds the extents a traced store remembers for the
// storage layer probes.
const maxProbePages = 4096

// tracedStore is the storage.Store the harness hands to the tree. It
// forwards every call (and storage.ExtentViewer) to the real store,
// records a storage span per call when tracing, and after crash() refuses
// every mutation the way storage.FaultStore does, so the files can be
// copied as a crash image while the tree is still open.
type tracedStore struct {
	inner  storage.Store
	viewer storage.ExtentViewer
	tr     *tracer

	// crashMu lets crash() wait for mutations already inside the store.
	crashMu sync.RWMutex
	crashed bool

	// capture remembers the extents written, as operands of the storage
	// layer probes.
	capture bool
	pagesMu sync.Mutex
	pages   []storage.PageID
}

func newTracedStore(inner storage.Store, tr *tracer, capture bool) *tracedStore {
	v, _ := inner.(storage.ExtentViewer)
	return &tracedStore{inner: inner, viewer: v, tr: tr, capture: capture}
}

func (s *tracedStore) span(name string) int32 {
	if s.tr == nil {
		return 0
	}
	return s.tr.begin(s.tr.cur.Load(), -1, "storage", name)
}

func (s *tracedStore) done(id int32) {
	if s.tr != nil {
		s.tr.end(id)
	}
}

// mutate runs one mutating call unless the store has crashed.
func (s *tracedStore) mutate(name string, fn func() error) error {
	s.crashMu.RLock()
	defer s.crashMu.RUnlock()
	if s.crashed {
		return errCrashed
	}
	id := s.span(name)
	err := fn()
	s.done(id)
	return err
}

func (s *tracedStore) crash() {
	s.crashMu.Lock()
	s.crashed = true
	s.crashMu.Unlock()
}

func (s *tracedStore) BlockSize() int { return s.inner.BlockSize() }

func (s *tracedStore) Alloc(blocks int) (id storage.PageID, err error) {
	err = s.mutate("alloc", func() error {
		id, err = s.inner.Alloc(blocks)
		return err
	})
	return id, err
}

func (s *tracedStore) Write(id storage.PageID, blocks int, data []byte) error {
	if s.capture {
		s.pagesMu.Lock()
		if len(s.pages) < maxProbePages {
			s.pages = append(s.pages, id)
		}
		s.pagesMu.Unlock()
	}
	return s.mutate("write", func() error { return s.inner.Write(id, blocks, data) })
}

func (s *tracedStore) Read(id storage.PageID) ([]byte, int, error) {
	sp := s.span("read")
	data, blocks, err := s.inner.Read(id)
	s.done(sp)
	return data, blocks, err
}

func (s *tracedStore) Free(id storage.PageID, blocks int) error {
	return s.mutate("free", func() error { return s.inner.Free(id, blocks) })
}

func (s *tracedStore) SetMeta(data []byte) error {
	return s.mutate("setmeta", func() error { return s.inner.SetMeta(data) })
}

func (s *tracedStore) GetMeta() ([]byte, error) { return s.inner.GetMeta() }
func (s *tracedStore) Stats() storage.Stats     { return s.inner.Stats() }
func (s *tracedStore) ResetStats()              { s.inner.ResetStats() }

func (s *tracedStore) Sync() error {
	return s.mutate("sync", func() error { return s.inner.Sync() })
}

func (s *tracedStore) Close() error { return s.inner.Close() }

// ViewExtent forwards storage.ExtentViewer; both real stores implement it.
func (s *tracedStore) ViewExtent(id storage.PageID) ([]byte, int, error) {
	sp := s.span("view")
	data, blocks, err := s.viewer.ViewExtent(id)
	s.done(sp)
	return data, blocks, err
}

func (s *tracedStore) ViewStats() storage.ViewStats { return s.viewer.ViewStats() }
