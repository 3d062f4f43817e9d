package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/dcindex/dctree/internal/cube"
	"github.com/dcindex/dctree/internal/index"
	"github.com/dcindex/dctree/internal/mds"
	"github.com/dcindex/dctree/internal/storage"
)

// nodeID is the logical identifier of a DC-tree node. Logical IDs are
// translated to storage extents through a table, so a node whose encoding
// outgrows (or shrinks below) its extent can be relocated without touching
// the pointers in its parent.
type nodeID = index.NodeID

// extentRef locates a node's current extent.
type extentRef struct {
	page   storage.PageID
	blocks int
}

// Tree is a DC-tree over a data cube. It is safe for concurrent use: reads
// and checks run under a read lock, mutations under a write lock — the
// structure stays continuously available for OLAP while single-record
// updates stream in, which is the paper's motivating scenario.
type Tree struct {
	mu     sync.RWMutex
	schema *cube.Schema
	cfg    Config
	store  storage.Store

	// ix is the paper's index: its head and the three algorithms. Its
	// mutations run under t.mu held exclusively, its read-only walks under
	// t.mu held shared or over a pinned Version; its nodes live in this
	// tree's cache and extents (treeNodes).
	ix *index.Index

	// closed latches Close (guarded by t.mu): mutations are refused with
	// ErrClosed from then on, queries keep answering from memory.
	closed bool

	nextID nodeID
	table  map[nodeID]extentRef
	// pendingFree holds extents superseded by in-memory changes; they are
	// released only after the next durable metadata swap (shadow paging).
	pendingFree []extentRef

	// wal, when non-nil (NewDurable/OpenDurable), makes every acknowledged
	// Insert/Delete durable via write-ahead logging with group commit. It is
	// set before the tree is shared and never changes afterwards.
	// checkpointLSN is the WAL frontier the last durable checkpoint
	// superseded: recovery replays only records strictly beyond it.
	wal           *walState
	checkpointLSN uint64

	// replica marks an apply-only tree (OpenReplica/NewReplica): local
	// mutations are rejected and state advances solely through
	// ApplyReplicated, which replays the primary's WAL records and stamps
	// appliedLSN (guarded by t.mu) — the replica's durability frontier,
	// persisted by its checkpoints in place of a WAL LSN.
	replica    bool
	appliedLSN uint64

	// epoch is the replication fencing epoch (guarded by t.mu, persisted
	// in the metadata and stamped into WAL segment headers). Every promotion
	// bumps it; ApplyReplicated rejects records from lower epochs with
	// ErrFenced, so a deposed primary that keeps writing can never corrupt
	// a follower that has acknowledged the new timeline. Zero on trees
	// that predate fencing — no promotion has ever occurred, so nothing is
	// fenced.
	epoch uint64

	// dictMu guards dictPending: dictionary registration deltas observed by
	// the hierarchy hooks (which fire inside Schema.InternRecord, outside
	// t.mu) and drained into a walOpDictDelta record immediately before the
	// next mutation record, so replayed mutations always find their IDs
	// already registered. Only populated on WAL-backed trees.
	dictMu      sync.Mutex
	dictPending []dictDelta

	// ckptMu serializes checkpoints (Checkpoint/Flush) end to end. Lock
	// order: ckptMu strictly before t.mu — a checkpoint acquires t.mu twice
	// (capture, install) and nothing that holds t.mu may start a
	// checkpoint. cp is the optional auto-trigger goroutine
	// (CheckpointInterval/CheckpointDirtyBytes), started before the tree is
	// shared and stopped once, by Close.
	ckptMu sync.Mutex
	cp     *checkpointer

	// nc holds the resident nodes (guarded by t.mu; only writers fill it).
	nc *nodeCache

	// MVCC snapshots. versionSeq mints monotonic version numbers and
	// latestVersionID/latestVersionLSN stamp the most recent snapshot; all
	// three are guarded by t.mu and persisted in the metadata so numbers
	// never repeat across restarts. versions holds the live handles (guarded by
	// vmu — never acquired while holding t.mu is fine, but the reverse
	// order is forbidden). pins is the extent refcount ledger shared with
	// checkpoint installs: a live version's extents are parked, not freed.
	versionSeq       uint64
	latestVersionID  uint64
	latestVersionLSN uint64
	vmu              sync.Mutex
	versions         map[uint64]*Version
	pins             *storage.Pins
	// versionGen counts version-registry changes (snapshot, release) and
	// versionGenPersisted records the generation the last durable metadata
	// swap captured; both guarded by t.mu. A checkpoint may be skipped as a
	// no-op only when they are equal — otherwise the meta blob's version
	// manifests would go stale and a released version could resurrect
	// (or an unreleased one vanish) on reopen.
	versionGen          uint64
	versionGenPersisted uint64

	// viewer is the store's zero-copy view interface, when it has one
	// (PagedStore mmap views, MemStore in-memory extents). Non-resident nodes
	// are then queried in place over the extent bytes; a store without it
	// has them framed over a checked read.
	viewer storage.ExtentViewer

	// metrics is the always-on observability instrumentation (atomic-only
	// on hot paths); slowHook optionally records queries over a latency
	// threshold. Both are usable at their zero value.
	metrics  treeMetrics
	slowHook atomic.Pointer[slowQueryHook]
}

// New creates an empty DC-tree on the given store. The store's metadata
// area becomes owned by the tree (Flush overwrites it).
func New(store storage.Store, schema *cube.Schema, cfg Config) (*Tree, error) {
	if err := cfg.Normalize(); err != nil {
		return nil, err
	}
	if cfg.BlockSize != store.BlockSize() {
		return nil, fmt.Errorf("%w: config block size %d != store block size %d",
			ErrBadConfig, cfg.BlockSize, store.BlockSize())
	}
	t := &Tree{
		schema:   schema,
		cfg:      cfg,
		store:    store,
		nextID:   1,
		table:    make(map[nodeID]extentRef),
		nc:       newNodeCache(),
		versions: make(map[uint64]*Version),
		pins:     storage.NewPins(),
	}
	t.viewer, _ = store.(storage.ExtentViewer)
	t.ix = index.New(schema, cfg.Config, t.nodes(), storage.ExtentCapacity(cfg.BlockSize, 1))
	return t, nil
}

// Schema returns the tree's cube schema.
func (t *Tree) Schema() *cube.Schema { return t.schema }

// Config returns the tree's configuration.
func (t *Tree) Config() Config { return t.cfg }

// Count returns the number of live data records.
func (t *Tree) Count() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.ix.Count()
}

// Height returns the number of node levels (1 = the root is a data node).
func (t *Tree) Height() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.ix.Height()
}

// RootMDS returns a copy of the MDS describing the whole indexed cube.
func (t *Tree) RootMDS() mds.MDS {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.ix.Head().RootMDS
}

// LevelStats walks the tree and reports per-level node statistics. Like a
// query it reads every node through the live tree's Source, under the
// shared hold, and fills no cache.
func (t *Tree) LevelStats() ([]LevelStat, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.ix.LevelStats(t.nodes(), t.ix.Head())
}

// Validate deep-checks every structural invariant of the tree
// (index.Index.Validate) over the bytes a query reads: the oracle behind the
// randomized workload tests. Like LevelStats it holds the tree lock shared.
func (t *Tree) Validate() error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.ix.Validate(t.nodes(), t.ix.Head())
}

// treeNodes is the Tree as the index meets it: the write-side node store
// (index.Store) over the node cache, the extent table and the block store,
// and the read-side resolver of the live tree (index.Source). A defined
// type, not a wrapper value — the methods would otherwise be part of
// Tree's public surface.
type treeNodes Tree

func (t *Tree) nodes() *treeNodes { return (*treeNodes)(t) }

// New allocates a fresh, cached, dirty node. Storage extents are assigned
// lazily at Flush time.
func (s *treeNodes) New(leaf bool) *index.Node {
	n := index.NewNode(s.nextID, leaf, s.schema.Dims(), s.schema.Measures())
	s.nextID++
	s.nc.putNew(n)
	return n
}

// Get returns a node's heap form, decoding it from its extent into the
// cache on a miss. Only mutations call it, holding t.mu exclusively.
func (s *treeNodes) Get(id nodeID) (*index.Node, error) {
	if n := s.nc.get(id); n != nil {
		s.metrics.cacheHits.Inc()
		return n, nil
	}
	s.metrics.cacheMisses.Inc()
	ref, ok := s.table[id]
	if !ok {
		return nil, fmt.Errorf("%w: node %d has no extent", ErrCorrupt, id)
	}
	payload, _, err := s.store.Read(ref.page)
	if err != nil {
		return nil, fmt.Errorf("dctree: reading node %d: %w", id, err)
	}
	n, err := index.DecodeNode(id, payload, s.schema.Dims(), s.schema.Measures())
	if err != nil {
		return nil, err
	}
	s.nc.put(n)
	return n, nil
}

// MarkDirty flags a node for the next checkpoint.
func (s *treeNodes) MarkDirty(id nodeID) { s.nc.markDirty(id) }

// Drop removes a node from the cache and schedules its extent (if any) for
// release. The release happens after the next durable metadata swap:
// freeing immediately would let a reused extent corrupt the tree the
// persisted metadata still references if the process dies before the next
// Flush.
func (s *treeNodes) Drop(id nodeID) error {
	s.nc.drop(id)
	if ref, ok := s.table[id]; ok {
		delete(s.table, id)
		s.pendingFree = append(s.pendingFree, ref)
	}
	return nil
}

// View fills the descent's frame nv with a node, and never writes the cache
// or decodes. A resident (hot or dirty) node is its own block, the encoding
// the heap node is; any other node its extent framed where it lies
// (extentView). Caller holds t.mu.RLock for the whole descent, which keeps
// the framed extent from being freed and rewritten mid-walk, and the heap
// blocks from being written.
func (s *treeNodes) View(id nodeID, nv *index.NodeView) error {
	t := (*Tree)(s)
	if n := t.nc.get(id); n != nil {
		t.metrics.cacheHits.Inc()
		t.ix.HeapView(n, nv)
		return nil
	}
	return t.extentView(id, t.table, nv)
}

// extentView frames the extent table maps id to in nv: the store's
// zero-copy view when it serves them, otherwise the bytes of a checked read
// with the directory's offset table checked eagerly, as the decoder would.
// Live and as-of reads share it; the caller's hold or pin keeps the extent
// live for the walk.
func (t *Tree) extentView(id nodeID, table map[nodeID]extentRef, nv *index.NodeView) error {
	ref, ok := table[id]
	if !ok {
		return fmt.Errorf("%w: node %d has no extent", ErrCorrupt, id)
	}
	var payload []byte
	var err error
	if t.viewer != nil {
		payload, _, err = t.viewer.ViewExtent(ref.page)
	} else {
		payload, _, err = t.store.Read(ref.page)
	}
	if err != nil {
		return fmt.Errorf("dctree: reading node %d: %w", id, err)
	}
	err = nv.Frame(id, payload, t.schema.Dims(), t.schema.Measures())
	if err == nil && t.viewer == nil {
		err = nv.CheckTable()
	}
	if err != nil {
		return err
	}
	if t.viewer != nil {
		t.metrics.flatNodeReads.Inc()
	} else {
		t.metrics.decodeFallbacks.Inc()
	}
	return nil
}

// EvictCache drops all clean nodes from the in-memory cache; subsequent
// reads frame them from the store. Dirty nodes are kept: their
// in-memory state has not been persisted yet, so evicting them would lose
// every mutation since the last Flush. Used by tests and by benchmarks that
// measure cold-cache I/O.
func (t *Tree) EvictCache() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nc.evictClean()
}

// CachedNodes reports how many nodes are resident in the cache.
func (t *Tree) CachedNodes() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.nc.len()
}

// Store exposes the underlying store (for I/O statistics in experiments).
func (t *Tree) Store() storage.Store { return t.store }
