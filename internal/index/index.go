// Package index implements the DC-tree of Ester, Kohlhammer and Kriegel
// (ICDE 2000): a fully dynamic, X-tree-like index structure for data cubes
// that uses minimum describing sequences (MDSs) over concept hierarchies
// instead of minimum bounding rectangles, and materializes the aggregated
// measure values of every subtree in its directory entries.
//
// The package is the paper and nothing else: single-record insertion with
// choose-subtree (Fig. 4, insert.go), the hierarchy split (Figs. 5–6,
// split.go), deletion with exact repair of the derived information
// (delete.go), bulk building (bulk.go) and the range query over
// materialized aggregates (Fig. 7, query.go, querymask.go),
// on nodes whose one encoding (flatnode.go) is queried in place. It knows
// no store, no log and no lock. Whoever hosts an Index keeps its nodes and
// serializes its callers, and meets it through two interfaces:
//
//   - Store, the write side: Get, New, MarkDirty and Drop of heap nodes.
//     Mutations, LevelStats and Validate resolve nodes through it, all
//     under the host's exclusive hold.
//   - Source, the read side: View of a node for one read-only descent,
//     filled into a frame the descent owns — a heap node (HeapView) or an
//     encoded payload framed where it lies (NodeView.Frame, FrameTrusted).
//
// Mutations must be exclusive; queries may run concurrently with one
// another over any Source whose views stay valid for the walk.
package index

import (
	"errors"
	"sync"

	"github.com/dcindex/dctree/internal/cube"
	"github.com/dcindex/dctree/internal/mds"
	"github.com/dcindex/dctree/internal/obs"
)

// NodeID is the logical identifier of a DC-tree node. The host mints the
// IDs (Store.New) and maps them to wherever it keeps the nodes; the index
// only stores them in directory entries.
type NodeID uint64

// NilNode is the ID no node has.
const NilNode NodeID = 0

// Store is the host's node store as the write path sees it. All four
// methods are called with the host's exclusive hold — by mutations, and by
// LevelStats and Validate (Get) — so a Store needs no lock of its own.
type Store interface {
	// Get returns the heap form of a node, faulting it in if necessary.
	Get(id NodeID) (*Node, error)
	// New mints an ID and returns a fresh, resident, dirty node (NewNode).
	New(leaf bool) *Node
	// MarkDirty records that the node's in-memory state changed.
	MarkDirty(id NodeID)
	// Drop forgets a node that left the tree.
	Drop(id NodeID) error
}

// Source resolves node IDs for one read-only walk: the live tree, or a
// frozen version of it.
type Source interface {
	// View fills nv, a frame the walk owns, with the view of node id:
	// HeapView, NodeView.Frame or NodeView.FrameTrusted.
	View(id NodeID, nv *NodeView) error
}

// Errors returned by index operations.
var (
	ErrBadConfig  = errors.New("dctree: invalid configuration")
	ErrNotFound   = errors.New("dctree: record not found")
	ErrBadQuery   = errors.New("dctree: malformed query MDS")
	ErrCorrupt    = errors.New("dctree: corrupt tree state")
	ErrBadMeasure = errors.New("dctree: measure index out of range")
)

// Index is a DC-tree over a data cube: the root pointer, the shape figures
// and the working memory of the three algorithms. The nodes themselves live
// in the host's Store.
type Index struct {
	schema *cube.Schema
	cfg    Config
	store  Store

	root    NodeID
	rootMDS mds.MDS // cover of the root's entries; Top for an empty tree
	height  int     // 1 = the root is a data node
	count   int64   // live data records

	// ws holds the write path's buffers (scratch.go); mutations are
	// exclusive, so one scratch is never shared.
	ws *writeScratch

	// qcPool recycles queryCtx mask arenas so steady-state queries build
	// their membership masks without allocating.
	qcPool sync.Pool

	c counters
}

// counters is the index's own instrumentation: single atomic operations on
// the paths that decide a tree's shape and a query's cost.
type counters struct {
	splitsHierarchy  obs.Counter
	splitsForced     obs.Counter
	supernodeCreated obs.Counter
	supernodeGrown   obs.Counter
	rootSplits       obs.Counter
	maskPoolHits     obs.Counter
	maskPoolMisses   obs.Counter
	readImageBuilds  obs.Counter
	repairFallbacks  obs.Counter
}

// Counters is a point-in-time copy of the index's counters.
type Counters struct {
	// Split behavior, by kind (Fig. 5): accepted hierarchy splits, forced
	// fallback splits, supernode creations and growths, root splits.
	SplitsHierarchy   int64
	SplitsForced      int64
	SupernodesCreated int64
	SupernodesGrown   int64
	RootSplits        int64
	// Queries whose mask arenas were recycled from the pool vs. allocated.
	MaskPoolHits   int64
	MaskPoolMisses int64
	// Read images built for heap directories.
	ReadImageBuilds int64
	// Delete repairs of an entry or the root MDS that moved a level and so
	// rebuilt the cover (mds.CoverInto) instead of dropping one value.
	DeleteRepairFallbacks int64
}

// New creates an empty index whose nodes live in store: the root is a data
// node minted by store.New. cfg must be normalized.
func New(schema *cube.Schema, cfg Config, store Store) *Index {
	ix := Restore(schema, cfg, store, NilNode, mds.Top(schema.Dims()), 1, 0)
	ix.root = store.New(true).id
	return ix
}

// Restore re-attaches an index to nodes the store already holds: root,
// rootMDS, height and count are the figures Root, RootMDS, Height and Count
// reported when the host saved them. cfg must be normalized.
func Restore(schema *cube.Schema, cfg Config, store Store, root NodeID, rootMDS mds.MDS, height int, count int64) *Index {
	ix := &Index{schema: schema, cfg: cfg, store: store, root: root, rootMDS: rootMDS, height: height, count: count}
	ix.ws = newWriteScratch(schema, &ix.cfg)
	return ix
}

// Root returns the root node's ID.
func (ix *Index) Root() NodeID { return ix.root }

// RootMDS returns the MDS describing the whole indexed cube. It is the
// index's own value, updated in place by mutations: clone it to keep it.
func (ix *Index) RootMDS() mds.MDS { return ix.rootMDS }

// Height returns the number of node levels (1 = the root is a data node).
func (ix *Index) Height() int { return ix.height }

// Count returns the number of live data records.
func (ix *Index) Count() int64 { return ix.count }

// Counters returns a copy of the index's counters.
func (ix *Index) Counters() Counters {
	c := &ix.c
	return Counters{
		SplitsHierarchy:       c.splitsHierarchy.Load(),
		SplitsForced:          c.splitsForced.Load(),
		SupernodesCreated:     c.supernodeCreated.Load(),
		SupernodesGrown:       c.supernodeGrown.Load(),
		RootSplits:            c.rootSplits.Load(),
		MaskPoolHits:          c.maskPoolHits.Load(),
		MaskPoolMisses:        c.maskPoolMisses.Load(),
		ReadImageBuilds:       c.readImageBuilds.Load(),
		DeleteRepairFallbacks: c.repairFallbacks.Load(),
	}
}

// space is shorthand for the schema's dimension hierarchies.
func (ix *Index) space() mds.Space { return ix.schema.Space() }

// markDirty drops a node's read image and tells the store its state
// changed: every mutation of a node marks it within the same exclusive hold.
func (ix *Index) markDirty(n *Node) {
	n.img.Store(nil)
	ix.store.MarkDirty(n.id)
}
