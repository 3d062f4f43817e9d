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
//     Get serves mutations only (insert, split, delete, bulk build), all
//     under the host's exclusive hold.
//   - Source, the read side: View of a node for one read-only walk — a
//     query, Scan, LevelStats or Validate — filled into a frame the walk
//     owns, a NodeView: a heap node (HeapView) or an encoded payload
//     framed where it lies (NodeView.Frame, FrameTrusted).
//
// Mutations must be exclusive; read-only walks may run concurrently with
// one another over any Source whose views stay valid for the walk.
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
// methods are called by mutations, with the host's exclusive hold, so a
// Store needs no lock of its own; no read-only walk calls it.
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

// Source resolves node IDs for one read-only walk — Execute, Scan,
// LevelStats, Validate — over the live tree, or a frozen version of it.
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

// Head is what a tree is besides its nodes: the figures a host saves to
// re-attach an index (Restore), freezes into a version, and hands a
// whole-tree walk (Validate, LevelStats) together with the Source of the
// same state.
type Head struct {
	Root    NodeID
	RootMDS mds.MDS // cover of the root's entries; Top for an empty tree
	Height  int     // 1 = the root is a data node
	Count   int64   // live data records
}

// Index is a DC-tree over a data cube: the head figures and the working
// memory of the three algorithms. The nodes themselves live in the host's
// Store.
type Index struct {
	schema *cube.Schema
	cfg    Config
	store  Store
	head   Head

	// payload is the bytes one block of the host's holds for a node's
	// encoding: what a directory's entries and a block-filled data node's
	// rows fill (fill).
	payload int

	// ws holds the write path's buffers (scratch.go); mutations are
	// exclusive, so one scratch is never shared.
	ws *writeScratch

	// span is, per measure, the largest magnitude in units the tree holds
	// (admit); empty when unknown.
	span []uint64

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
	repairFallbacks  obs.Counter
	postingBuilds    obs.Counter
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
	// Delete repairs of an entry or the root MDS that moved a level and so
	// rebuilt the cover (mds.CoverInto) instead of dropping one value.
	DeleteRepairFallbacks int64
	// Directory postings built by chooseSubtree or the delete probe: one
	// per directory the first time an insert or a delete descends through
	// it after its entries changed as postings see them (a delete that only
	// repairs aggregates leaves them valid).
	PostingBuilds int64
}

// New creates an empty index whose nodes live in store: the root is a data
// node minted by store.New. cfg must be normalized; payload is the bytes of
// a node's encoding one block of the host's holds, which sizes every node.
func New(schema *cube.Schema, cfg Config, store Store, payload int) *Index {
	ix := Restore(schema, cfg, store, Head{RootMDS: mds.Top(schema.Dims()), Height: 1}, payload)
	ix.head.Root = store.New(true).id
	return ix
}

// Restore re-attaches an index to nodes the store already holds: h is the
// Head the index reported when the host saved it. cfg and payload are as
// for New.
func Restore(schema *cube.Schema, cfg Config, store Store, h Head, payload int) *Index {
	ix := &Index{schema: schema, cfg: cfg, store: store, head: h, payload: payload}
	ix.ws = newWriteScratch(schema)
	return ix
}

// Head returns a copy of the head figures, its RootMDS the host's to keep:
// mutations update the index's own in place.
func (ix *Index) Head() Head {
	h := ix.head
	h.RootMDS = h.RootMDS.Clone()
	return h
}

// Root returns the root node's ID.
func (ix *Index) Root() NodeID { return ix.head.Root }

// Height returns the number of node levels (1 = the root is a data node).
func (ix *Index) Height() int { return ix.head.Height }

// Count returns the number of live data records.
func (ix *Index) Count() int64 { return ix.head.Count }

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
		DeleteRepairFallbacks: c.repairFallbacks.Load(),
		PostingBuilds:         c.postingBuilds.Load(),
	}
}

// space is shorthand for the schema's dimension hierarchies.
func (ix *Index) space() mds.Space { return ix.schema.Space() }
