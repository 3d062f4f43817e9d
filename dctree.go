// Package dctree is the public API of this DC-tree implementation — a
// fully dynamic index structure for data warehouses modeled as data cubes,
// after Ester, Kohlhammer and Kriegel, "The DC-Tree: A Fully Dynamic Index
// Structure for Data Warehouses" (ICDE 2000).
//
// A DC-tree indexes the data records of a data cube whose dimensions carry
// concept hierarchies (e.g. ALL > Region > Nation > Customer). Unlike
// bitmap indices or bulk-loaded cube materializations, the DC-tree is kept
// consistent by single-record Insert and Delete calls, so the warehouse
// never needs an update window; and unlike R-tree-family indexes over an
// artificial total ordering, it describes directory regions by minimum
// describing sequences (sets of attribute values at one hierarchy level
// per dimension) and materializes aggregated measure values in every
// directory entry, so range queries can be answered without descending
// into fully covered subtrees.
//
// # Quick start
//
//	customer, _ := dctree.NewHierarchy("Customer", "Customer", "Nation", "Region")
//	product, _ := dctree.NewHierarchy("Product", "Product", "Category")
//	schema, _ := dctree.NewSchema([]*dctree.Hierarchy{customer, product}, "Revenue")
//	tree, _ := dctree.Open(dctree.NewMemStore(4096), dctree.WithSchema(schema))
//
//	rec, _ := schema.InternRecord([][]string{
//	    {"EUROPE", "GERMANY", "Customer#1"},
//	    {"Electronics", "TV#42"},
//	}, []float64{1999.90})
//	_ = tree.Insert(rec)
//
//	q, _ := dctree.NewQuery(schema).
//	    Where("Customer", "Region", "EUROPE").
//	    Build()
//	res, _ := tree.Execute(ctx, dctree.QueryRequest{Query: q})
//	total := res.Agg.Value(dctree.Sum)
//
// # Constructing and opening trees
//
// Open is the single constructor: it creates a tree when WithSchema is
// given and reopens a persisted one otherwise, on any Store (NewMemStore,
// OpenFileStore), optionally WAL-backed with WithWAL.
//
// # Durability
//
// A tree opened without WithWAL holds updates in memory until Flush. For
// crash safety pass WithWAL: every acknowledged Insert and Delete is then
// written ahead to a log and group-committed, and reopening with the same
// WithWAL prefix replays the log tail after a crash. On a durable tree,
// Flush is a checkpoint that compacts the log — NOT the durability
// boundary; mutations are safe as soon as the call returns. See
// DURABILITY.md for the protocol.
//
// # Versioned reads
//
// Tree.Snapshot captures a cheap MVCC version of the whole index and
// returns a Version handle; queries pinned to it with QueryRequest.AsOf
// (or QueryBuilder.AsOf) run entirely without the tree lock and keep
// answering from the captured state while inserts, deletes and
// checkpoints proceed underneath. Release versions when done — they pin
// storage extents. On WAL-backed trees versions survive checkpoints,
// crashes and restarts until Release or Config.VersionRetention ends them.
// See DESIGN.md and DURABILITY.md.
//
// # Replication
//
// A WAL-backed tree's log can be shipped to warm standbys that replay it
// into read-only replicas and can be promoted in place when the primary
// dies. The machinery lives in the internal repl package and is operated
// through the dctool replica, promote and ship subcommands; the protocol
// is specified in REPLICATION.md and the runbooks in OPERATIONS.md.
//
// The subpackages under internal implement the machinery: concept
// hierarchies and dictionaries, MDS algebra, the paper's index
// (internal/index), the engine that hosts it — lock, node cache, log,
// checkpoints, versions (internal/core) — the paged storage substrate,
// and the X-tree / sequential-scan baselines used by the paper's
// experiments.
package dctree

import (
	"github.com/dcindex/dctree/internal/core"
	"github.com/dcindex/dctree/internal/cube"
	"github.com/dcindex/dctree/internal/hierarchy"
	"github.com/dcindex/dctree/internal/mds"
	"github.com/dcindex/dctree/internal/obs"
	"github.com/dcindex/dctree/internal/storage"
)

// Re-exported core types. The aliases keep one importable surface while
// the implementation lives in internal packages.
type (
	// Tree is the DC-tree index. Safe for concurrent use: queries run
	// under a read lock while single-record updates take the write lock.
	Tree = core.Tree
	// Config carries the tree's tuning knobs; see DefaultConfig.
	Config = core.Config
	// QueryStats reports the work a range query performed.
	QueryStats = core.QueryStats
	// QueryRequest describes one range query for Tree.Execute, the
	// context-aware entry point every other query method delegates to.
	QueryRequest = core.QueryRequest
	// QueryResult is the outcome of Tree.Execute.
	QueryResult = core.QueryResult
	// Metrics is the typed snapshot returned by Tree.Metrics; its
	// WriteProm method renders Prometheus text exposition format.
	Metrics = core.Metrics
	// SlowQueryEvent is delivered to the hook installed with
	// Tree.SetSlowQueryHook for queries over the latency threshold.
	SlowQueryEvent = core.SlowQueryEvent
	// HistogramSnapshot is a point-in-time view of a latency histogram
	// (log2 buckets), as embedded in Metrics.
	HistogramSnapshot = obs.HistogramSnapshot
	// LevelStat aggregates node statistics for one tree level.
	LevelStat = core.LevelStat
	// VerifyReport summarizes Tree.VerifyExtents — a physical scan of
	// every extent the tree or a live version references, checking stored
	// checksums.
	VerifyReport = core.VerifyReport
	// VerifyError is one damaged extent in a VerifyReport.
	VerifyError = core.VerifyError
	// Version is one pinned MVCC snapshot from Tree.Snapshot; pass it in
	// QueryRequest.AsOf for lock-free time-travel queries and Release it
	// when done.
	Version = core.Version
	// VersionInfo describes one live version (Tree.Versions).
	VersionInfo = core.VersionInfo
	// VersionRetention is the automatic version-pruning policy
	// (Config.VersionRetention): keep the newest KeepLast versions and/or
	// release versions older than MaxAge.
	VersionRetention = core.VersionRetention

	// Schema declares a data cube: dimensions with concept hierarchies
	// plus measure names.
	Schema = cube.Schema
	// Record is one data record: leaf-level coordinates and measures.
	Record = cube.Record
	// Agg is the materialized aggregate (sum, count, min, max) of a
	// measure over a set of records.
	Agg = cube.Agg
	// Op selects the aggregation operator of a range query.
	Op = cube.Op

	// Hierarchy is one dimension's concept hierarchy and dictionary.
	Hierarchy = hierarchy.Hierarchy
	// ID is an interned attribute value (4-bit level tag + 28-bit code).
	ID = hierarchy.ID

	// MDS is a minimum describing sequence: one value set per dimension,
	// each at one hierarchy level. Queries are expressed as MDSs.
	MDS = mds.MDS
	// DimSet is one dimension's entry of an MDS.
	DimSet = mds.DimSet

	// Store is the block-extent storage abstraction underneath a tree.
	Store = storage.Store
	// StoreStats counts logical I/O at the store interface.
	StoreStats = storage.Stats
)

// Aggregation operators, read off a result with Agg.Value.
const (
	Sum   = cube.Sum
	Count = cube.Count
	Avg   = cube.Avg
	Min   = cube.Min
	Max   = cube.Max
)

// DefaultConfig returns the configuration used throughout the paper
// reproduction (4 KiB blocks; directories of as many entries as one block's
// bytes hold, some 25 on the TPC-D cube, and data nodes of as many rows as
// one block holds at the byte widths their codes and measures need, 405 at
// the benchmark's scales; 35 % minimum fill, 20 % maximum split overlap).
func DefaultConfig() Config { return core.DefaultConfig() }

// NewHierarchy declares a dimension's concept hierarchy. Level names are
// ordered from the leaf upward:
//
//	NewHierarchy("Customer", "Customer", "Nation", "Region")
func NewHierarchy(dimension string, levelNames ...string) (*Hierarchy, error) {
	return hierarchy.New(dimension, levelNames...)
}

// NewSchema declares a data cube from dimension hierarchies and measures.
func NewSchema(dims []*Hierarchy, measures ...string) (*Schema, error) {
	return cube.NewSchema(dims, measures...)
}

// Option configures Open. Options compose: WithSchema selects creation
// over reopening, WithConfig tunes a created tree, WithWAL adds the
// durable write path.
type Option func(*openOptions)

// openOptions accumulates the Open configuration.
type openOptions struct {
	schema    *Schema
	cfg       Config
	cfgSet    bool
	walPrefix string
	wopts     WALOptions
	walSet    bool
}

// WithSchema makes Open CREATE an empty tree for the given cube schema on
// the store (whose metadata area the tree takes over). Without it, Open
// REOPENS the tree persisted on the store.
func WithSchema(schema *Schema) Option {
	return func(o *openOptions) { o.schema = schema }
}

// WithConfig sets the configuration of a tree created with WithSchema;
// the default is DefaultConfig. When reopening an existing tree the
// persisted configuration governs and WithConfig is ignored.
func WithConfig(cfg Config) Option {
	return func(o *openOptions) { o.cfg = cfg; o.cfgSet = true }
}

// WithWAL makes the tree durable: every acknowledged Insert and Delete is
// written ahead to the log at prefix (segment files <prefix>.<n>.wal) and
// group-committed before the call returns. Creating (WithSchema) requires
// an empty log; reopening replays the log tail past the last checkpoint —
// the crash-recovery path. The log records none of the WALOptions, so a
// reopen passes again whatever it wants in effect; reading a log never
// depends on them. Close the tree with Tree.Close to checkpoint and
// release the log.
func WithWAL(prefix string, wopts WALOptions) Option {
	return func(o *openOptions) { o.walPrefix = prefix; o.wopts = wopts; o.walSet = true }
}

// Open is the single constructor for DC-trees: it creates an empty tree
// when WithSchema is given and reopens the tree persisted on the store
// otherwise, in-memory-durable by default and WAL-backed with WithWAL.
//
//	tree, err := dctree.Open(store, dctree.WithSchema(schema))            // create
//	tree, err := dctree.Open(store)                                       // reopen
//	tree, err := dctree.Open(store, dctree.WithSchema(schema),
//	    dctree.WithWAL("idx", dctree.WALOptions{}))                       // create, durable
//	tree, err := dctree.Open(store, dctree.WithWAL("idx", dctree.WALOptions{})) // recover
func Open(store Store, opts ...Option) (*Tree, error) {
	o := openOptions{cfg: DefaultConfig()}
	for _, opt := range opts {
		opt(&o)
	}
	switch {
	case o.schema != nil && o.walSet:
		return core.NewDurableOpts(store, o.schema, o.cfg, o.walPrefix, o.wopts)
	case o.schema != nil:
		return core.New(store, o.schema, o.cfg)
	case o.walSet:
		return core.OpenDurableOpts(store, o.walPrefix, o.wopts)
	default:
		return core.Open(store)
	}
}

// WALStats is the write-ahead log's activity snapshot (Tree.WALStats).
type WALStats = storage.WALStats

// WALOptions tunes the write-ahead log's segment files: SegmentBytes
// (rotation size), RetainSegments (extra sealed segments kept below the
// retention floor for log-shipping followers — see REPLICATION.md), and
// SyncDelay (modeled device latency, used by the benchmarks). A segment
// is created, appended to and deleted, and every frame is stored raw; a
// log holding frames an older build compressed is refused with
// ErrUnsupportedFormat and left untouched.
type WALOptions = storage.WALOptions

// ErrChecksum reports a stored page whose checksum no longer matches its
// contents — on-disk corruption. File stores checksum every extent, the
// metadata and the freelist; reads fail closed with this error instead of
// decoding damaged bytes.
var ErrChecksum = storage.ErrChecksum

// ErrUnsupportedFormat reports an index file, log or metadata blob written
// in a retired on-disk format generation. It is intact but no longer read:
// rebuild the index from its source data with a current build.
var ErrUnsupportedFormat = storage.ErrUnsupportedFormat

// ErrMeasureValue reports a measure value that is not an exact count of
// units of its measure's scale (Schema.WithScales), or an insert that could
// take a sum out of 64-bit range.
var ErrMeasureValue = cube.ErrMeasureValue

// ErrVersionReleased reports a query against a released Version handle.
var ErrVersionReleased = core.ErrVersionReleased

// ErrVersionForeign reports a Version used with a tree other than the one
// that created it.
var ErrVersionForeign = core.ErrVersionForeign

// NewMemStore creates an in-memory block store with full I/O accounting.
func NewMemStore(blockSize int) Store { return storage.NewMemStore(blockSize) }

// OpenFileStore opens (or creates) a file-backed block store. Queries read
// its extents zero-copy from a mapping of the file, so the OS page cache
// is its cache.
func OpenFileStore(path string, blockSize int) (Store, error) {
	return storage.OpenPagedStore(path, blockSize, 0)
}

// AllDim is the unconstrained query entry for one dimension ("every
// value").
func AllDim() DimSet { return mds.AllDim() }

// QueryAll returns the query selecting the whole cube.
func QueryAll(schema *Schema) MDS { return mds.Top(schema.Dims()) }
