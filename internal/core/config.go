// Package core implements the DC-tree of Ester, Kohlhammer and Kriegel
// (ICDE 2000): a fully dynamic, X-tree-like index structure for data cubes
// that uses minimum describing sequences (MDSs) over concept hierarchies
// instead of minimum bounding rectangles, and materializes the aggregated
// measure values of every subtree in its directory entries.
//
// The tree supports single-record insertion and deletion with all derived
// information (directory MDSs and materialized aggregates) maintained
// incrementally, and answers general range queries — a contiguous
// hierarchy-level range per dimension, aggregated with SUM, COUNT, AVG,
// MIN or MAX — using the materialized aggregates to stop descending as
// soon as a directory entry is fully contained in the query range.
package core

import (
	"errors"
	"fmt"
	"time"

	"github.com/dcindex/dctree/internal/storage"
)

// Config carries the tuning knobs of a DC-tree. The zero value is not
// usable; DefaultConfig returns the values used throughout the paper
// reproduction, and Normalize fills unset fields.
type Config struct {
	// BlockSize is the size of one storage block in bytes. Nodes occupy
	// one block; supernodes occupy consecutive multiples of it.
	BlockSize int

	// DirCapacity is the maximum number of entries of a one-block
	// directory node; a supernode of b blocks holds b×DirCapacity.
	DirCapacity int

	// LeafCapacity is the maximum number of data records of a one-block
	// data node.
	LeafCapacity int

	// MinFillRatio is the balance criterion of the split algorithm: a
	// split is acceptable only if each group receives at least this
	// fraction of the entries (§4.2 "nodes are balanced").
	MinFillRatio float64

	// MaxOverlapRatio is the overlap criterion of the split algorithm: a
	// split is acceptable only if overlap(G1,G2)/extension(G1,G2) does not
	// exceed this fraction (§4.2 "overlap is not too high"). The default
	// matches the X-tree's published 20 % threshold.
	MaxOverlapRatio float64

	// MaxSupernodeBlocks caps supernode growth as a safety valve; at the
	// cap the node accepts an unbalanced topological fallback split
	// instead of growing further. 0 means unlimited.
	MaxSupernodeBlocks int

	// RefineBound controls how eagerly a freshly split node's MDS lowers
	// its relevant levels: after a split, every dimension descends to the
	// finest hierarchy level at which the node's value set still has at
	// most RefineBound values. Lower levels make directory MDSs more
	// precise — more query pruning and more materialized-aggregate hits —
	// at the cost of larger MDSs. 0 selects the default; -1 disables
	// refinement (the relevant level then only decreases via the split
	// dimension itself).
	RefineBound int

	// Materialize controls whether directory entries store the aggregates
	// of their subtrees. Disabling it (ablation) forces every range query
	// to descend to the data nodes, like the X-tree baseline.
	Materialize bool

	// DisableSupernodes forces the split algorithm to fall back to an
	// unbalanced best-effort split instead of creating supernodes
	// (ablation of the X-tree inheritance).
	DisableSupernodes bool

	// FlatChooseSubtree makes the insert path weigh every new attribute
	// value equally instead of geometrically favoring coarse levels
	// (ablation). With it, records scatter across the coarse partition —
	// one new region costs the same as one new customer — and the tree
	// degenerates into unsplittable supernodes; see DESIGN.md §3.1.
	FlatChooseSubtree bool

	// CheckpointInterval, when positive, makes a WAL-backed tree checkpoint
	// itself in the background at least this often: dirty nodes are written
	// with the fuzzy protocol (writers stall only for the capture and
	// install critical sections) and superseded log segments are dropped.
	// 0 (the default) disables the timer; Flush/Checkpoint remain available.
	CheckpointInterval time.Duration

	// CheckpointDirtyBytes, when positive, triggers a background checkpoint
	// once the estimated dirty footprint (dirty nodes × block size) reaches
	// this many bytes, bounding both recovery replay work and WAL growth
	// under sustained writes. 0 (the default) disables the byte trigger.
	CheckpointDirtyBytes int

	// SyncReplication, when positive, withholds write acknowledgements
	// until that many followers have confirmed the commit LSN (1 =
	// semi-synchronous, n = quorum of n). Followers confirm
	// through Tree.ObserveFollowerAck, which the in-process replication
	// source wires to the follower ack path. 0 (the default) acknowledges
	// on local fsync alone — asynchronous replication. This is a per-open
	// runtime knob, not persisted in the metadata; it is ignored by trees
	// without a WAL.
	SyncReplication int

	// VersionRetention bounds how many MVCC versions the tree keeps live.
	// Versions are durable (checkpoints persist their overlays, recovery
	// rehydrates them), so without a retention policy history grows until
	// explicitly released. The policy is applied automatically after every
	// Snapshot and at the start of every checkpoint, and on demand through
	// PruneVersions. The zero value disables automatic pruning. Persisted
	// in the metadata blob (v8).
	VersionRetention VersionRetention

	// SyncReplicationTimeout bounds how long a synchronous write waits for
	// follower confirmation. On expiry the write is acknowledged on local
	// durability alone and the dctree_repl_sync_degraded_total counter is
	// incremented — the mode degrades to asynchronous rather than blocking
	// the primary on a dead follower. 0 selects the 1 s default. Ignored
	// when SyncReplication is 0.
	SyncReplicationTimeout time.Duration
}

// VersionRetention is the automatic pruning policy for durable MVCC
// versions (Config.VersionRetention). A version is pruned — released
// exactly as Version.Release would, with a durable release record on
// WAL-backed trees — once it violates either bound. Zero fields impose no
// bound; the zero value keeps every version until explicitly released.
type VersionRetention struct {
	// KeepLast, when positive, retains only the newest KeepLast versions;
	// older ones are pruned.
	KeepLast int

	// MaxAge, when positive, prunes versions whose capture time is further
	// than MaxAge in the past. Recovered versions keep their original
	// capture time when rehydrated from a checkpoint; versions re-captured
	// from the log tail restart the clock at replay time.
	MaxAge time.Duration
}

// active reports whether the policy imposes any bound.
func (r VersionRetention) active() bool { return r.KeepLast > 0 || r.MaxAge > 0 }

// DefaultConfig returns the configuration used by the paper reproduction.
func DefaultConfig() Config {
	return Config{
		BlockSize:          4096,
		DirCapacity:        24,
		LeafCapacity:       48,
		MinFillRatio:       0.35,
		MaxOverlapRatio:    0.20,
		MaxSupernodeBlocks: 64,
		RefineBound:        8,
		Materialize:        true,

		SyncReplicationTimeout: time.Second,
	}
}

// Errors returned by DC-tree operations.
var (
	ErrBadConfig  = errors.New("dctree: invalid configuration")
	ErrNotFound   = errors.New("dctree: record not found")
	ErrBadQuery   = errors.New("dctree: malformed query MDS")
	ErrCorrupt    = errors.New("dctree: corrupt tree state")
	ErrBadMeasure = errors.New("dctree: measure index out of range")
	// ErrUnsupportedFormat reports an image or log of a retired on-disk
	// format generation; nothing is decoded from it.
	ErrUnsupportedFormat = storage.ErrUnsupportedFormat
)

// Normalize fills unset fields from DefaultConfig and validates ranges.
func (c *Config) Normalize() error {
	d := DefaultConfig()
	if c.BlockSize == 0 {
		c.BlockSize = d.BlockSize
	}
	if c.DirCapacity == 0 {
		c.DirCapacity = d.DirCapacity
	}
	if c.LeafCapacity == 0 {
		c.LeafCapacity = d.LeafCapacity
	}
	if c.MinFillRatio == 0 {
		c.MinFillRatio = d.MinFillRatio
	}
	if c.MaxOverlapRatio == 0 {
		c.MaxOverlapRatio = d.MaxOverlapRatio
	}
	if c.MaxSupernodeBlocks == 0 {
		c.MaxSupernodeBlocks = d.MaxSupernodeBlocks
	}
	if c.RefineBound == 0 {
		c.RefineBound = d.RefineBound
	}
	if c.SyncReplicationTimeout == 0 {
		c.SyncReplicationTimeout = d.SyncReplicationTimeout
	}
	switch {
	case c.BlockSize < 256:
		return fmt.Errorf("%w: block size %d < 256", ErrBadConfig, c.BlockSize)
	case c.DirCapacity < 4:
		return fmt.Errorf("%w: directory capacity %d < 4", ErrBadConfig, c.DirCapacity)
	case c.LeafCapacity < 4:
		return fmt.Errorf("%w: leaf capacity %d < 4", ErrBadConfig, c.LeafCapacity)
	case c.MinFillRatio < 0 || c.MinFillRatio > 0.5:
		return fmt.Errorf("%w: min fill ratio %g outside [0,0.5]", ErrBadConfig, c.MinFillRatio)
	case c.MaxOverlapRatio < 0 || c.MaxOverlapRatio > 1:
		return fmt.Errorf("%w: max overlap ratio %g outside [0,1]", ErrBadConfig, c.MaxOverlapRatio)
	case c.MaxSupernodeBlocks < 0:
		return fmt.Errorf("%w: negative supernode cap", ErrBadConfig)
	case c.RefineBound < -1:
		return fmt.Errorf("%w: refine bound below -1", ErrBadConfig)
	case c.CheckpointInterval < 0:
		return fmt.Errorf("%w: negative checkpoint interval", ErrBadConfig)
	case c.CheckpointDirtyBytes < 0:
		return fmt.Errorf("%w: negative checkpoint dirty bytes", ErrBadConfig)
	case c.SyncReplication < 0:
		return fmt.Errorf("%w: negative sync replication ack count", ErrBadConfig)
	case c.VersionRetention.KeepLast < 0:
		return fmt.Errorf("%w: negative version retention keep-last", ErrBadConfig)
	case c.VersionRetention.MaxAge < 0:
		return fmt.Errorf("%w: negative version retention max-age", ErrBadConfig)
	case c.SyncReplicationTimeout < 0:
		return fmt.Errorf("%w: negative sync replication timeout", ErrBadConfig)
	}
	return nil
}
