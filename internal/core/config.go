// Package core is the engine that hosts the DC-tree of internal/index and
// makes it a database: Tree owns the lock that serializes the index's
// callers, the block store and the node→extent table, the sharded node
// cache that is the index's node store, the write-ahead log with its
// self-clocking group commit, fuzzy checkpoints with shadow paging, MVCC
// versions, the apply side of log-shipping replication, the metadata blob
// and the metrics.
//
// The paper's algorithms — insert with choose-subtree, hierarchy split,
// range query over materialized aggregates — are not here. Every public
// operation is the same few steps around one call into the index: take the
// lock, call t.ix, append the logical record, release the lock, wait for
// the record to be durable.
package core

import (
	"fmt"
	"time"

	"github.com/dcindex/dctree/internal/cube"
	"github.com/dcindex/dctree/internal/index"
	"github.com/dcindex/dctree/internal/storage"
)

// Config carries the tuning knobs of a DC-tree: the index's, and beside
// them the engine's. The zero value is not usable; DefaultConfig returns
// the values used throughout the paper reproduction, and Normalize fills
// unset fields.
type Config struct {
	// BlockSize is the size of one storage block in bytes. Nodes occupy
	// one block; supernodes occupy consecutive multiples of it. It also
	// sizes the data node: New resolves a zero LeafCapacity (the default)
	// to the rows one block's extent holds for the schema
	// (index.LeafCapacityFor) — 169 TPC-D rows at the default 4 KiB — and
	// the meta blob persists the resolved count, so a tree reopens with the
	// capacity it was built with.
	BlockSize int

	// Config holds the knobs of the paper's algorithms (DirCapacity …
	// FlatChooseSubtree); they are the index's, defined once there and
	// promoted here.
	index.Config

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
		BlockSize:              4096,
		Config:                 index.DefaultConfig(),
		SyncReplicationTimeout: time.Second,
	}
}

// Errors returned by DC-tree operations; the first five are the index's.
var (
	ErrBadConfig  = index.ErrBadConfig
	ErrNotFound   = index.ErrNotFound
	ErrBadQuery   = index.ErrBadQuery
	ErrCorrupt    = index.ErrCorrupt
	ErrBadMeasure = index.ErrBadMeasure
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
	if c.BlockSize < 256 {
		return fmt.Errorf("%w: block size %d < 256", ErrBadConfig, c.BlockSize)
	}
	if err := c.Config.Normalize(); err != nil {
		return err
	}
	if c.SyncReplicationTimeout == 0 {
		c.SyncReplicationTimeout = d.SyncReplicationTimeout
	}
	switch {
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

// resolveLeafCapacity turns the default LeafCapacity, 0, into the
// block-filled data node of the schema: Normalize cannot, it knows no
// schema.
func (c *Config) resolveLeafCapacity(schema *cube.Schema) {
	if c.LeafCapacity == 0 {
		c.LeafCapacity = index.LeafCapacityFor(storage.ExtentCapacity(c.BlockSize, 1), schema.Dims(), schema.Measures())
	}
}
