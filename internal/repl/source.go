package repl

import (
	"fmt"
	"time"

	"github.com/dcindex/dctree/internal/core"
	"github.com/dcindex/dctree/internal/storage"
)

// Source is a follower's view of a primary's write-ahead log. All three
// transports (WALSource, DirSource, HTTPSource) implement it; the shipping
// loop is transport-agnostic.
//
// Frontier contract: Segments reports, per segment, how many bytes a
// follower may safely ship (see storage.WALSegmentInfo.Size for the two
// frontier flavors). ReadAt must never return bytes of a different segment
// than the one described by seg — implementations back this with the
// storage-layer header double-check and report a segment that was
// truncated away as storage.ErrSegmentGone, which the follower treats as
// "refresh the listing and resume", not an error.
type Source interface {
	// Segments lists the currently shippable segments in index order.
	Segments() ([]storage.WALSegmentInfo, error)
	// ReadAt reads up to max raw bytes of seg starting at byte offset off
	// (offsets include the segment header; off is always at least
	// storage.SegmentHeaderSize). Short reads near the frontier are normal.
	ReadAt(seg storage.WALSegmentInfo, off int64, max int) ([]byte, error)
	// Healthy reports whether the primary is believed alive. Transports
	// without failure detection return true; the follower's promotion
	// timer runs off consecutive false results.
	Healthy() bool
	// Ack tells the source the follower has durably mirrored every record
	// with LSN <= info.LSN, letting the primary release those segments
	// (retention floor) and — under synchronous replication — counting
	// toward the acknowledgment quorum. info carries the follower's
	// identity and fencing epoch; a source whose primary discovers from
	// the epoch that it has been deposed returns ErrFenced. Best-effort
	// otherwise; implementations may ignore it (DirSource does, which is
	// why synchronous modes require the in-process or HTTP transport).
	Ack(info AckInfo) error
}

// AckInfo is one follower acknowledgment: Follower is a stable identity
// (the quorum registry key — two followers sharing a name count as one),
// Epoch is the follower's current fencing epoch, and LSN is the highest
// record durably mirrored on the follower's disk.
type AckInfo struct {
	Follower string
	Epoch    uint64
	LSN      uint64
}

// Schemer is an optional Source extension for transports that can hand a
// brand-new follower the primary's schema blob (core.EncodeSchema), so it
// starts an empty replica and replays the log from LSN 1. Only the
// in-process WALSource has one; a follower on any other transport is seeded
// from a copy of the primary's store, which carries the schema.
type Schemer interface {
	// Schema returns the primary's schema blob.
	Schema() ([]byte, error)
}

// Tipper is an optional Source extension for transports that know the
// primary's last assigned LSN, enabling exact replication lag in records.
type Tipper interface {
	// TipLSN returns the highest LSN the primary has assigned, or 0 if
	// unknown.
	TipLSN() uint64
}

// Notifier is an optional Source extension for transports that can say
// when Segments has something new. The follower then ships the moment the
// primary's log advances instead of on its next poll tick; Poll stays the
// cadence of transports without it, and of the heartbeat.
type Notifier interface {
	// SegmentsChanged returns a channel closed by the next advance of what
	// Segments reports (see storage.WAL.SegmentsChanged). A nil channel
	// means never.
	SegmentsChanged() <-chan struct{}
}

// WALSource ships from a live WAL in the same process as the primary tree.
// It reports exact durable frontiers (only fsynced bytes are listed), wakes
// its follower as they advance (Notifier), and lets acknowledgements
// advance the log's retention floor so checkpoints can truncate shipped
// segments.
type WALSource struct {
	// Tree is the primary. It must have a WAL (opened with NewDurable or
	// OpenDurable).
	Tree *core.Tree
}

// Segments lists the live log's segments at their durable frontiers.
func (s *WALSource) Segments() ([]storage.WALSegmentInfo, error) {
	w := s.Tree.WAL()
	if w == nil {
		return nil, fmt.Errorf("repl: WALSource tree has no WAL")
	}
	return w.Segments(), nil
}

// ReadAt reads segment bytes under the header identity check.
func (s *WALSource) ReadAt(seg storage.WALSegmentInfo, off int64, max int) ([]byte, error) {
	return storage.ReadSegmentRange(seg.Path, seg.HeaderFor(), off, max)
}

// Schema returns the primary's schema blob (Schemer).
func (s *WALSource) Schema() ([]byte, error) { return s.Tree.EncodeSchema() }

// Healthy always reports true: the source dies with the primary's process.
func (s *WALSource) Healthy() bool { return true }

// Ack folds the follower's confirmation into the primary: the retention
// floor tracks the slowest follower, synchronous writers waiting on the
// quorum wake, and an acknowledgment from a higher epoch poisons the
// primary's write path with ErrFenced (it has been deposed).
func (s *WALSource) Ack(info AckInfo) error {
	return s.Tree.ObserveFollowerAck(info.Follower, info.Epoch, info.LSN)
}

// SegmentsChanged returns the live log's frontier channel (nil, which never
// fires, for a tree without a WAL).
func (s *WALSource) SegmentsChanged() <-chan struct{} {
	if w := s.Tree.WAL(); w != nil {
		return w.SegmentsChanged()
	}
	return nil
}

// TipLSN reports the primary's last assigned LSN.
func (s *WALSource) TipLSN() uint64 {
	if w := s.Tree.WAL(); w != nil {
		return w.LastLSN()
	}
	return 0
}

// DirSource ships from a primary's WAL segment directory across process
// boundaries — the filesystem transport. Sizes come from the directory
// scan, so the final segment may extend past the primary's durable
// frontier and may end in a torn frame; the follower validates frames as
// it ships, which makes the shipped view exactly what the primary's own
// crash recovery would reconstruct from those files.
//
// Failure detection is optional: with Lease set, Healthy reports whether
// the lease file is fresh (see lease.go for the mtime contract); a primary
// whose supervisor stops refreshing it — or removes it on clean shutdown —
// lets the follower's promotion timer run.
type DirSource struct {
	// Prefix is the primary's WAL path prefix, as passed to OpenDurable.
	Prefix string
	// Lease is the primary's lease file path; empty disables failure
	// detection (Healthy always true).
	Lease string
	// LeaseTTL is how stale the lease may be before the primary counts as
	// dead. Zero selects DefaultLeaseTTL.
	LeaseTTL time.Duration
}

// DefaultLeaseTTL is the lease freshness bound used when DirSource (or a
// dctool follower) does not specify one.
const DefaultLeaseTTL = 3 * time.Second

// Segments scans the primary's segment directory.
func (s *DirSource) Segments() ([]storage.WALSegmentInfo, error) {
	return storage.ListSegments(s.Prefix)
}

// ReadAt reads segment bytes under the header identity check.
func (s *DirSource) ReadAt(seg storage.WALSegmentInfo, off int64, max int) ([]byte, error) {
	return storage.ReadSegmentRange(seg.Path, seg.HeaderFor(), off, max)
}

// Healthy checks the primary's lease file, if one is configured.
func (s *DirSource) Healthy() bool {
	if s.Lease == "" {
		return true
	}
	ttl := s.LeaseTTL
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	return LeaseFresh(s.Lease, ttl)
}

// Ack is a no-op: directory-transport retention is configured on the
// primary (WALOptions.RetainSegments or an explicit SetRetainLSN), and
// the transport carries no ack channel — synchronous replication modes
// (Config.SyncReplication) therefore see no acknowledgments from
// DirSource followers and degrade on every write; use WALSource or the
// HTTP transport for quorum acknowledgment.
func (s *DirSource) Ack(AckInfo) error { return nil }
