// Package repl implements log-shipping replication for dctree.
//
// A follower tails the primary's segmented write-ahead log — sealed
// segments in full, the active segment up to a safe frontier — copies the
// raw frame bytes into a local mirror that is itself a valid WAL, and
// replays every record into an apply-only replica tree
// (core.NewReplica/core.OpenReplica). Between batches the replica serves
// read-only queries, including time travel over the primary's replicated
// snapshots. When the primary dies, Promote seals replay, checkpoints, and
// reopens the mirror as a normal durable tree: the standby becomes the new
// primary, continuing the same LSN sequence, with every record the old
// primary acknowledged intact.
//
// Three transports implement one Source interface:
//
//   - WALSource wraps a live *storage.WAL in process — exact durable
//     frontiers, and follower acknowledgements advance the primary's
//     retention floor (storage.WAL.SetRetainLSN).
//   - DirSource scans a WAL segment directory across processes
//     (storage.ListSegments), the zero-infrastructure transport for
//     followers sharing a filesystem with the primary.
//   - HTTPSource speaks to a repl.Server over HTTP — resumable by byte
//     offset, with acknowledgements piggybacked on the segment poll.
//
// Split brain is closed by fencing epochs (see fence.go): every promotion
// bumps a durable epoch stamped into WAL segment headers, a follower that
// has durably observed the new timeline refuses the old one with
// ErrFenced, and the first new-epoch acknowledgment that reaches a
// deposed primary poisons its write path. Acknowledgments carry the
// follower's identity and epoch (AckInfo); with Config.SyncReplication
// set, the primary withholds write acknowledgments until that many
// followers have confirmed the LSN — quorum acknowledgment on the
// in-process and HTTP transports (DirSource carries no ack channel).
//
// The protocol invariants (frontier rules, vanished segments and the
// header identity check, gap detection, the promotion state machine with
// its epoch bump, and the failure matrix) are documented in
// REPLICATION.md at the repository root.
package repl

import (
	"errors"
)

// ErrGap reports that the source no longer retains the records the
// follower needs next: the primary truncated its log past the follower's
// mirror frontier. The mirror cannot be extended without a hole, so the
// follower must be re-bootstrapped (or the primary's retention floor —
// WALOptions.RetainSegments, storage.WAL.SetRetainLSN — raised before the
// next attempt).
var ErrGap = errors.New("repl: source no longer retains the records the follower needs")

// ErrPromoted is returned by Follower methods after Promote has handed the
// state over to a read-write tree.
var ErrPromoted = errors.New("repl: follower already promoted")

// ErrMirrorCorrupt reports a follower mirror whose segment files violate
// the mirror invariants (LSN continuity across segments, whole CRC-valid
// frames everywhere but the final tail). It indicates local damage — the
// shipping path never writes such a mirror — and is fixed by removing the
// mirror and re-bootstrapping.
var ErrMirrorCorrupt = errors.New("repl: follower mirror corrupt")
