package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/dcindex/dctree/internal/cube"
	"github.com/dcindex/dctree/internal/hierarchy"
	"github.com/dcindex/dctree/internal/storage"
)

// Replica apply mode: the receiving half of log-shipping replication
// (internal/repl). A replica tree has no WAL of its own — its state
// advances solely through ApplyReplicated, which replays the primary's WAL
// records through the same code paths crash recovery uses. Between batches
// the tree is fully queryable (Execute, AsOf, Scan) under its normal read
// lock; local mutations are rejected with ErrReplica so the replicated
// state can never diverge from the primary's log.
//
// Durability on the follower side works like recovery in reverse: the
// follower keeps the shipped log bytes in its own mirror, so a replica
// checkpoint (Flush) only has to persist the applied frontier —
// captureLocked stamps appliedLSN where a primary would stamp its WAL
// LSN — and a restarted follower reopens with OpenReplica and re-applies
// the mirror strictly past the persisted checkpoint LSN.

// ErrReplica is returned by local mutation entrypoints (Insert, Delete,
// BulkLoad, Snapshot) on a replica tree: replicas change only by applying
// the primary's log. Promote a follower to reopen its state read-write.
var ErrReplica = errors.New("dctree: tree is a read-only replica")

// NewReplica creates an empty apply-only tree for the given schema — the
// starting point for bootstrapping a follower from the primary's log
// replayed from LSN 1. The schema normally comes from DecodeSchema over
// the primary's EncodeSchema blob; the shipped dictionary deltas
// re-register values idempotently, so a schema that already carries
// registrations is safe. The initial state is checkpointed
// immediately so the store reopens even if the process dies before the
// first applied batch.
func NewReplica(store storage.Store, schema *cube.Schema, cfg Config) (*Tree, error) {
	t, err := New(store, schema, cfg)
	if err != nil {
		return nil, err
	}
	t.replica = true
	if err := t.Flush(); err != nil {
		return nil, err
	}
	return t, nil
}

// OpenReplica reopens a persisted tree in apply-only mode: the last
// checkpoint is loaded and the applied frontier resumes at its checkpoint
// LSN. The follower then re-applies its mirrored log from there —
// ApplyReplicated skips records at or below the frontier, so overlapping
// replay is harmless.
func OpenReplica(store storage.Store) (*Tree, error) {
	t, err := Open(store)
	if err != nil {
		return nil, err
	}
	t.replica = true
	t.appliedLSN = t.checkpointLSN
	return t, nil
}

// IsReplica reports whether the tree is in apply-only replica mode.
func (t *Tree) IsReplica() bool { return t.replica }

// AppliedLSN returns the replica's applied frontier: the LSN of the last
// replicated record folded into the tree. Zero on non-replica trees.
func (t *Tree) AppliedLSN() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.appliedLSN
}

// ApplyReplicated applies one shipped WAL record at the given LSN to a
// replica tree through applyRecordLocked, the dispatch crash recovery uses:
// dictionary deltas rebuild registrations, version records re-capture the
// primary's MVCC snapshots (serving AsOf on the follower), and mutations
// re-apply through the index. Records at or below the applied
// frontier (or the checkpoint LSN after a restart) are skipped, so
// re-shipping an overlapping range is idempotent. The tree write lock is
// held per record, keeping the replica continuously queryable between
// records of a batch.
//
// epoch is the fencing epoch of the segment the record was shipped from.
// The idempotence check runs FIRST — restart replay of a mirror that
// legitimately mixes epochs (history from before a promotion below the
// frontier) must never fence. A NEW record from an epoch below the
// replica's is a deposed primary still writing: it is rejected with
// ErrFenced and nothing is applied. A record from a higher epoch advances
// the replica's epoch — it has durably observed the new timeline and will
// refuse the old one from here on. Epoch 0 records (a pre-fencing
// primary) are accepted by a replica still at epoch 0.
func (t *Tree) ApplyReplicated(epoch, lsn uint64, payload []byte) error {
	if !t.replica {
		return fmt.Errorf("dctree: ApplyReplicated on a non-replica tree")
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return ErrClosed
	}
	if lsn <= t.appliedLSN || lsn <= t.checkpointLSN {
		return nil // already applied, or inside the restored checkpoint
	}
	if epoch < t.epoch {
		return fmt.Errorf("%w: record epoch %d below replica epoch %d (lsn %d)", ErrFenced, epoch, t.epoch, lsn)
	}
	if epoch > t.epoch {
		t.epoch = epoch
	}
	mutation, err := t.applyRecordLocked(lsn, payload)
	if err != nil {
		return err
	}
	if mutation {
		t.metrics.replicaApplied.Inc()
	}
	t.appliedLSN = lsn
	return nil
}

// Schema blob: the bootstrap payload a primary hands a brand-new follower
// so it can build an empty replica tree and replay the log from LSN 1
// (the /repl/v1/schema endpoint, dctool replica -from URL). It reuses the
// hierarchy and measure encodings of the metadata blob under its own
// magic, so the wire format evolves independently of meta versions.

const schemaBlobMagic = "DCSCHM01"

// EncodeSchema serializes the tree's cube schema — every dimension with
// its full dictionary, plus the measure names — as a self-contained blob
// for bootstrapping replicas. Taken under the tree lock so concurrent
// registrations cannot tear the dictionaries; a superset of the
// dictionaries at any log position is safe, because shipped dict deltas
// re-register idempotently.
func (t *Tree) EncodeSchema() ([]byte, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	buf := []byte(schemaBlobMagic)
	buf = binary.AppendUvarint(buf, uint64(t.schema.Dims()))
	for i := 0; i < t.schema.Dims(); i++ {
		h, err := t.schema.Dim(i)
		if err != nil {
			return nil, err
		}
		buf = h.AppendEncode(buf)
	}
	buf = binary.AppendUvarint(buf, uint64(t.schema.Measures()))
	for j := 0; j < t.schema.Measures(); j++ {
		name, err := t.schema.MeasureName(j)
		if err != nil {
			return nil, err
		}
		buf = binary.AppendUvarint(buf, uint64(len(name)))
		buf = append(buf, name...)
	}
	return buf, nil
}

// DecodeSchema parses an EncodeSchema blob back into a schema. Corrupt
// input fails closed with ErrCorrupt, never a panic.
func DecodeSchema(blob []byte) (*cube.Schema, error) {
	if len(blob) < len(schemaBlobMagic) || string(blob[:len(schemaBlobMagic)]) != schemaBlobMagic {
		return nil, fmt.Errorf("%w: bad schema blob magic", ErrCorrupt)
	}
	r := metaReader{buf: blob, off: len(schemaBlobMagic)}
	dims := int(r.uvarint())
	if r.err != nil || dims < 1 || dims > 64 {
		return nil, fmt.Errorf("%w: schema blob dimension count", ErrCorrupt)
	}
	hs := make([]*hierarchy.Hierarchy, dims)
	for i := range hs {
		h, n, err := hierarchy.DecodeHierarchy(r.buf[r.off:])
		if err != nil {
			return nil, fmt.Errorf("%w: schema blob dimension %d: %v", ErrCorrupt, i, err)
		}
		hs[i] = h
		r.off += n
	}
	nMeasures := int(r.uvarint())
	if r.err != nil || nMeasures < 1 || nMeasures > 256 {
		return nil, fmt.Errorf("%w: schema blob measure count", ErrCorrupt)
	}
	measures := make([]string, nMeasures)
	for j := range measures {
		measures[j] = r.string()
	}
	if r.err != nil {
		return nil, fmt.Errorf("%w: schema blob: %v", ErrCorrupt, r.err)
	}
	if r.off != len(blob) {
		return nil, fmt.Errorf("%w: schema blob trailing bytes", ErrCorrupt)
	}
	return cube.NewSchema(hs, measures...)
}
