package core

import (
	"errors"
	"time"

	"github.com/dcindex/dctree/internal/cube"
)

// Insert adds one data record to the tree (index.Index.Insert). The
// record's coordinates must be leaf-level IDs registered in the schema's
// dimension hierarchies (use cube.Schema.InternRecord to produce them).
//
// On a WAL-backed tree (NewDurable/OpenDurable), a nil return means the
// record is durable: its logical log record was fsynced (group commit) or
// superseded by a checkpoint. The record is appended under the same lock
// hold AFTER the mutation succeeds, so log order equals mutation order;
// the durability wait happens outside the tree lock, so concurrent inserts
// batch into shared fsyncs.
func (t *Tree) Insert(rec cube.Record) error {
	if t.replica {
		return ErrReplica
	}
	if err := t.schema.ValidateRecord(rec); err != nil {
		return err
	}
	start := time.Now()
	t.mu.Lock()
	lsn, err := t.mutateLocked(walOpInsert, rec)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	if err := t.waitDurable(lsn); err != nil {
		return err
	}
	t.metrics.insertLatency.Observe(time.Since(start))
	return nil
}

// Delete removes one data record matching rec exactly (index.Index.Delete);
// it returns ErrNotFound when no matching record exists. Durability is as
// for Insert.
func (t *Tree) Delete(rec cube.Record) error {
	if t.replica {
		return ErrReplica
	}
	if err := t.schema.ValidateRecord(rec); err != nil {
		return err
	}
	t.mu.Lock()
	lsn, err := t.mutateLocked(walOpDelete, rec)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return t.waitDurable(lsn)
}

// mutateLocked applies one local insert or delete and appends its logical
// record, returning the LSN to await. Caller holds t.mu.
func (t *Tree) mutateLocked(op byte, rec cube.Record) (uint64, error) {
	if t.closed {
		return 0, ErrClosed
	}
	if err := t.applyMutationLocked(op, rec); err != nil {
		return 0, err
	}
	return t.logMutation(op, rec)
}

// applyMutationLocked folds one insert or delete — local, replayed or
// replicated — into the index and counts it. Caller holds t.mu.
func (t *Tree) applyMutationLocked(op byte, rec cube.Record) error {
	if op == walOpInsert {
		if err := t.ix.Insert(rec); err != nil {
			return err
		}
		t.metrics.inserts.Inc()
		return nil
	}
	if err := t.ix.Delete(rec); err != nil {
		if errors.Is(err, ErrNotFound) {
			t.metrics.deleteMisses.Inc()
		}
		return err
	}
	t.metrics.deletes.Inc()
	return nil
}

// BulkLoad fills an empty tree from a record set in one pass
// (index.Index.BulkLoad): the "bulk incremental update" mode of the systems
// the paper compares against, at the price of the warehouse being offline
// while it runs.
func (t *Tree) BulkLoad(recs []cube.Record) error {
	if t.replica {
		return ErrReplica
	}
	t.mu.Lock()
	err := ErrClosed
	if !t.closed {
		err = t.ix.BulkLoad(recs)
	}
	t.mu.Unlock()
	if err != nil || t.wal == nil || len(recs) == 0 {
		return err
	}
	// A WAL-backed tree checkpoints immediately: bulk loading bypasses the
	// log, so until the flush lands nothing of the load would survive a
	// crash — and the log must not claim otherwise. The flush runs after
	// the lock is released: checkpoints take the checkpoint mutex before
	// the tree lock, never the other way around.
	return t.Flush()
}
