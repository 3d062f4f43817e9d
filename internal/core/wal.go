package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"github.com/dcindex/dctree/internal/cube"
	"github.com/dcindex/dctree/internal/hierarchy"
	"github.com/dcindex/dctree/internal/storage"
)

// This file wires the storage-layer WAL into the tree's write path.
//
// Durability contract of a WAL-backed tree (NewDurable/OpenDurable):
// when Insert or Delete returns nil, the mutation's logical record is on
// stable storage and survives a crash — either inside the WAL tail, to be
// replayed by OpenDurable, or inside a checkpoint (Flush) that superseded
// it. The record is appended under the tree write lock AFTER the in-memory
// mutation succeeds, so the append order equals the mutation order and
// only acknowledged-able mutations are logged; the caller then blocks
// OUTSIDE the lock until an fsync — its own or a concurrent writer's —
// covers its LSN.
//
// Checkpoints: Flush persists the full tree with shadow paging, stamps the
// WAL's last LSN into the metadata blob as the checkpoint LSN, and then
// truncates the log. Recovery replays only records with LSN strictly
// greater than the checkpoint LSN, so a crash BETWEEN the durable metadata
// swap and the truncation is safe: the leftover records replay as no-ops
// filtered by LSN, not as double-applied mutations.
//
// Records and dictionaries. Dictionary registrations are only durable at
// checkpoint time, so a replayed record may mention values the reopened
// dictionaries have never seen. New-value registrations are therefore
// logged as separate walOpDictDelta records — framed ahead of the mutation
// record that first needs them, inside the same tree-lock critical section,
// so the delta's LSN is always lower and a torn tail can never keep a
// mutation without its delta. Mutation records then carry only the interned
// leaf IDs. Recovery replays deltas into the reopened dictionaries
// (idempotently: a fuzzy checkpoint may already carry a registration whose
// delta is past the checkpoint LSN) before re-validating mutations.

// walOp discriminates logical WAL records. Ops 1 and 2 were the retired
// mutation records that re-spelled string paths; a log holding one is
// refused with ErrUnsupportedFormat.
const (
	walOpDictDelta byte = 3 // dictionary registration delta batch
	walOpInsert    byte = 4 // insert: interned leaf IDs
	walOpDelete    byte = 5 // delete: interned leaf IDs
	walOpVersion   byte = 6 // MVCC snapshot marker: version ID at this LSN
	// walOpVersionRelease marks a version's release at this LSN. Recovery
	// and replicas release the named version if it is live; without the
	// record, a version released after the last checkpoint would rehydrate
	// from the checkpoint's manifest and resurrect on reopen.
	walOpVersionRelease byte = 7
)

// dictDelta is one observed dictionary registration awaiting its WAL
// record: value name under parent received id in dimension dim.
type dictDelta struct {
	dim    int
	id     hierarchy.ID
	parent hierarchy.ID
	name   string
}

// ErrWALRejected is returned by NewDurable when the WAL already holds
// records: creating a fresh tree over a log tail would silently discard
// recoverable mutations — use OpenDurable instead.
var ErrWALRejected = errors.New("dctree: wal holds unreplayed records")

// ErrFenced is the fencing violation: a replication peer presented an
// epoch older than the local one. A follower returns it from
// ApplyReplicated when a deposed primary keeps shipping records minted
// before the promotion; a primary's write path is poisoned with it when a
// follower acknowledgment reveals a higher epoch — the primary has been
// deposed, and acknowledging further writes would lose them on failover.
// Like an fsync failure it is sticky: the poisoned tree stays queryable
// but rejects mutations until reopened.
var ErrFenced = errors.New("dctree: replication epoch fenced (peer was promoted)")

// walState runs group commit for one tree's WAL. The commit is
// self-clocking: there is no committer goroutine and no timer. Appenders
// (holding the tree write lock) frame their record into the log's buffer;
// then, OUTSIDE the tree lock, each waits in waitDurable for the durable
// frontier to cover its LSN. A waiter that finds no sync in flight becomes
// the leader and fsyncs the log itself; waiters that arrive meanwhile park,
// and when the leader returns the first one still uncovered leads the next
// sync — which covers everything appended while the previous one ran. That
// in-flight fsync is the whole batch window: a lone writer pays append plus
// one fsync, N concurrent writers share fsyncs.
type walState struct {
	w *storage.WAL
	m *treeMetrics

	// Synchronous replication (Config.SyncReplication): when syncAcks > 0,
	// waitDurable additionally blocks until replLSN — the syncAcks-th
	// highest follower-confirmed LSN — covers the write, or syncTimeout
	// expires and the write degrades to asynchronous acknowledgment.
	syncAcks    int
	syncTimeout time.Duration

	mu         sync.Mutex
	ackCond    *sync.Cond // waitDurable parks here for either frontier
	durableLSN uint64     // highest LSN known durable (fsync or checkpoint)
	syncing    bool       // a leader's fsync is in flight
	err        error      // sticky: a failed fsync poisons the write path
	closing    bool       // shutdown ran its final sync; nobody leads again
	// Follower acknowledgment registry: the highest LSN each follower has
	// confirmed durable on its side. The minimum is the log retention
	// floor (a truncation past it would strand the slowest follower); the
	// syncAcks-th highest is replLSN, the quorum-confirmed frontier
	// synchronous writes wait on.
	followers map[string]uint64
	replLSN   uint64
}

func newWALState(w *storage.WAL, cfg *Config, m *treeMetrics) *walState {
	ws := &walState{
		w:           w,
		m:           m,
		syncAcks:    cfg.SyncReplication,
		syncTimeout: cfg.SyncReplicationTimeout,
		followers:   make(map[string]uint64),
		durableLSN:  w.SyncedLSN(),
	}
	ws.ackCond = sync.NewCond(&ws.mu)
	return ws
}

// append frames one logical record into the log's buffer. Called with the
// tree write lock held — it never touches the disk; the caller makes the
// record durable by passing the returned LSN to waitDurable after it has
// dropped the lock.
func (ws *walState) append(payload []byte) (uint64, error) {
	ws.mu.Lock()
	err := ws.err
	ws.mu.Unlock()
	if err != nil {
		return 0, err
	}
	lsn, err := ws.w.Append(payload)
	if err != nil {
		return 0, err
	}
	ws.m.walAppends.Inc()
	return lsn, nil
}

// waitDurable blocks until lsn is durable (or the write path is
// poisoned), leading a sync itself when none is in flight. Called WITHOUT
// the tree lock, so concurrent mutators keep appending to the next batch
// while this one is on its way to disk. Under synchronous replication
// (syncAcks > 0) it then also waits for the quorum frontier to cover lsn;
// if syncTimeout expires first the write is acknowledged on local
// durability alone and the degradation is counted — a dead follower slows
// the primary down to the timeout, never to a halt.
func (ws *walState) waitDurable(lsn uint64) error {
	if lsn == 0 {
		return nil
	}
	start := time.Now()
	ws.mu.Lock()
	defer ws.mu.Unlock()
	for ws.durableLSN < lsn && ws.err == nil {
		switch {
		case ws.closing:
			return ErrClosed
		case ws.syncing:
			ws.ackCond.Wait()
		default:
			ws.syncLocked()
		}
	}
	if ws.err != nil {
		return ws.err
	}
	local := time.Now()
	ws.m.walCommitWait.Observe(local.Sub(start))
	if ws.syncAcks <= 0 {
		return nil
	}
	if err := ws.waitQuorumLocked(lsn); err != nil {
		return err
	}
	ws.m.replQuorumWait.Observe(time.Since(local))
	return nil
}

// waitQuorumLocked is the second stage of a synchronous write: park until
// the follower quorum's confirmed frontier covers lsn, the write path is
// poisoned, the tree closes or syncTimeout expires. Caller holds ws.mu.
func (ws *walState) waitQuorumLocked(lsn uint64) error {
	if ws.replLSN >= lsn {
		return nil
	}
	// sync.Cond has no timed wait, so a one-shot timer flips a per-waiter
	// flag and broadcasts; the loop re-checks it on wakeup. The timer only
	// bounds a dead follower — a healthy acknowledgment never waits for it.
	timedOut := false
	timer := time.AfterFunc(ws.syncTimeout, func() {
		ws.mu.Lock()
		timedOut = true
		ws.ackCond.Broadcast()
		ws.mu.Unlock()
	})
	defer timer.Stop()
	for ws.replLSN < lsn && ws.err == nil && !ws.closing && !timedOut {
		ws.ackCond.Wait()
	}
	if ws.err != nil {
		return ws.err
	}
	if ws.replLSN < lsn {
		// Timed out (or the tree is closing): the record is durable locally
		// but unconfirmed by the quorum. Degrade to async rather than fail
		// a write that recovery would replay anyway.
		ws.m.replSyncDegraded.Inc()
	}
	return nil
}

// syncLocked leads one commit: fsync the log with ws.mu dropped, publish
// the covered LSN (or poison the write path), wake every waiter. Whatever
// was appended before the fsync started is the batch. Caller holds ws.mu
// and has checked that no sync is in flight.
func (ws *walState) syncLocked() {
	ws.syncing = true
	prev := ws.durableLSN
	ws.mu.Unlock()
	covered, err := ws.w.Sync()
	ws.mu.Lock()
	ws.syncing = false
	if err != nil {
		if ws.err == nil {
			ws.err = err
		}
	} else {
		ws.m.walFsyncs.Inc()
		if batch := int64(covered) - int64(prev); batch > 0 {
			ws.m.walBatches.Inc()
			ws.m.walBatchRecords.Add(batch)
			if batch > ws.m.walBatchMax.Load() {
				ws.m.walBatchMax.Set(batch)
			}
		}
		if covered > ws.durableLSN {
			ws.durableLSN = covered
		}
	}
	ws.ackCond.Broadcast()
}

// observeAck records one follower's confirmation that it has durably
// applied the log through lsn, and returns the new retention floor (the
// slowest follower's frontier) for the caller to push into the WAL. The
// quorum frontier advances to the syncAcks-th highest confirmed LSN,
// waking synchronous writers it now covers.
func (ws *walState) observeAck(follower string, lsn uint64) uint64 {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if lsn > ws.followers[follower] {
		ws.followers[follower] = lsn
	}
	floor := ^uint64(0)
	for _, l := range ws.followers {
		floor = min(floor, l)
	}
	// The quorum frontier is the largest confirmed LSN that at least
	// syncAcks followers have reached. It only ever rises, so candidates at
	// or below the current frontier need no count; the registry holds a
	// handful of followers, so counting in place beats sorting a copy on
	// the blocking path of every synchronous write.
	if ws.syncAcks > 0 && len(ws.followers) >= ws.syncAcks {
		fr := ws.replLSN
		for _, cand := range ws.followers {
			if cand <= fr {
				continue
			}
			reached := 0
			for _, l := range ws.followers {
				if l >= cand {
					reached++
				}
			}
			if reached >= ws.syncAcks {
				fr = cand
			}
		}
		if fr > ws.replLSN {
			ws.replLSN = fr
			ws.ackCond.Broadcast()
		}
	}
	return floor
}

// poison records a write-path failure; every waiter and later append sees
// it. Durability can no longer be promised, so the tree stays read-only
// in practice until reopened.
func (ws *walState) poison(err error) {
	ws.mu.Lock()
	if ws.err == nil {
		ws.err = err
	}
	ws.ackCond.Broadcast()
	ws.mu.Unlock()
}

// checkpointDone is called by a checkpoint install after the durable
// metadata swap superseded the log up to lsn: everything there is durable
// via the checkpoint, so waiters on those records unblock even though
// their fsync never happened.
func (ws *walState) checkpointDone(lsn uint64) {
	// A writer whose record the checkpoint covered returns without leading
	// a sync, so the log itself may still hold that record's frame in its
	// buffer. Followers ship from the log's durable frontier: on a primary
	// that then falls quiet nothing else would ever flush the frame, so
	// the log catches up here. (Almost never taken: a writer normally
	// syncs long before a checkpoint installs. An error resurfaces at the
	// next writer's own sync.)
	if ws.w.SyncedLSN() < lsn {
		_, _ = ws.w.Sync()
	}
	ws.mu.Lock()
	if lsn > ws.durableLSN {
		ws.durableLSN = lsn
	}
	ws.ackCond.Broadcast()
	ws.mu.Unlock()
}

// shutdown makes every appended record durable — one final sync once any
// in-flight leader has returned — and closes the log files. Waiters the
// final sync covers return nil; a record that slips in behind it is
// refused with ErrClosed (WAL.Close still flushes it).
func (ws *walState) shutdown() error {
	ws.mu.Lock()
	for ws.syncing {
		ws.ackCond.Wait()
	}
	if ws.err == nil && ws.w.LastLSN() > ws.durableLSN {
		ws.syncLocked()
	}
	ws.closing = true
	ws.ackCond.Broadcast()
	ws.mu.Unlock()
	return ws.w.Close()
}

// ErrClosed is returned by operations on a closed tree.
var ErrClosed = errors.New("dctree: tree is closed")

// encodeWALRecord serializes one logical mutation: op byte, measures, then
// one interned leaf ID per dimension. The IDs are meaningful because every
// registration they depend on is either in the last checkpoint's
// dictionaries or in a walOpDictDelta record with a lower LSN.
func encodeWALRecord(op byte, rec cube.Record) []byte {
	buf := make([]byte, 0, 4+9*len(rec.Measures)+5*len(rec.Coords))
	buf = append(buf, op)
	buf = binary.AppendUvarint(buf, uint64(len(rec.Measures)))
	for _, m := range rec.Measures {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(m))
	}
	buf = binary.AppendUvarint(buf, uint64(len(rec.Coords)))
	for _, c := range rec.Coords {
		buf = binary.AppendUvarint(buf, uint64(uint32(c)))
	}
	return buf
}

// encodeDictDelta serializes a batch of dictionary registrations: op byte,
// entry count, then per entry the dimension, the minted ID, its parent and
// the value name.
func encodeDictDelta(deltas []dictDelta) []byte {
	buf := []byte{walOpDictDelta}
	buf = binary.AppendUvarint(buf, uint64(len(deltas)))
	for _, d := range deltas {
		buf = binary.AppendUvarint(buf, uint64(d.dim))
		buf = binary.AppendUvarint(buf, uint64(uint32(d.id)))
		buf = binary.AppendUvarint(buf, uint64(uint32(d.parent)))
		buf = binary.AppendUvarint(buf, uint64(len(d.name)))
		buf = append(buf, d.name...)
	}
	return buf
}

// applyDictDelta replays one walOpDictDelta payload into the schema's
// dictionaries. Idempotent for registrations a fuzzy checkpoint already
// captured; any other disagreement between log and dictionaries (or any
// malformed byte) fails closed with ErrCorrupt.
func applyDictDelta(schema *cube.Schema, payload []byte) error {
	r := metaReader{buf: payload}
	if r.byte() != walOpDictDelta {
		return fmt.Errorf("%w: not a dict delta record", ErrCorrupt)
	}
	count := r.uvarint()
	if r.err != nil || count > uint64(len(payload)) {
		return fmt.Errorf("%w: dict delta count", ErrCorrupt)
	}
	for i := uint64(0); i < count; i++ {
		dim := r.uvarint()
		id := r.uvarint()
		parent := r.uvarint()
		name := r.string()
		if r.err != nil {
			return fmt.Errorf("%w: dict delta entry %d: %v", ErrCorrupt, i, r.err)
		}
		if dim >= uint64(schema.Dims()) || id > math.MaxUint32 || parent > math.MaxUint32 {
			return fmt.Errorf("%w: dict delta entry %d out of range", ErrCorrupt, i)
		}
		h, err := schema.Dim(int(dim))
		if err != nil {
			return fmt.Errorf("%w: dict delta entry %d: %v", ErrCorrupt, i, err)
		}
		if err := h.RestoreValue(hierarchy.ID(id), hierarchy.ID(parent), name); err != nil {
			return fmt.Errorf("%w: dict delta entry %d: %v", ErrCorrupt, i, err)
		}
	}
	if r.off != len(payload) {
		return fmt.Errorf("%w: dict delta trailing bytes", ErrCorrupt)
	}
	return nil
}

// decodeWALRecord parses a logical mutation record, returning its op
// (walOpInsert or walOpDelete). The IDs resolve against dictionaries that
// the checkpoint plus the preceding dict deltas have already rebuilt.
func decodeWALRecord(schema *cube.Schema, payload []byte) (byte, cube.Record, error) {
	r := metaReader{buf: payload}
	op := r.byte()
	switch {
	case r.err != nil:
		return 0, cube.Record{}, fmt.Errorf("%w: empty wal record", ErrCorrupt)
	case op == 1 || op == 2:
		return 0, cube.Record{}, fmt.Errorf("%w: wal record op %d (string-path mutation record)", ErrUnsupportedFormat, op)
	case op != walOpInsert && op != walOpDelete:
		return 0, cube.Record{}, fmt.Errorf("%w: wal record op %d", ErrCorrupt, op)
	}
	nm := int(r.uvarint())
	if r.err != nil || nm != schema.Measures() {
		return 0, cube.Record{}, fmt.Errorf("%w: wal record measures", ErrCorrupt)
	}
	measures := make([]float64, nm)
	for j := range measures {
		measures[j] = r.float64()
	}
	nd := int(r.uvarint())
	if r.err != nil || nd != schema.Dims() {
		return 0, cube.Record{}, fmt.Errorf("%w: wal record dims", ErrCorrupt)
	}
	coords := make([]hierarchy.ID, nd)
	for d := range coords {
		v := r.uvarint()
		if v > math.MaxUint32 {
			return 0, cube.Record{}, fmt.Errorf("%w: wal record dim %d id", ErrCorrupt, d)
		}
		coords[d] = hierarchy.ID(v)
	}
	if r.err != nil {
		return 0, cube.Record{}, fmt.Errorf("%w: wal record: %v", ErrCorrupt, r.err)
	}
	rec := cube.Record{Coords: coords, Measures: measures}
	// The IDs must already be registered leaves: either the checkpoint's
	// dictionaries or a preceding dict delta carried them. An unknown ID
	// means the log lost a delta — corruption, not a recoverable state.
	if err := schema.ValidateRecord(rec); err != nil {
		return 0, cube.Record{}, fmt.Errorf("%w: wal record ids: %v", ErrCorrupt, err)
	}
	return op, rec, nil
}

// encodeVersionRecord serializes an MVCC snapshot marker: the record's LSN
// is the snapshot point, and the payload names the version it defines.
func encodeVersionRecord(versionID uint64) []byte {
	buf := []byte{walOpVersion}
	return binary.AppendUvarint(buf, versionID)
}

// decodeVersionRecord parses a walOpVersion payload.
func decodeVersionRecord(payload []byte) (uint64, error) {
	r := metaReader{buf: payload}
	if r.byte() != walOpVersion {
		return 0, fmt.Errorf("%w: not a version record", ErrCorrupt)
	}
	id := r.uvarint()
	if r.err != nil || id == 0 || r.off != len(payload) {
		return 0, fmt.Errorf("%w: version record", ErrCorrupt)
	}
	return id, nil
}

// encodeVersionReleaseRecord serializes an MVCC release marker: the named
// version is no longer live from this LSN on.
func encodeVersionReleaseRecord(versionID uint64) []byte {
	buf := []byte{walOpVersionRelease}
	return binary.AppendUvarint(buf, versionID)
}

// decodeVersionReleaseRecord parses a walOpVersionRelease payload.
func decodeVersionReleaseRecord(payload []byte) (uint64, error) {
	r := metaReader{buf: payload}
	if r.byte() != walOpVersionRelease {
		return 0, fmt.Errorf("%w: not a version release record", ErrCorrupt)
	}
	id := r.uvarint()
	if r.err != nil || id == 0 || r.off != len(payload) {
		return 0, fmt.Errorf("%w: version release record", ErrCorrupt)
	}
	return id, nil
}

// installDictHooks arms the per-dimension registration hooks that feed
// dictionary deltas into dictPending. Called AFTER the initial checkpoint
// (NewDurable) or recovery (OpenDurable), whose own registrations need no
// deltas: the former persists the dictionaries in meta, the latter's source
// records stay in the log until a checkpoint supersedes them.
func (t *Tree) installDictHooks() {
	for d := 0; d < t.schema.Dims(); d++ {
		h, err := t.schema.Dim(d)
		if err != nil {
			continue
		}
		dim := d
		h.SetRegisterHook(func(id, parent hierarchy.ID, name string) {
			t.dictMu.Lock()
			t.dictPending = append(t.dictPending, dictDelta{dim: dim, id: id, parent: parent, name: name})
			t.dictMu.Unlock()
		})
	}
}

// logMutation appends the logical record for an applied mutation — preceded
// by a dict delta record for any registrations observed since the last
// mutation. Called under the tree write lock, after the in-memory
// mutation succeeded, so the delta's LSN is strictly below the mutation's
// and no later mutation can slip between them. Returns the LSN to wait on
// (0 when the tree has no WAL).
func (t *Tree) logMutation(op byte, rec cube.Record) (uint64, error) {
	if t.wal == nil {
		return 0, nil
	}
	t.dictMu.Lock()
	deltas := t.dictPending
	t.dictPending = nil
	t.dictMu.Unlock()
	if len(deltas) > 0 {
		if _, err := t.wal.append(encodeDictDelta(deltas)); err != nil {
			return 0, err
		}
		t.metrics.walDictDeltas.Add(int64(len(deltas)))
	}
	return t.wal.append(encodeWALRecord(op, rec))
}

// waitDurable blocks until the given LSN is durable. No-op for trees
// without a WAL.
func (t *Tree) waitDurable(lsn uint64) error {
	if t.wal == nil {
		return nil
	}
	return t.wal.waitDurable(lsn)
}

// NewDurable creates an empty WAL-backed DC-tree: the write-ahead log at
// walPrefix protects every acknowledged mutation (group commit needs no
// configuration: the batch is whatever arrives during an fsync). The WAL
// must be empty;
// a log with records belongs to an existing tree and must go through
// OpenDurable, or its recoverable mutations would be silently discarded.
func NewDurable(store storage.Store, schema *cube.Schema, cfg Config, walPrefix string) (*Tree, error) {
	return NewDurableOpts(store, schema, cfg, walPrefix, storage.WALOptions{})
}

// NewDurableOpts is NewDurable with explicit WAL options (segment size,
// and the benchmarks' modeled sync delay).
func NewDurableOpts(store storage.Store, schema *cube.Schema, cfg Config, walPrefix string, wopts storage.WALOptions) (*Tree, error) {
	t, err := New(store, schema, cfg)
	if err != nil {
		return nil, err
	}
	w, err := storage.OpenWAL(walPrefix, wopts)
	if err != nil {
		return nil, err
	}
	if w.Records() > 0 {
		w.Close()
		return nil, ErrWALRejected
	}
	// Fresh durable trees start at epoch 1 (0 is reserved for pre-fencing
	// trees, which nothing ever fences). The empty first segment is
	// restamped so the log agrees with the meta from the first record on.
	t.epoch = 1
	if e := w.Epoch(); e > t.epoch {
		t.epoch = e // reattached to a pre-epoched (empty) log
	}
	w.SetEpoch(t.epoch)
	t.checkpointLSN = w.LastLSN()
	// Initial checkpoint: the store must hold valid (empty-tree) metadata
	// before the first log record is acknowledged, or a crash before the
	// first Flush would leave a log tail with no tree to replay it into.
	if err := t.Flush(); err != nil {
		w.Close()
		return nil, err
	}
	// Hooks arm only now: the pre-existing dictionary contents (if the
	// schema was pre-registered) are already durable in the checkpoint.
	t.installDictHooks()
	t.wal = newWALState(w, &t.cfg, &t.metrics)
	t.startCheckpointer()
	return t, nil
}

// OpenDurable reopens a WAL-backed tree: the last checkpoint is loaded
// from the store, then every log record past the checkpoint LSN is
// replayed through the normal insert/delete path, rebuilding MDSs,
// materialized aggregates and split history exactly as the lost process
// built them. The replayed state is in memory (and still covered by the
// log); the next Flush checkpoints it.
func OpenDurable(store storage.Store, walPrefix string) (*Tree, error) {
	return OpenDurableOpts(store, walPrefix, storage.WALOptions{})
}

// OpenDurableOpts is OpenDurable with explicit WAL options. None of them
// is recorded in the log, so a reopen passes again whatever it wants to
// stay in effect (segment size, retention cushion).
func OpenDurableOpts(store storage.Store, walPrefix string, wopts storage.WALOptions) (*Tree, error) {
	t, err := Open(store)
	if err != nil {
		return nil, err
	}
	w, err := storage.OpenWAL(walPrefix, wopts)
	if err != nil {
		return nil, err
	}
	// Reconcile the fencing epoch: the meta blob and the WAL segment
	// headers each carry it durably, and either can be ahead (a promotion
	// rotates the log before the next checkpoint rewrites the meta; a
	// checkpoint can survive a log truncated by retention). The truth is
	// the maximum, pushed back down into the WAL so new segments carry it.
	if e := w.Epoch(); e > t.epoch {
		t.epoch = e
	}
	w.SetEpoch(t.epoch)
	if err := t.recoverFrom(w); err != nil {
		w.Close()
		return nil, err
	}
	// Hooks arm only after recovery: replayed registrations come from
	// records still in the log (or deltas already there), so logging them
	// again would be redundant.
	t.installDictHooks()
	t.wal = newWALState(w, &t.cfg, &t.metrics)
	t.startCheckpointer()
	return t, nil
}

// recoverFrom replays the WAL tail past the tree's checkpoint LSN through
// applyRecordLocked (nothing else can reach the tree yet, so no lock is
// taken). recoveryReplayed counts mutations only — deltas and version
// records are bookkeeping, not replayed updates.
func (t *Tree) recoverFrom(w *storage.WAL) error {
	return w.Replay(func(lsn uint64, payload []byte) error {
		if lsn <= t.checkpointLSN {
			return nil // superseded by the checkpoint
		}
		mutation, err := t.applyRecordLocked(lsn, payload)
		if mutation {
			t.metrics.recoveryReplayed.Inc()
		}
		return err
	})
}

// applyRecordLocked folds one log record into the tree: the one dispatch
// crash recovery and replicated apply share. Dictionary deltas rebuild the
// registrations first (their LSNs precede every mutation that needs them),
// version records re-capture and release MVCC snapshots, and mutations
// re-apply through the index exactly as the process that logged them
// applied them — the log is not appended to. mutation reports whether the
// record was an applied insert or delete. Caller holds t.mu.
func (t *Tree) applyRecordLocked(lsn uint64, payload []byte) (mutation bool, err error) {
	var op byte
	if len(payload) > 0 {
		op = payload[0]
	}
	switch op {
	case walOpDictDelta:
		if err := applyDictDelta(t.schema, payload); err != nil {
			return false, fmt.Errorf("dctree: applying dict delta lsn %d: %w", lsn, err)
		}
		return false, nil
	case walOpVersion:
		// The tree right now is exactly the state at this record's LSN (the
		// checkpoint plus the applied prefix), so re-capturing here
		// reconstructs the version with its original contents. Versions
		// whose record the checkpoint superseded were rehydrated from the
		// checkpoint's manifests — the callers' LSN filters keep the two
		// sources disjoint.
		id, err := decodeVersionRecord(payload)
		if err != nil {
			return false, fmt.Errorf("dctree: applying version record lsn %d: %w", lsn, err)
		}
		if _, err := t.snapshotLocked(id, lsn); err != nil {
			return false, fmt.Errorf("dctree: reconstructing version %d lsn %d: %w", id, lsn, err)
		}
		t.metrics.snapshotsRecovered.Inc()
		return false, nil
	case walOpVersionRelease:
		// The version may have been rehydrated from the checkpoint's
		// manifest, re-captured from an earlier record, or never seen here
		// (a mirror shipped from past its record) — either way it must not
		// outlive the release its owner logged.
		id, err := decodeVersionReleaseRecord(payload)
		if err != nil {
			return false, fmt.Errorf("dctree: applying version release lsn %d: %w", lsn, err)
		}
		t.releaseVersionReplayLocked(id)
		return false, nil
	}
	op, rec, err := decodeWALRecord(t.schema, payload)
	if err != nil {
		return false, err
	}
	err = t.applyMutationLocked(op, rec)
	switch {
	case err == nil:
	case op == walOpInsert:
		return false, fmt.Errorf("dctree: applying insert lsn %d: %w", lsn, err)
	case !errors.Is(err, ErrNotFound):
		return false, fmt.Errorf("dctree: applying delete lsn %d: %w", lsn, err)
	}
	return true, nil
}

// Close refuses further mutations, stops the background checkpointer (if
// any), checkpoints the tree (Flush), syncs whatever the log still buffers
// and closes its files. Every mutation that returned nil before or while
// Close ran is durable; one that arrives afterwards gets ErrClosed and
// changes nothing. Queries keep answering from memory, a second Close is a
// no-op. The underlying store remains open — its lifecycle belongs to the
// caller. Safe on trees without a WAL, where it is equivalent to Flush.
func (t *Tree) Close() error {
	t.mu.Lock()
	already := t.closed
	t.closed = true
	t.mu.Unlock()
	if already {
		return nil
	}
	if t.cp != nil {
		t.cp.shutdown()
	}
	// Live versions are NOT released here: the final checkpoint persists
	// their overlays and manifests, so they survive the restart
	// and rehydrate on the next open. Release or prune explicitly to let
	// their extents go.
	err := t.Flush()
	if t.wal != nil {
		if werr := t.wal.shutdown(); err == nil {
			err = werr
		}
	}
	return err
}

// WAL exposes the tree's write-ahead log to the log-shipping layer
// (internal/repl): segment enumeration with durable frontiers, range reads,
// and the replication retention floor. Nil on trees without a WAL. Callers
// must not append, sync, truncate or close the log — those belong to the
// tree's commit path and checkpoints.
func (t *Tree) WAL() *storage.WAL {
	if t.wal == nil {
		return nil
	}
	return t.wal.w
}

// WALStats exposes the log's activity counters (zero value without a WAL).
func (t *Tree) WALStats() storage.WALStats {
	if t.wal == nil {
		return storage.WALStats{}
	}
	return t.wal.w.Stats()
}

// Epoch returns the tree's replication fencing epoch: 1 for a fresh
// durable tree, incremented by every promotion, 0 for trees that predate
// fencing. Shipped log records carry the epoch of the segment that holds
// them; a follower refuses records below its own epoch (ErrFenced).
func (t *Tree) Epoch() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.epoch
}

// BumpEpoch increments the fencing epoch and makes the new value durable
// before returning: the WAL rotates onto a segment stamped with the new
// epoch (its header is fsynced by creation), so every record acknowledged
// after a promotion is provably from the new timeline even if the process
// dies before the next checkpoint persists the epoch in meta. Promotion
// (internal/repl) is the only intended caller.
func (t *Tree) BumpEpoch() (uint64, error) {
	if t.wal == nil {
		return 0, fmt.Errorf("dctree: BumpEpoch on a tree without a WAL")
	}
	epoch, err := t.wal.w.BumpEpoch()
	if err != nil {
		return 0, err
	}
	t.mu.Lock()
	t.epoch = epoch
	t.mu.Unlock()
	return epoch, nil
}

// ObserveFollowerAck folds one follower acknowledgment into the primary:
// the follower named has durably applied the shipped log through lsn
// while on the given epoch. The replication retention floor tracks the
// slowest follower, synchronous writers waiting on the quorum frontier
// wake as it advances — and an acknowledgment from a HIGHER epoch means a
// follower was promoted while this primary kept running: the write path
// is poisoned with ErrFenced exactly as a failed fsync would poison it,
// because acknowledging further writes here would lose them on failover.
// No-op on trees without a WAL.
func (t *Tree) ObserveFollowerAck(follower string, epoch, lsn uint64) error {
	if t.wal == nil {
		return nil
	}
	if own := t.Epoch(); epoch > own && own > 0 {
		t.wal.poison(ErrFenced)
		return ErrFenced
	}
	floor := t.wal.observeAck(follower, lsn)
	t.wal.w.SetRetainLSN(floor)
	return nil
}
