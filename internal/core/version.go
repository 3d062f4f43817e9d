package core

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"github.com/dcindex/dctree/internal/cube"
	"github.com/dcindex/dctree/internal/index"
	"github.com/dcindex/dctree/internal/storage"
)

// MVCC snapshots.
//
// A Version is a cheap, immutable, named snapshot of the whole tree,
// generalizing what fuzzy-checkpoint capture already does internally: under
// one short hold of the tree write lock, Snapshot copies the node→extent
// translation table, encodes the payload of every node that is dirty (its
// in-memory state is newer than its extent) into a copy-on-write overlay,
// and pins every extent the table references so later checkpoint installs
// park their frees instead of returning the extents to the allocator.
//
// From then on the version is self-contained: an as-of query resolves every
// node through the overlay first and the pinned extents second, each framed
// where it lies — it never touches the live table, the node cache, or the
// tree lock, and caches nothing of its own. Long OLAP scans pinned to a version
// therefore run concurrently with inserts, deletes and checkpoints, which
// is the paper's motivating warehouse scenario taken one step further.
//
// Durability: live versions survive checkpoints, crashes and clean
// restarts. On a WAL-backed tree every Snapshot appends a version record
// (walOpVersion) whose LSN defines the snapshot point, group-committed
// before Snapshot returns; crash recovery re-captures versions whose
// records are still in the log tail. Versions older than the last
// checkpoint are not lost when the log truncates: every checkpoint writes
// each live version's overlay payloads into checksummed storage extents
// and records a per-version manifest (table, pins, identity) in the
// metadata blob (v8), and recovery rehydrates those versions from the
// manifest BEFORE replaying the log tail. Release is durable too — it
// appends a walOpVersionRelease record, so a released version cannot
// resurrect from a stale manifest after a crash.
//
// A version therefore disappears only through explicit Release or the
// retention policy (Config.VersionRetention: keep-last-N and/or max-age,
// applied after snapshots and at checkpoint start, or on demand through
// PruneVersions) — never through WAL truncation. The version-number mint
// is persisted in the metadata blob (since v5), so numbers stay unique
// across restarts.

// ErrVersionReleased reports a query against a version handle whose
// Release has already run (or whose tree no longer knows it).
var ErrVersionReleased = errors.New("dctree: version has been released")

// ErrVersionForeign reports a version handle used against a tree other
// than the one that created it.
var ErrVersionForeign = errors.New("dctree: version belongs to a different tree")

// Version is one pinned MVCC snapshot. Handles are safe for concurrent
// use; queries against a version run without the tree lock. Release the
// handle when done — a live version pins the storage extents it reads,
// keeping them out of the allocator — or configure VersionRetention to
// prune automatically.
type Version struct {
	t       *Tree
	id      uint64
	lsn     uint64
	created time.Time

	head    index.Head
	table   map[nodeID]extentRef // immutable after capture
	overlay map[nodeID][]byte    // encoded payloads of nodes dirty at capture
	// pinned holds the extents of the captured table, pinned in t.pins. It
	// is immutable after capture: release unpins the pages but never
	// mutates the slice, so lock-free readers (Versions) stay race-free.
	pinned []storage.PageID

	// Durable-overlay state, written by checkpoint installs under t.mu:
	// once a checkpoint has persisted the version's overlay payloads into
	// extents, ovExtents maps each overlay node to its extent (merged over
	// table in the persisted manifest), ovPinned holds those extents' pins,
	// and persisted latches so later checkpoints only re-encode the
	// manifest instead of rewriting payloads (atomic so tooling can read it
	// lock-free).
	ovExtents map[nodeID]extentRef
	ovPinned  []storage.PageID
	persisted atomic.Bool

	// pinCount mirrors len(pinned)+len(ovPinned) for lock-free reporting.
	pinCount atomic.Int64

	// refs counts the handle itself plus every in-flight query; the drop to
	// zero unpins the extents. released latches the one Release call.
	refs     atomic.Int64
	released atomic.Bool
}

// ID returns the version number. Numbers are minted monotonically and are
// unique for the lifetime of the index, across restarts.
func (v *Version) ID() uint64 { return v.id }

// LSN returns the WAL position that defines the snapshot point (0 on trees
// without a WAL).
func (v *Version) LSN() uint64 { return v.lsn }

// Count returns the number of live data records the version captured.
func (v *Version) Count() int64 { return v.head.Count }

// CreatedAt returns when the snapshot was captured. Versions rehydrated
// from a checkpoint manifest keep their original capture time; versions
// re-captured from the log tail report the replay time.
func (v *Version) CreatedAt() time.Time { return v.created }

// Released reports whether the handle has been released.
func (v *Version) Released() bool { return v.released.Load() }

// acquire takes a query reference; it fails once the version is released.
func (v *Version) acquire() error {
	if v.released.Load() {
		return ErrVersionReleased
	}
	for {
		r := v.refs.Load()
		if r <= 0 {
			return ErrVersionReleased
		}
		if v.refs.CompareAndSwap(r, r+1) {
			// Release may have latched between the Load and the CAS; the
			// reference taken here keeps the extents pinned either way, so
			// an in-flight query still completes safely.
			return nil
		}
	}
}

// unref drops one reference; the last drop returns the pinned extents.
func (v *Version) unref() {
	if v.refs.Add(-1) == 0 {
		v.t.mu.Lock()
		v.t.releaseVersionExtentsLocked(v)
		v.t.mu.Unlock()
	}
}

// Release ends the version's life: a release record is appended to the WAL
// (so the version cannot rehydrate from an older checkpoint manifest after
// a crash), the handle is removed from the tree's registry and, once any
// in-flight queries drain, its extent pins are dropped — frees that
// checkpoints parked behind them are queued and execute after the next
// durable metadata swap. Releasing twice returns ErrVersionReleased.
func (v *Version) Release() error {
	lsn, err := v.release()
	if err != nil {
		return err
	}
	return v.t.waitDurable(lsn)
}

// release latches the version released and performs the in-memory release
// under t.mu, returning the LSN of the release record to wait on (0 when
// the tree has no WAL, or when the log is already poisoned — the in-memory
// release proceeds regardless; a resurrected version after a crash is
// re-releasable).
func (v *Version) release() (uint64, error) {
	if v.released.Swap(true) {
		return 0, ErrVersionReleased
	}
	t := v.t
	t.mu.Lock()
	var lsn uint64
	if t.wal != nil {
		if l, err := t.wal.append(encodeVersionReleaseRecord(v.id)); err == nil {
			lsn = l
		}
	}
	t.versionGen++
	t.finishReleaseLocked(v)
	t.mu.Unlock()
	return lsn, nil
}

// finishReleaseLocked completes a release whose released latch is already
// set: the registry entry goes, the handle's reference is dropped, and if
// no query is in flight the pins are returned. Caller holds t.mu.
func (t *Tree) finishReleaseLocked(v *Version) {
	t.vmu.Lock()
	if cur, ok := t.versions[v.id]; ok && cur == v {
		delete(t.versions, v.id)
	}
	t.vmu.Unlock()
	if v.refs.Add(-1) == 0 {
		t.releaseVersionExtentsLocked(v)
	}
}

// releaseVersionReplayLocked releases the version named by a replayed
// walOpVersionRelease record, tolerating versions that are not live (the
// release may shadow a version whose snapshot record the same replay never
// saw, or one already released). Called by ApplyReplicated under t.mu and
// by single-threaded crash recovery.
func (t *Tree) releaseVersionReplayLocked(id uint64) {
	t.vmu.Lock()
	v := t.versions[id]
	t.vmu.Unlock()
	if v == nil || v.released.Swap(true) {
		return
	}
	t.versionGen++
	t.finishReleaseLocked(v)
}

// versionNodes is the Version as the index's descent meets it
// (index.Source); like treeNodes, a defined type keeps View off the public
// handle.
type versionNodes Version

func (v *Version) nodes() *versionNodes { return (*versionNodes)(v) }

// View fills the descent's frame nv for a read-only as-of descent. Overlay
// payloads win over the pinned extents (the overlay holds the strictly newer
// in-memory state of nodes that were dirty at capture) and are framed where
// they lie, unchecked: they are flat encodings the index produced itself.
// Extents — a rehydrated version's persisted overlay extents included — are
// framed by the live tree's extentView, over the version's table. A view's
// lifetime is bounded by the query's reference on the version — the pinned
// extent cannot be freed and rewritten while the version holds its pin,
// even across checkpoint installs.
func (s *versionNodes) View(id nodeID, nv *index.NodeView) error {
	v := (*Version)(s)
	if payload, ok := v.overlay[id]; ok {
		v.t.metrics.flatNodeReads.Inc()
		nv.FrameTrusted(id, payload, v.t.schema.Dims(), v.t.schema.Measures())
		return nil
	}
	return v.t.extentView(id, v.table, nv)
}

// Scan streams every data record of the version to fn in unspecified
// order; fn returning false stops the scan. Like as-of queries it runs
// without the tree lock.
func (v *Version) Scan(fn func(cube.Record) bool) error {
	if err := v.acquire(); err != nil {
		return err
	}
	defer v.unref()
	return v.t.ix.Scan(v.nodes(), v.head.Root, fn)
}

// LevelStats reports the version's per-level node statistics
// (Tree.LevelStats). Like as-of queries it runs under the version's
// reference, without the tree lock: writers proceed during the walk.
func (v *Version) LevelStats() ([]LevelStat, error) {
	if err := v.acquire(); err != nil {
		return nil, err
	}
	defer v.unref()
	return v.t.ix.LevelStats(v.nodes(), v.head)
}

// Validate deep-checks the version's invariants (Tree.Validate), likewise.
func (v *Version) Validate() error {
	if err := v.acquire(); err != nil {
		return err
	}
	defer v.unref()
	return v.t.ix.Validate(v.nodes(), v.head)
}

// Snapshot captures a new version of the tree under one short hold of the
// write lock: the translation table is copied, dirty nodes are encoded into
// the overlay, and every table extent is pinned against later checkpoint
// frees. On a WAL-backed tree the version record is group-committed before
// Snapshot returns. The version is durable: checkpoints persist its
// overlay into storage extents and its manifest into the metadata blob, so
// it survives crashes and restarts until released or pruned by the
// retention policy (which is applied before returning).
func (t *Tree) Snapshot() (*Version, error) {
	// Replicas reconstruct the primary's versions from replicated version
	// records; minting local version numbers would collide with them.
	if t.replica {
		return nil, ErrReplica
	}
	t.mu.Lock()
	var v *Version
	err := ErrClosed
	if !t.closed {
		v, err = t.snapshotLocked(0, 0)
	}
	t.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if err := t.waitDurable(v.lsn); err != nil {
		_ = v.Release()
		return nil, err
	}
	t.PruneVersions()
	return v, nil
}

// snapshotLocked captures a version. Caller holds t.mu. A zero versionID
// mints the next number and (on a WAL-backed tree) appends a version record
// whose LSN becomes the snapshot point; a nonzero versionID re-captures a
// recovered version at the given replay LSN without logging.
//
// The overlay is captured BEFORE the version record is appended: a capture
// failure (e.g. a dirty node that lost residency) must not leave an orphan
// record in the log for recovery to trip over. Both happen under the same
// t.mu hold, so the record's LSN still identifies exactly the captured
// state.
func (t *Tree) snapshotLocked(versionID, lsn uint64) (*Version, error) {
	mint := versionID == 0
	if mint {
		versionID = t.versionSeq + 1
	}

	v := &Version{
		t:       t,
		id:      versionID,
		lsn:     lsn,
		created: time.Now(),
		head:    t.ix.Head(),
		table:   make(map[nodeID]extentRef, len(t.table)),
		overlay: make(map[nodeID][]byte),
	}
	v.refs.Store(1)

	// Copy-on-write overlay: a dirty node's extent (if any) is stale, so
	// its current state is captured by value now. Writers keep mutating the
	// live *node afterwards; the encoded payload here no longer changes.
	for _, e := range t.nc.dirtySnapshot() {
		n := t.nc.get(e.id)
		if n == nil {
			if _, inTable := t.table[e.id]; inTable {
				return nil, fmt.Errorf("%w: node %d is dirty but not resident", ErrCorrupt, e.id)
			}
			continue // leftover flag with no state behind it
		}
		v.overlay[e.id] = t.ix.Encode(n)
	}

	// The capture succeeded; only now does the version record enter the
	// log. An append failure leaves no side effects behind (no pins, no
	// registry entry, no record).
	if mint && t.wal != nil {
		recLSN, err := t.wal.append(encodeVersionRecord(versionID))
		if err != nil {
			return nil, err
		}
		v.lsn = recLSN
	}
	if versionID > t.versionSeq {
		t.versionSeq = versionID
	}

	// Registry collision: a live version with the same number is possible
	// on the replica re-capture path (a restarted follower replaying a
	// mirror range that overlaps versions restored from its checkpoint).
	// Displacing it silently would leak its extent pins forever — release
	// it properly first.
	t.vmu.Lock()
	displaced := t.versions[versionID]
	t.vmu.Unlock()
	if displaced != nil && !displaced.released.Swap(true) {
		t.finishReleaseLocked(displaced)
	}

	// Pin the captured table's extents so checkpoint installs park their
	// frees while this version is live. Nodes covered by the overlay do not
	// need their extents, but pinning uniformly keeps the invariant simple:
	// everything the version's table references stays readable.
	v.pinned = make([]storage.PageID, 0, len(t.table))
	for id, ref := range t.table {
		v.table[id] = ref
		if t.pins.Pin(ref.page) {
			v.pinned = append(v.pinned, ref.page)
		}
	}
	v.pinCount.Store(int64(len(v.pinned)))

	t.latestVersionID = versionID
	t.latestVersionLSN = v.lsn
	t.versionGen++

	t.vmu.Lock()
	t.versions[versionID] = v
	t.vmu.Unlock()
	return v, nil
}

// releaseVersionExtentsLocked drops the version's extent pins. Frees that
// checkpoints parked behind the pins come due here, but are NOT executed
// immediately: the last durable metadata blob may still reference the
// extents through the version's manifest, so they join the pending-free
// list and are returned to the allocator only after the next durable swap
// (ordinary shadow-paging discipline). Caller holds t.mu.
func (t *Tree) releaseVersionExtentsLocked(v *Version) {
	for _, pages := range [2][]storage.PageID{v.pinned, v.ovPinned} {
		for _, page := range pages {
			ext, due := t.pins.Unpin(page)
			if !due {
				continue
			}
			t.pendingFree = append(t.pendingFree, extentRef{page: ext.Page, blocks: ext.Blocks})
		}
	}
}

// PruneVersions applies the tree's configured retention policy
// (Config.VersionRetention), releasing every version beyond it, and
// returns the pruned version numbers. A nil/zero policy prunes nothing.
func (t *Tree) PruneVersions() []uint64 {
	return t.PruneVersionsPolicy(t.cfg.VersionRetention)
}

// PruneVersionsPolicy applies an explicit retention policy: versions older
// than the newest KeepLast, or captured more than MaxAge ago, are released
// exactly as Version.Release would release them (durable release records
// on WAL-backed trees; one combined durability wait covers them all).
// Returns the pruned version numbers, oldest first.
func (t *Tree) PruneVersionsPolicy(r VersionRetention) []uint64 {
	if !r.active() {
		return nil
	}
	infos := t.Versions()
	cut := make(map[uint64]bool)
	if r.KeepLast > 0 && len(infos) > r.KeepLast {
		for _, vi := range infos[:len(infos)-r.KeepLast] {
			cut[vi.ID] = true
		}
	}
	if r.MaxAge > 0 {
		dead := time.Now().Add(-r.MaxAge)
		for _, vi := range infos {
			if vi.CreatedAt.Before(dead) {
				cut[vi.ID] = true
			}
		}
	}
	var pruned []uint64
	var maxLSN uint64
	for _, vi := range infos {
		if !cut[vi.ID] {
			continue
		}
		v, ok := t.VersionByID(vi.ID)
		if !ok {
			continue
		}
		lsn, err := v.release()
		if err != nil {
			continue // raced with an explicit Release; nothing to do
		}
		if lsn > maxLSN {
			maxLSN = lsn
		}
		pruned = append(pruned, vi.ID)
	}
	if len(pruned) > 0 {
		t.metrics.versionsPruned.Add(int64(len(pruned)))
		_ = t.waitDurable(maxLSN)
	}
	return pruned
}

// VersionInfo describes one live version for tooling.
type VersionInfo struct {
	ID        uint64    // version number
	LSN       uint64    // WAL position of the snapshot point (0 without a WAL)
	Records   int64     // live data records at capture
	Overlay   int       // nodes captured by value (dirty at snapshot time)
	Pinned    int       // storage extents the version pins
	Persisted bool      // overlay persisted into extents by a checkpoint
	CreatedAt time.Time // capture (or recovery re-capture) time
}

// LatestVersion reports the most recent snapshot's stamps as persisted in
// the metadata (since v5): its version number and the WAL LSN of its
// record. Zero values mean no snapshot was ever taken. The stamped version
// is not necessarily live — it may have been released or pruned.
func (t *Tree) LatestVersion() (id, lsn uint64) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.latestVersionID, t.latestVersionLSN
}

// Versions lists the live versions, oldest number first.
func (t *Tree) Versions() []VersionInfo {
	t.vmu.Lock()
	infos := make([]VersionInfo, 0, len(t.versions))
	for _, v := range t.versions {
		infos = append(infos, VersionInfo{
			ID:        v.id,
			LSN:       v.lsn,
			Records:   v.head.Count,
			Overlay:   len(v.overlay),
			Pinned:    int(v.pinCount.Load()),
			Persisted: v.persisted.Load(),
			CreatedAt: v.created,
		})
	}
	t.vmu.Unlock()
	sort.Slice(infos, func(i, j int) bool { return infos[i].ID < infos[j].ID })
	return infos
}

// VersionByID returns the live version with the given number.
func (t *Tree) VersionByID(id uint64) (*Version, bool) {
	t.vmu.Lock()
	defer t.vmu.Unlock()
	v, ok := t.versions[id]
	return v, ok
}

// ReleaseVersion releases the live version with the given number. It
// returns ErrVersionReleased if no such version is live.
func (t *Tree) ReleaseVersion(id uint64) error {
	v, ok := t.VersionByID(id)
	if !ok {
		return fmt.Errorf("%w: version %d", ErrVersionReleased, id)
	}
	return v.Release()
}
