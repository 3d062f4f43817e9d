package core

import (
	"context"
	"fmt"
	"sort"
	"time"

	"github.com/dcindex/dctree/internal/storage"
)

// Fuzzy checkpoints.
//
// A checkpoint persists every dirty node with shadow paging and swaps the
// metadata blob (which carries the node→extent translation table) last, so
// a crash at any point leaves the previously persisted tree intact. The
// fuzzy protocol splits the work into three phases so that the expensive
// part — writing the dirty extents — runs WITHOUT the tree write lock,
// concurrently with inserts, deletes and queries:
//
//  1. Capture (tree write lock): snapshot the checkpoint LSN, encode every
//     dirty node's payload, copy the metadata fields and the translation
//     table, and detach the pending-free list. The captured image is
//     exactly the tree state at the checkpoint LSN: WAL appends happen
//     under the same lock, so every mutation with LSN ≤ cLSN is in the
//     image and every later mutation is in the log with LSN > cLSN —
//     replay after a crash never double-applies.
//  2. Background write (no tree lock): allocate a fresh extent per captured
//     node and write the captured payload. Writers running meanwhile only
//     touch in-memory nodes and the WAL; a node they re-dirty keeps a newer
//     dirty sequence and is re-captured by the next checkpoint.
//  3. Install (tree write lock, short): encode and swap the metadata, sync,
//     then point the live table at the fresh extents, clear the dirty flags
//     whose sequence is unchanged, and release the shadowed extents.
//
// Nothing observable by the live tree changes until the swap succeeded, so
// any failure rolls back by freeing the fresh extents and re-attaching the
// captured pending-free list — the table, checkpoint LSN and dirty flags
// were never touched.

// ckptNode is one dirty node captured for a checkpoint.
type ckptNode struct {
	id      nodeID
	seq     uint64 // dirty sequence at capture; clear-if-unchanged at install
	payload []byte
	need    int       // extent size in blocks
	old     extentRef // extent superseded by this write
	hasOld  bool
	fresh   extentRef // assigned by the background write phase
}

// ckptVersion is one live MVCC version captured for a checkpoint: the
// manifest to persist in the metadata, and — for versions no earlier checkpoint
// persisted — the overlay payloads the background phase writes to fresh
// extents (reusing ckptNode: id, payload, need, fresh; seq/old unused).
type ckptVersion struct {
	v       *Version
	m       versionManifest
	pending []ckptNode
}

// ckptCapture is the consistent image one checkpoint persists.
type ckptCapture struct {
	lsn     uint64
	skip    bool // nothing dirty, nothing to free, LSN and versions unchanged
	nodes   []ckptNode
	meta    metaSnapshot
	freeNow []extentRef // pending frees detached at capture, released after the swap
	// versions are the live versions at capture; versionGen is the registry
	// generation they represent, stamped into versionGenPersisted when the
	// swap lands so later no-op checkpoints may skip.
	versions   []ckptVersion
	versionGen uint64
}

// captureLocked snapshots the checkpoint image. Caller holds t.mu.
func (t *Tree) captureLocked() (*ckptCapture, error) {
	c := &ckptCapture{lsn: t.checkpointLSN}
	if t.wal != nil {
		c.lsn = t.wal.w.LastLSN()
	} else if t.replica && t.appliedLSN > c.lsn {
		// A replica has no WAL of its own: its checkpoints persist the
		// applied frontier, so a restarted follower resumes replay exactly
		// past what this image already contains.
		c.lsn = t.appliedLSN
	}
	for _, e := range t.nc.dirtySnapshot() {
		n := t.nc.get(e.id)
		if n == nil {
			if _, inTable := t.table[e.id]; inTable {
				// EvictCache keeps dirty nodes resident and dropNode clears
				// the flag, so a dirty node with an extent but no in-memory
				// state has lost unpersisted mutations — fail loudly instead
				// of silently checkpointing its stale extent as current.
				return nil, fmt.Errorf("%w: node %d is dirty but not resident", ErrCorrupt, e.id)
			}
			// Dirty, absent, and unknown to the table: a leftover flag with
			// no state behind it. Clear it so it cannot pin cache evictions
			// or retrigger this path forever.
			t.nc.clearDirtyIf(e.id, e.seq)
			continue
		}
		payload := t.ix.Encode(n)
		need := storage.BlocksFor(t.cfg.BlockSize, len(payload))
		if need < n.Blocks() {
			need = n.Blocks() // supernodes occupy their full logical extent
		}
		cn := ckptNode{id: e.id, seq: e.seq, payload: payload, need: need}
		if old, ok := t.table[e.id]; ok {
			cn.old, cn.hasOld = old, true
		}
		c.nodes = append(c.nodes, cn)
	}
	// Deterministic write order (the dirty snapshot walks hash-ordered
	// shards) keeps crash images reproducible under a given fault budget.
	sort.Slice(c.nodes, func(i, j int) bool { return c.nodes[i].id < c.nodes[j].id })

	c.freeNow = t.pendingFree
	t.pendingFree = nil
	c.meta = t.metaSnapshotLocked()
	c.meta.checkpointLSN = c.lsn
	c.versions = t.captureVersionsLocked()
	c.versionGen = t.versionGen
	c.skip = len(c.nodes) == 0 && len(c.freeNow) == 0 && c.lsn == t.checkpointLSN &&
		c.versionGen == t.versionGenPersisted
	return c, nil
}

// captureVersionsLocked snapshots every live version for the checkpoint's
// manifests. Already-persisted versions only need their manifest
// re-encoded (table merged with the overlay extents an earlier checkpoint
// wrote); unpersisted ones additionally hand their overlay payloads to the
// background phase for extent writes. Caller holds t.mu, which also
// guards v.ovExtents and the persisted latch.
func (t *Tree) captureVersionsLocked() []ckptVersion {
	live := t.liveVersionsLocked()
	out := make([]ckptVersion, 0, len(live))
	for _, v := range live {
		cv := ckptVersion{v: v, m: versionManifest{
			id:      v.id,
			lsn:     v.lsn,
			created: v.created.UnixNano(),
			root:    v.root,
			rootMDS: v.rootMDS,
			height:  v.height,
			count:   v.count,
		}}
		table := make(map[nodeID]extentRef, len(v.table)+len(v.overlay))
		for id, ref := range v.table {
			table[id] = ref
		}
		if v.persisted.Load() {
			for id, ref := range v.ovExtents {
				table[id] = ref
			}
		} else {
			for id, payload := range v.overlay {
				cv.pending = append(cv.pending, ckptNode{
					id:      id,
					payload: payload,
					need:    storage.BlocksFor(t.cfg.BlockSize, len(payload)),
				})
			}
			sort.Slice(cv.pending, func(i, j int) bool { return cv.pending[i].id < cv.pending[j].id })
		}
		cv.m.table = table
		out = append(out, cv)
	}
	return out
}

// liveVersionsLocked lists the unreleased versions, oldest number first.
// Caller holds t.mu.
func (t *Tree) liveVersionsLocked() []*Version {
	t.vmu.Lock()
	live := make([]*Version, 0, len(t.versions))
	for _, v := range t.versions {
		if !v.released.Load() {
			live = append(live, v)
		}
	}
	t.vmu.Unlock()
	sort.Slice(live, func(i, j int) bool { return live[i].id < live[j].id })
	return live
}

// writeExtents is the background phase: write every captured payload to a
// fresh extent and record it in the capture's table copy. Runs without the
// tree lock; only the store (internally synchronized) is touched.
func (t *Tree) writeExtents(ctx context.Context, c *ckptCapture) error {
	for i := range c.nodes {
		if err := ctx.Err(); err != nil {
			return err
		}
		cn := &c.nodes[i]
		page, err := t.store.Alloc(cn.need)
		if err != nil {
			return err
		}
		cn.fresh = extentRef{page: page, blocks: cn.need}
		if err := t.store.Write(page, cn.need, cn.payload); err != nil {
			return err
		}
		c.meta.table[cn.id] = cn.fresh
	}
	for vi := range c.versions {
		cv := &c.versions[vi]
		for i := range cv.pending {
			if err := ctx.Err(); err != nil {
				return err
			}
			cn := &cv.pending[i]
			page, err := t.store.Alloc(cn.need)
			if err != nil {
				return err
			}
			cn.fresh = extentRef{page: page, blocks: cn.need}
			if err := t.store.Write(page, cn.need, cn.payload); err != nil {
				return err
			}
			// The manifest table is this version's durable translation: its
			// overlay entries now point at the fresh extents just written.
			cv.m.table[cn.id] = cn.fresh
		}
	}
	return nil
}

// installLocked is the short critical section that makes the checkpoint
// current: swap the metadata durably, then update the in-memory state.
// Every error return happens BEFORE any in-memory mutation, so the caller
// can roll back; once the swap is durable the install cannot fail — frees
// are retried at the next checkpoint instead of unwinding a committed
// state. Caller holds t.mu.
//
// Because the whole install runs under one continuous hold of t.mu (and
// every pin-ledger mutation happens under t.mu), the pre-swap analysis —
// which captured nodes are still live, which superseded extents will be
// parked behind a version pin versus freed, which captured versions were
// released meanwhile — exactly matches the post-swap execution, so the
// parked-free list persisted in the meta blob is the ledger state a
// reopening process must restore.
func (t *Tree) installLocked(c *ckptCapture) error {
	// Pre-swap analysis: nothing in-memory is mutated here, only the
	// capture's meta snapshot is completed.
	live := make([]bool, len(c.nodes))
	var toPark, toFree []extentRef
	classify := func(ref extentRef) {
		// A live MVCC version may still be reading this extent through its
		// captured table: park the free in the pin ledger instead, to be
		// executed when the last version pinning it is released.
		if t.pins.Pinned(ref.page) {
			toPark = append(toPark, ref)
		} else {
			toFree = append(toFree, ref)
		}
	}
	for i := range c.nodes {
		cn := &c.nodes[i]
		// A captured node is still live if it has an extent or is resident:
		// fresh nodes reach their first checkpoint with no table entry yet,
		// and only dropNode removes a dirty node from both places.
		_, inTable := t.table[cn.id]
		if inTable || t.nc.get(cn.id) != nil {
			live[i] = true
			if cn.hasOld {
				classify(cn.old)
			}
		}
	}
	for _, ref := range c.freeNow {
		classify(ref)
	}
	// Versions released between capture and install drop out of the meta
	// manifests; their freshly written overlay extents are unreferenced and
	// freed outright. (A crash between their WAL release record and the
	// next swap degrades to the accepted pendingFree-leak class.)
	surviving := make([]ckptVersion, 0, len(c.versions))
	for i := range c.versions {
		cv := &c.versions[i]
		if cv.v.released.Load() {
			for j := range cv.pending {
				if f := cv.pending[j].fresh; f.page != storage.NilPage {
					toFree = append(toFree, f)
				}
			}
			continue
		}
		surviving = append(surviving, *cv)
	}
	c.meta.versions = c.meta.versions[:0]
	for i := range surviving {
		c.meta.versions = append(c.meta.versions, surviving[i].m)
	}
	// The persisted parked-free list = the ledger now + what this install
	// will park + the surviving overlay extents this install will park
	// behind their version's pin (disjoint sets: fresh allocations cannot
	// collide with already-parked or about-to-park superseded extents).
	def := t.pins.Deferred()
	for _, ref := range toPark {
		def = append(def, storage.Extent{Page: ref.page, Blocks: ref.blocks})
	}
	for i := range surviving {
		for j := range surviving[i].pending {
			f := surviving[i].pending[j].fresh
			def = append(def, storage.Extent{Page: f.page, Blocks: f.blocks})
		}
	}
	c.meta.deferred = def

	meta, err := t.encodeMeta(c.meta)
	if err != nil {
		return err
	}
	if err := t.store.SetMeta(meta); err != nil {
		return err
	}
	if err := t.store.Sync(); err != nil {
		return err
	}

	// The swap is durable. From here on, only bookkeeping.
	t.checkpointLSN = c.lsn
	var deferred []extentRef
	var parked int64
	for i := range c.nodes {
		cn := &c.nodes[i]
		if live[i] {
			t.table[cn.id] = cn.fresh
			if !t.nc.clearDirtyIf(cn.id, cn.seq) {
				// Re-dirtied during the background write: the fresh extent
				// holds the captured (consistent, WAL-covered) version and
				// the node stays queued for the next checkpoint.
				t.metrics.checkpointRequeued.Inc()
			}
		} else {
			// Dropped during the background write. The metadata just made
			// durable references the fresh extent, so it must survive until
			// the NEXT swap supersedes it; dropNode already queued the old
			// extent the same way.
			t.pendingFree = append(t.pendingFree, cn.fresh)
		}
	}
	for _, ref := range toPark {
		if t.pins.FreeOrDefer(ref.page, ref.blocks) {
			parked++
			continue
		}
		// Unreachable under the continuous lock hold (the pin observed by
		// the classification cannot have vanished), but degrade safely.
		if err := t.store.Free(ref.page, ref.blocks); err != nil {
			deferred = append(deferred, ref)
		}
	}
	for _, ref := range toFree {
		if err := t.store.Free(ref.page, ref.blocks); err != nil {
			deferred = append(deferred, ref)
		}
	}
	if len(deferred) > 0 {
		// A failed Free after a durable swap is not a checkpoint failure:
		// the tree is consistent and the extent merely stays allocated.
		// Keep it queued so the next checkpoint retries the release.
		t.pendingFree = append(t.pendingFree, deferred...)
		t.metrics.checkpointFreeDeferred.Add(int64(len(deferred)))
	}
	if parked > 0 {
		t.metrics.snapshotFreesParked.Add(parked)
	}

	// Persist the surviving versions' overlay state: the fresh overlay
	// extents become the version's durable overlay, pinned by the version
	// and parked in the ledger so releasing the version (now or after a
	// reopen) returns them due for freeing.
	for i := range surviving {
		cv := &surviving[i]
		v := cv.v
		if len(cv.pending) > 0 {
			if v.ovExtents == nil {
				v.ovExtents = make(map[nodeID]extentRef, len(cv.pending))
			}
			var ovBytes int64
			for j := range cv.pending {
				cn := &cv.pending[j]
				v.ovExtents[cn.id] = cn.fresh
				ovBytes += int64(len(cn.payload))
				if t.pins.Pin(cn.fresh.page) {
					v.ovPinned = append(v.ovPinned, cn.fresh.page)
				}
				_ = t.pins.FreeOrDefer(cn.fresh.page, cn.fresh.blocks)
			}
			v.pinCount.Store(int64(len(v.pinned) + len(v.ovPinned)))
			t.metrics.versionOverlayExtents.Add(int64(len(cv.pending)))
			t.metrics.versionOverlayBytes.Add(ovBytes)
		}
		v.persisted.Store(true)
	}
	t.versionGenPersisted = c.versionGen

	if t.wal != nil {
		// Drop log segments wholly superseded by this checkpoint. Failure
		// (or a crash before this point) is safe: recovery filters replay
		// by the checkpoint LSN, so leftover records are skipped, never
		// re-applied — the log is just larger than it needs to be.
		_ = t.wal.w.TruncateBefore(c.lsn)
		t.wal.checkpointDone(c.lsn)
	}
	return nil
}

// rollbackLocked undoes a failed checkpoint: free the fresh extents the
// background phase allocated (best-effort — on a dead store they are
// unreachable anyway, the durable metadata never referenced them) and
// re-attach the captured pending frees. The table, dirty flags and
// checkpoint LSN were never touched, so the tree continues exactly as if
// the checkpoint had not been attempted. Caller holds t.mu.
func (t *Tree) rollbackLocked(c *ckptCapture) {
	for i := range c.nodes {
		if fresh := c.nodes[i].fresh; fresh.page != storage.NilPage {
			_ = t.store.Free(fresh.page, fresh.blocks)
		}
	}
	for i := range c.versions {
		for j := range c.versions[i].pending {
			if fresh := c.versions[i].pending[j].fresh; fresh.page != storage.NilPage {
				_ = t.store.Free(fresh.page, fresh.blocks)
			}
		}
	}
	t.pendingFree = append(c.freeNow, t.pendingFree...)
}

// Checkpoint persists all dirty nodes and the tree metadata with the fuzzy
// protocol: writers are stalled only during the capture and install
// critical sections, not while the dirty extents are written. Concurrent
// checkpoints serialize. The context cancels only the background write
// phase (the checkpoint rolls back); a started install always completes.
// The writer-stall counter accumulates only the time writers were actually
// excluded: the two short critical sections.
func (t *Tree) Checkpoint(ctx context.Context) error {
	t.ckptMu.Lock()
	defer t.ckptMu.Unlock()
	// Retention runs at the start of every checkpoint (after serializing on
	// ckptMu, before any lock on t.mu — the ckptMu→t.mu order holds): aged
	// versions are released first so this checkpoint neither persists their
	// manifests nor rewrites their overlays.
	t.PruneVersions()
	start := time.Now()

	t.mu.Lock()
	capStart := time.Now()
	c, err := t.captureLocked()
	stall := time.Since(capStart)
	t.mu.Unlock()
	if err == nil && !c.skip {
		err = t.writeExtents(ctx, c)
		t.mu.Lock()
		insStart := time.Now()
		if err == nil {
			err = t.installLocked(c)
		}
		if err != nil {
			t.rollbackLocked(c)
		}
		stall += time.Since(insStart)
		t.mu.Unlock()
	}

	t.metrics.checkpointStallNs.Add(int64(stall))
	if err != nil {
		t.metrics.checkpointFailures.Inc()
		return err
	}
	if c.skip {
		return nil
	}
	var bytes int64
	for i := range c.nodes {
		bytes += int64(len(c.nodes[i].payload))
	}
	t.metrics.checkpoints.Inc()
	t.metrics.checkpointPages.Add(int64(len(c.nodes)))
	t.metrics.checkpointBytes.Add(bytes)
	t.metrics.checkpointLatency.Observe(time.Since(start))
	return nil
}

// Flush writes all dirty nodes and the tree metadata to the store and
// syncs it, using the fuzzy checkpoint protocol. After a successful Flush
// the tree can be reopened with Open. On a WAL-backed tree, Flush is a
// CHECKPOINT: the durable metadata records the log frontier it supersedes
// and superseded log segments are dropped. It is not the durability
// boundary — acknowledged mutations are already safe in the log before
// Flush runs.
func (t *Tree) Flush() error {
	return t.Checkpoint(context.Background())
}

// checkpointer is the background auto-trigger: a WAL-backed tree with
// CheckpointInterval or CheckpointDirtyBytes set checkpoints itself
// without the application calling Flush.
type checkpointer struct {
	t        *Tree
	interval time.Duration
	bytes    int64
	stop     chan struct{}
	done     chan struct{}
}

// startCheckpointer launches the auto-trigger goroutine if either knob is
// set. Called once, before the tree is shared.
func (t *Tree) startCheckpointer() {
	if t.cfg.CheckpointInterval <= 0 && t.cfg.CheckpointDirtyBytes <= 0 {
		return
	}
	cp := &checkpointer{
		t:        t,
		interval: t.cfg.CheckpointInterval,
		bytes:    int64(t.cfg.CheckpointDirtyBytes),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	t.cp = cp
	go cp.run()
}

// run polls until shutdown: on every tick the checkpoint fires if the
// interval elapsed since the last one or the estimated dirty footprint
// (dirty nodes × block size) reached the byte threshold. Failures are
// counted by the checkpoint itself and retried on the next due tick.
func (cp *checkpointer) run() {
	defer close(cp.done)
	const bytePoll = 50 * time.Millisecond
	tick := cp.interval
	if cp.bytes > 0 && (tick <= 0 || tick > bytePoll) {
		tick = bytePoll
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	last := time.Now()
	for {
		select {
		case <-cp.stop:
			return
		case <-ticker.C:
		}
		due := cp.interval > 0 && time.Since(last) >= cp.interval
		if !due && cp.bytes > 0 {
			due = cp.t.nc.dirtyLen()*int64(cp.t.cfg.BlockSize) >= cp.bytes
		}
		if !due {
			continue
		}
		_ = cp.t.Checkpoint(context.Background())
		last = time.Now()
	}
}

// shutdown stops the auto-trigger and waits for an in-flight checkpoint to
// finish.
func (cp *checkpointer) shutdown() {
	close(cp.stop)
	<-cp.done
}

// VerifyError is one damaged extent found by VerifyExtents.
type VerifyError struct {
	// Version is the oldest live version whose table references the
	// extent, 0 when the live tree's does.
	Version uint64
	NodeID  uint64
	Page    storage.PageID
	Blocks  int
	Err     error
}

// VerifyReport summarizes a physical scan of every extent the tree still
// reads from: those the translation table references and those a live
// version pins.
type VerifyReport struct {
	Extents int // extents scanned
	Blocks  int // their length in blocks
	// Mapped counts extents whose checksum was verified through the
	// memory-mapped view path (VerifyOpts.Mmap on a store that maps).
	Mapped int
	Errors []VerifyError // damaged extents, in version and node-ID order
}

// OK reports whether the scan found no damage.
func (r VerifyReport) OK() bool { return len(r.Errors) == 0 }

// VerifyOpts configures VerifyExtentsOpts.
type VerifyOpts struct {
	// Mmap verifies extents through the store's memory-mapped views (the
	// bytes queries actually read zero-copy) instead of plain file reads.
	// Stores without a mapping fall back to the file read per extent.
	Mmap bool
}

// extentVerifier is implemented by stores that can check an extent's
// checksum without decoding (and without polluting a buffer pool).
type extentVerifier interface {
	VerifyExtent(id storage.PageID) (blocks int, err error)
}

// extentViewVerifier is implemented by stores that can force-verify an
// extent through their memory mapping (bypassing the verified-bit cache).
type extentViewVerifier interface {
	VerifyExtentView(id storage.PageID) (blocks int, mapped bool, err error)
}

// VerifyExtents reads every extent referenced by the translation table or
// by a live version's table (the extents the live table has moved off, and
// the version's persisted overlay) and verifies its checksum (on stores
// that carry them; otherwise the read itself is the check). Damage is
// collected, not returned early, so one scan reports every bad extent.
func (t *Tree) VerifyExtents() VerifyReport {
	return t.VerifyExtentsOpts(VerifyOpts{})
}

// VerifyExtentsOpts is VerifyExtents with options (dctool verify -mmap).
func (t *Tree) VerifyExtentsOpts(opts VerifyOpts) VerifyReport {
	// The scan list: the live table in node-ID order, then every live
	// version's tables, oldest first; an extent several tables share is
	// scanned once, under the first.
	var scan []VerifyError
	seen := make(map[storage.PageID]bool)
	add := func(version uint64, table map[nodeID]extentRef) {
		first := len(scan)
		for id, ref := range table {
			if !seen[ref.page] {
				seen[ref.page] = true
				scan = append(scan, VerifyError{Version: version, NodeID: uint64(id), Page: ref.page, Blocks: ref.blocks})
			}
		}
		sort.Slice(scan[first:], func(i, j int) bool { return scan[first+i].NodeID < scan[first+j].NodeID })
	}
	t.mu.RLock()
	add(0, t.table)
	for _, v := range t.liveVersionsLocked() {
		add(v.id, v.table)
		add(v.id, v.ovExtents)
	}
	t.mu.RUnlock()

	var rep VerifyReport
	ev, hasVerify := t.store.(extentVerifier)
	vv, hasView := t.store.(extentViewVerifier)
	for _, e := range scan {
		rep.Extents++
		rep.Blocks += e.Blocks
		switch {
		case opts.Mmap && hasView:
			var mapped bool
			_, mapped, e.Err = vv.VerifyExtentView(e.Page)
			if mapped {
				rep.Mapped++
			}
		case hasVerify:
			_, e.Err = ev.VerifyExtent(e.Page)
		default:
			_, _, e.Err = t.store.Read(e.Page)
		}
		if e.Err != nil {
			rep.Errors = append(rep.Errors, e)
		}
	}
	return rep
}
