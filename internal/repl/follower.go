package repl

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/dcindex/dctree/internal/core"
	"github.com/dcindex/dctree/internal/cube"
	"github.com/dcindex/dctree/internal/obs"
	"github.com/dcindex/dctree/internal/storage"
)

// FollowerOptions configures a Follower. The zero value is usable with a
// Dir: defaults fill in poll cadence and tree configuration.
type FollowerOptions struct {
	// Dir is the follower's home directory: the replica store
	// (replica.dc), the WAL mirror (wal.*.wal) and the replica's
	// checkpoints all live here. Created if absent.
	Dir string
	// ID is the follower's stable identity, sent with every
	// acknowledgment — the primary's quorum registry and retention floor
	// are keyed by it, so two followers must not share an ID and one
	// follower should keep its ID across restarts. Empty selects Dir.
	ID string
	// Config configures the replica tree when bootstrapping a brand-new
	// follower (block size, node capacities …). It should match the
	// primary's; zero fields take core defaults. Ignored when Dir already
	// holds a replica store.
	Config core.Config
	// Poll is the tailing interval. Zero selects DefaultPoll.
	Poll time.Duration
	// CheckpointEvery is the replica checkpoint cadence. Checkpoints bound
	// restart replay and let the mirror prune shipped segments; zero
	// checkpoints only at Promote and Close.
	CheckpointEvery time.Duration
	// PromoteAfter arms the promotion timer: once the source has reported
	// unhealthy for this long continuously, Promotable reports true (the
	// follower never promotes on its own — the operator, or dctool
	// replica -auto-promote, calls Promote). Zero disarms the timer.
	PromoteAfter time.Duration
	// WAL configures the mirror when it is reopened as the promoted
	// tree's write-ahead log.
	WAL storage.WALOptions
	// PoolBytes bounds the replica store's buffer pool (≤ 0 default).
	PoolBytes int
}

// DefaultPoll is the follower's tailing interval when none is configured.
const DefaultPoll = 50 * time.Millisecond

// ackHeartbeat is how often a follower repeats an unchanged acknowledgment
// (same frontier, same epoch) — independent of Poll, so a fast poll does
// not turn into an ack storm on the primary, while a restarted primary
// still relearns its follower's frontier within a second.
const ackHeartbeat = time.Second

// chunkBytes bounds a single shipping read.
const chunkBytes = 256 << 10

// Follower tails a Source into a local replica: mirrored WAL segments
// plus an apply-only tree that serves read-only queries. Create with
// NewFollower, read through Tree, retire with Close — or take over from a
// dead primary with Promote.
type Follower struct {
	src   Source
	opts  FollowerOptions
	store *storage.PagedStore
	sh    *shipper

	mu        sync.Mutex
	tree      *core.Tree // replica; nil after promotion
	promoted  *core.Tree // read-write tree after Promote
	lastErr   error
	downSince time.Time // zero while the source is healthy
	lastCkpt  time.Time
	closed    bool

	// lastAck is the last acknowledgment the source accepted and lastAckAt
	// when; touched only by the tailing loop.
	lastAck   AckInfo
	lastAckAt time.Time

	metrics followerMetrics

	stop    chan struct{}
	done    chan struct{}
	stopped sync.Once
}

// followerMetrics instruments the shipping loop (atomics only — read
// concurrently by Metrics and Families).
type followerMetrics struct {
	segmentsShipped obs.Counter
	bytesShipped    obs.Counter
	recordsApplied  obs.Counter
	resyncs         obs.Counter
	checkpoints     obs.Counter
	promotions      obs.Counter
	lagBytes        obs.Gauge
	lagLSN          obs.Gauge
	healthy         obs.Gauge
}

// Metrics is a point-in-time snapshot of a follower's replication state.
type Metrics struct {
	// AppliedLSN is the replica's applied frontier.
	AppliedLSN uint64
	// MirroredLSN is the highest LSN durably copied into the local mirror
	// (may run ahead of AppliedLSN only transiently within a batch).
	MirroredLSN uint64
	// LagBytes is the source log volume not yet mirrored, from the last
	// completed pass.
	LagBytes int64
	// LagLSN is the record-count lag behind the primary's tip, when the
	// transport knows the tip (0 otherwise).
	LagLSN uint64
	// SegmentsShipped counts mirror segment files begun.
	SegmentsShipped int64
	// BytesShipped counts frame bytes appended to the mirror.
	BytesShipped int64
	// RecordsApplied counts records replayed into the replica tree.
	RecordsApplied int64
	// Resyncs counts listing refreshes forced by segments vanishing
	// mid-read (truncated away on the primary).
	Resyncs int64
	// Checkpoints counts replica checkpoints taken by the follower loop.
	Checkpoints int64
	// Healthy reports the source's last health verdict.
	Healthy bool
	// UnhealthyFor is how long the source has been continuously
	// unhealthy (0 when healthy).
	UnhealthyFor time.Duration
	// Promoted reports whether Promote has completed.
	Promoted bool
}

// NewFollower opens (or bootstraps) the follower state under
// opts.Dir and starts the tailing loop.
//
// Bootstrap: when the directory holds no replica store, the source's
// schema blob builds an empty replica and the log is replayed from its
// oldest retained record — which must cover LSN 1 (primary configured
// with a retention floor from birth) or the bootstrap fails with ErrGap.
// When the directory holds a store (a restarted follower, or an offline
// copy of a primary checkpoint placed there), replay resumes strictly
// past its checkpoint LSN.
func NewFollower(src Source, opts FollowerOptions) (*Follower, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("repl: FollowerOptions.Dir is required")
	}
	if opts.Poll <= 0 {
		opts.Poll = DefaultPoll
	}
	if opts.ID == "" {
		opts.ID = opts.Dir
	}
	if err := opts.Config.Normalize(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	storePath := StorePath(opts.Dir)
	_, statErr := os.Stat(storePath)
	fresh := os.IsNotExist(statErr)

	store, err := storage.OpenPagedStore(storePath, opts.Config.BlockSize, opts.PoolBytes)
	if err != nil {
		return nil, err
	}
	var tree *core.Tree
	if fresh {
		blob, err := src.Schema()
		if err == nil {
			var sch *cube.Schema
			if sch, err = core.DecodeSchema(blob); err == nil {
				tree, err = core.NewReplica(store, sch, opts.Config)
			}
		}
		if err != nil {
			store.Close()
			return nil, fmt.Errorf("repl: bootstrapping replica: %w", err)
		}
	} else {
		tree, err = core.OpenReplica(store)
		if err != nil {
			store.Close()
			return nil, err
		}
	}

	m, err := openMirror(MirrorPrefix(opts.Dir))
	if err == nil {
		// Restart path: fold mirrored records past the checkpoint back in
		// before tailing; ApplyReplicated skips everything already inside.
		err = m.replay(tree.ApplyReplicated)
	}
	if err != nil {
		tree.Close()
		store.Close()
		return nil, err
	}

	f := &Follower{
		src:   src,
		opts:  opts,
		store: store,
		tree:  tree,
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	f.sh = &shipper{
		src:   src,
		m:     m,
		chunk: chunkBytes,
		floor: tree.AppliedLSN() + 1,
		// Epoch seed: the mirror's newest segment, or — when checkpoints
		// pruned the mirror past a promotion point — the replica's
		// persisted epoch. Whichever is higher is what this follower has
		// durably observed.
		epoch: max(m.epoch(), tree.Epoch()),
		apply: tree.ApplyReplicated,
	}
	f.metrics.healthy.Set(1)
	f.lastCkpt = time.Now()
	go f.run()
	return f, nil
}

// StorePath returns the replica store file inside a follower directory.
func StorePath(dir string) string { return filepath.Join(dir, "replica.dc") }

// MirrorPrefix returns the WAL mirror prefix inside a follower directory.
func MirrorPrefix(dir string) string { return filepath.Join(dir, "wal") }

// run is the tailing loop: acknowledge, ship, sync, checkpoint, repeat.
func (f *Follower) run() {
	defer close(f.done)
	t := time.NewTicker(f.opts.Poll)
	defer t.Stop()
	for {
		f.pass()
		select {
		case <-f.stop:
			return
		case <-t.C:
		}
	}
}

// pass performs one shipping pass plus the bookkeeping around it. The
// acknowledgment leads the pass: what one pass mirrored and fsynced is
// confirmed at the head of the next, on the poll tick, as the HTTP
// transport's acks already ride its next listing. A synchronous write is
// thereby released on a tick boundary and costs two poll intervals whatever
// the device does in between; acknowledging at the tail of the shipping
// pass would save one interval and make every such write as long as a tick
// wait plus two fsyncs of that minute's speed (EXPERIMENTS.md, "Group
// commit under fan-in").
func (f *Follower) pass() {
	err := f.acknowledge()
	if err == nil {
		var prog shipProgress
		prog, err = f.sh.runOnce()
		f.note(prog)
		if err == nil && prog.bytes > 0 {
			err = f.sh.m.sync()
		}
	}

	healthy := err == nil && f.src.Healthy()

	f.mu.Lock()
	f.lastErr = err
	if healthy {
		f.downSince = time.Time{}
		f.metrics.healthy.Set(1)
	} else {
		if f.downSince.IsZero() {
			f.downSince = time.Now()
		}
		f.metrics.healthy.Set(0)
	}
	ckpt := err == nil && f.opts.CheckpointEvery > 0 &&
		time.Since(f.lastCkpt) >= f.opts.CheckpointEvery
	if ckpt {
		f.lastCkpt = time.Now()
	}
	tree := f.tree
	f.mu.Unlock()

	if ckpt && tree != nil {
		f.checkpoint(tree)
	}
}

// acknowledge reports the durable mirror frontier to the source: the
// primary may then truncate those records, and this follower can still
// restart from its own mirror. The ack carries this follower's identity and
// epoch; ErrFenced back means the SOURCE is a deposed primary (this follower
// has durably seen a newer timeline). An unchanged ack is repeated only as a
// heartbeat: it tells the primary nothing new, and the primary folds every
// ack in under the lock its synchronous writers wait on.
func (f *Follower) acknowledge() error {
	ack := AckInfo{Follower: f.opts.ID, Epoch: f.sh.epoch, LSN: f.sh.m.syncedLSN()}
	if ack == f.lastAck && time.Since(f.lastAckAt) < ackHeartbeat {
		return nil
	}
	if err := f.src.Ack(ack); err != nil {
		return err
	}
	f.lastAck, f.lastAckAt = ack, time.Now()
	return nil
}

// note folds one pass's progress into the counters and lag gauges.
func (f *Follower) note(prog shipProgress) {
	f.metrics.segmentsShipped.Add(int64(prog.segments))
	f.metrics.bytesShipped.Add(prog.bytes)
	f.metrics.recordsApplied.Add(int64(prog.frames))
	f.metrics.resyncs.Add(int64(prog.resyncs))
	f.metrics.lagBytes.Set(prog.lagBytes)
	if prog.tip > 0 {
		applied := f.AppliedLSN()
		if prog.tip > applied {
			f.metrics.lagLSN.Set(int64(prog.tip - applied))
		} else {
			f.metrics.lagLSN.Set(0)
		}
	}
}

// checkpoint persists the replica (applied frontier included) and prunes
// mirror segments the checkpoint has subsumed. The mirror was fsynced by
// the pass that preceded it, so the checkpoint can never claim records
// the mirror might lose.
func (f *Follower) checkpoint(tree *core.Tree) {
	applied := tree.AppliedLSN()
	if err := tree.Flush(); err != nil {
		f.mu.Lock()
		f.lastErr = err
		f.mu.Unlock()
		return
	}
	f.metrics.checkpoints.Inc()
	if _, err := f.sh.m.prune(applied); err != nil {
		f.mu.Lock()
		f.lastErr = err
		f.mu.Unlock()
	}
}

// Tree returns the replica tree for read-only queries (Execute, Scan,
// VersionByID …). Nil once the follower has been promoted or closed.
func (f *Follower) Tree() *core.Tree {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.tree
}

// AppliedLSN returns the replica's applied frontier (0 after promotion —
// read the promoted tree instead).
func (f *Follower) AppliedLSN() uint64 {
	f.mu.Lock()
	tree := f.tree
	f.mu.Unlock()
	if tree == nil {
		return 0
	}
	return tree.AppliedLSN()
}

// Err returns the most recent shipping error (nil while healthy). ErrGap
// is terminal: the follower must be re-bootstrapped.
func (f *Follower) Err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.lastErr
}

// Healthy reports the source's last health verdict.
func (f *Follower) Healthy() bool { return f.metrics.healthy.Load() == 1 }

// Promotable reports whether the promotion timer has expired: the source
// has been continuously unhealthy for at least PromoteAfter. Always false
// with PromoteAfter zero.
func (f *Follower) Promotable() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.opts.PromoteAfter <= 0 || f.downSince.IsZero() {
		return false
	}
	return time.Since(f.downSince) >= f.opts.PromoteAfter
}

// Metrics snapshots the follower's replication state.
func (f *Follower) Metrics() Metrics {
	f.mu.Lock()
	down := f.downSince
	promoted := f.promoted != nil
	f.mu.Unlock()
	m := Metrics{
		AppliedLSN:      f.AppliedLSN(),
		MirroredLSN:     f.sh.m.syncedLSN(),
		LagBytes:        f.metrics.lagBytes.Load(),
		LagLSN:          uint64(f.metrics.lagLSN.Load()),
		SegmentsShipped: f.metrics.segmentsShipped.Load(),
		BytesShipped:    f.metrics.bytesShipped.Load(),
		RecordsApplied:  f.metrics.recordsApplied.Load(),
		Resyncs:         f.metrics.resyncs.Load(),
		Checkpoints:     f.metrics.checkpoints.Load(),
		Healthy:         f.metrics.healthy.Load() == 1,
		Promoted:        promoted,
	}
	if !down.IsZero() {
		m.UnhealthyFor = time.Since(down)
	}
	return m
}

// Families renders the follower's metrics in Prometheus exposition
// format, complementing the replica tree's own Families.
func (f *Follower) Families() []obs.Family {
	m := f.Metrics()
	healthy := 0.0
	if m.Healthy {
		healthy = 1
	}
	return []obs.Family{
		obs.GaugeFamily("dctree_repl_applied_lsn", "Replica applied frontier (LSN).", float64(m.AppliedLSN)),
		obs.GaugeFamily("dctree_repl_lag_lsn", "Records behind the primary tip (0 when unknown).", float64(m.LagLSN)),
		obs.GaugeFamily("dctree_repl_lag_bytes", "Source log bytes not yet mirrored.", float64(m.LagBytes)),
		obs.CounterFamily("dctree_repl_segments_shipped_total", "Mirror segment files begun.", m.SegmentsShipped),
		obs.CounterFamily("dctree_repl_bytes_shipped_total", "Frame bytes appended to the mirror.", m.BytesShipped),
		obs.CounterFamily("dctree_repl_records_applied_total", "Records replayed into the replica.", m.RecordsApplied),
		obs.CounterFamily("dctree_repl_resyncs_total", "Listing refreshes after a segment vanished mid-read.", m.Resyncs),
		obs.CounterFamily("dctree_repl_checkpoints_total", "Replica checkpoints taken by the follower.", m.Checkpoints),
		obs.CounterFamily("dctree_repl_promotions_total", "Promotions completed (0 or 1).", f.metrics.promotions.Load()),
		obs.GaugeFamily("dctree_repl_source_healthy", "1 while the source reports healthy.", healthy),
	}
}

// Promote turns the follower into a primary: stop tailing, drain whatever
// the source still exposes (best effort — it is usually dead), fsync the
// mirror, checkpoint the replica, and reopen the store read-write with
// the mirror as its write-ahead log. The returned tree owns the follower's
// store; close it with its own Close when done. The follower itself is
// finished — only Metrics and Close remain usable.
//
// Zero acknowledged-write loss: every record the old primary's group
// commit acknowledged was fsynced into its log, and the drain pass reads
// sealed segments in full and the final segment to its last whole frame —
// so the promoted tree contains every acknowledged write that reached the
// transport.
func (f *Follower) Promote() (*core.Tree, error) {
	f.mu.Lock()
	if f.promoted != nil {
		p := f.promoted
		f.mu.Unlock()
		return p, ErrPromoted
	}
	if f.closed || f.tree == nil {
		f.mu.Unlock()
		return nil, fmt.Errorf("repl: promote on a closed follower")
	}
	f.mu.Unlock()

	f.halt()
	// Final drain: pick up anything shipped between the last pass and the
	// primary's death. Errors are expected (the source may be gone).
	if prog, err := f.sh.runOnce(); err == nil {
		f.note(prog)
	}
	if err := f.sh.m.close(); err != nil {
		return nil, err
	}

	f.mu.Lock()
	tree := f.tree
	f.tree = nil
	f.mu.Unlock()
	// Close checkpoints the replica, stamping the applied frontier; the
	// subsequent open replays only mirror records past it (normally none).
	if err := tree.Close(); err != nil {
		return nil, err
	}
	rw, err := core.OpenDurableOpts(f.store, MirrorPrefix(f.opts.Dir), f.opts.WAL)
	if err != nil {
		return nil, err
	}
	// Fence the old timeline before the first write is accepted: bump the
	// epoch and rotate onto a segment stamped with it (durable by
	// creation). From here on the old primary's records are refused by
	// every follower that hears from this tree, and its own write path is
	// poisoned by the first acknowledgment that reaches it.
	if _, err := rw.BumpEpoch(); err != nil {
		rw.Close()
		return nil, err
	}
	f.mu.Lock()
	f.promoted = rw
	f.mu.Unlock()
	f.metrics.promotions.Inc()
	return rw, nil
}

// halt stops the tailing loop (idempotent).
func (f *Follower) halt() {
	f.stopped.Do(func() { close(f.stop) })
	<-f.done
}

// Close stops the follower and closes the replica tree, mirror and store
// (a later NewFollower resumes from them). After promotion, close the
// promoted tree first — Close then only releases the underlying store.
func (f *Follower) Close() error {
	f.halt()
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	tree := f.tree
	f.tree = nil
	f.mu.Unlock()
	var err error
	if f.sh != nil {
		err = f.sh.m.sync()
	}
	if tree != nil {
		if cerr := tree.Close(); err == nil {
			err = cerr
		}
	}
	if f.sh != nil {
		if cerr := f.sh.m.close(); err == nil {
			err = cerr
		}
	}
	if cerr := f.store.Close(); err == nil {
		err = cerr
	}
	return err
}
