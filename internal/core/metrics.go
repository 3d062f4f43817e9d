package core

import (
	"io"
	"time"

	"github.com/dcindex/dctree/internal/mds"
	"github.com/dcindex/dctree/internal/obs"
	"github.com/dcindex/dctree/internal/storage"
)

// treeMetrics is the tree's always-on instrumentation: atomic counters and
// histograms updated on the hot paths (single atomic operations, no locks,
// no allocation) and read by Tree.Metrics. The zero value is ready to use.
//
// Query-side counters are recorded exactly once per query at the Execute
// choke point, never inside the descent, so they stay consistent across
// the serial, parallel, and all-measures paths and across every public
// convenience wrapper.
type treeMetrics struct {
	inserts       obs.Counter
	insertLatency obs.Histogram
	deletes       obs.Counter
	deleteMisses  obs.Counter

	queries      obs.Counter
	queryErrors  obs.Counter
	queryCancels obs.Counter
	queryLatency obs.Histogram
	slowQueries  obs.Counter

	qNodesVisited     obs.Counter
	qEntriesScanned   obs.Counter
	qEntriesPruned    obs.Counter
	qMaterializedHits obs.Counter
	qRecordsMatched   obs.Counter

	// The sharded node cache. (Split, supernode, mask-pool, work-stealing
	// and read-image counters are the index's own: index.Counters.)
	cacheHits         obs.Counter
	cacheMisses       obs.Counter
	cacheFaultsShared obs.Counter

	// Zero-copy read path: descents answered from a flat node view over
	// mapped bytes, and reads that fell back to the heap decode path (the
	// store serves no views).
	flatNodeReads   obs.Counter
	decodeFallbacks obs.Counter

	// Durable write path: WAL appends, fsyncs issued by commit leaders,
	// commit batches with their record totals and high-water size, and
	// records re-applied by OpenDurable recovery.
	walAppends       obs.Counter
	walFsyncs        obs.Counter
	walBatches       obs.Counter
	walBatchRecords  obs.Counter
	walBatchMax      obs.Gauge
	walDictDeltas    obs.Counter
	recoveryReplayed obs.Counter
	// Where an acknowledged write waited: in waitDurable until its record
	// was locally durable, and — under SyncReplication only — from there
	// until the follower quorum confirmed it.
	walCommitWait  obs.Histogram
	replQuorumWait obs.Histogram
	// Replica apply mode: mutation records folded in by ApplyReplicated
	// (dict deltas and version records are bookkeeping, like recovery).
	replicaApplied obs.Counter
	// Synchronous replication: writes that timed out waiting for the
	// follower quorum and were acknowledged on local durability alone.
	replSyncDegraded obs.Counter

	// Fuzzy checkpoints: completed and failed checkpoints, pages (extents)
	// and payload bytes written, nodes re-dirtied during the background
	// write (re-queued for the next round), extent frees deferred past a
	// durable swap, cumulative writer-stall time (the capture and install
	// critical sections only), and end-to-end checkpoint latency.
	checkpoints            obs.Counter
	checkpointFailures     obs.Counter
	checkpointPages        obs.Counter
	checkpointBytes        obs.Counter
	checkpointRequeued     obs.Counter
	checkpointFreeDeferred obs.Counter
	checkpointStallNs      obs.Counter
	checkpointLatency      obs.Histogram

	// MVCC snapshots: versions captured (and, of those, reconstructed by
	// crash recovery), versions released, dirty nodes captured by value into
	// overlays, extent frees parked behind a live version's pin, and as-of
	// queries answered from a version without the tree lock.
	snapshots            obs.Counter
	snapshotsRecovered   obs.Counter
	snapshotReleases     obs.Counter
	snapshotOverlayNodes obs.Counter
	snapshotFreesParked  obs.Counter
	asOfQueries          obs.Counter

	// Durable versions (meta v8): versions released by retention pruning,
	// versions rehydrated from meta manifests at open, and overlay extents
	// (count and payload bytes) written to storage by checkpoint installs.
	versionsPruned        obs.Counter
	versionsRehydrated    obs.Counter
	versionOverlayExtents obs.Counter
	versionOverlayBytes   obs.Counter
}

// Metrics is a point-in-time snapshot of a tree's operational counters,
// latency histograms and the underlying store's I/O accounting. Counters
// accumulate since the Tree value was created (reopening an index starts
// fresh); the snapshot is taken field by field and may be torn by a few
// concurrent events, which is fine for monitoring.
type Metrics struct {
	// Update-path counters.
	Inserts      int64
	Deletes      int64
	DeleteMisses int64 // Delete calls that found no matching record

	// Query-path counters, recorded once per Execute call.
	Queries      int64
	QueryErrors  int64
	QueryCancels int64 // queries aborted by context cancellation/deadline
	SlowQueries  int64 // queries at or above the slow-query threshold

	// Split behavior, by kind (Fig. 5): accepted hierarchy splits,
	// forced overlap-minimal fallback splits, and supernode events.
	SplitsHierarchy   int64
	SplitsForced      int64
	SupernodesCreated int64 // node grew from one block to two
	SupernodesGrown   int64 // supernode gained one more block
	RootSplits        int64 // root splits, i.e. height increments

	// Aggregated query work (sums of QueryStats over all queries).
	QueryNodesVisited     int64
	QueryEntriesScanned   int64
	QueryEntriesPruned    int64
	QueryMaterializedHits int64
	QueryRecordsMatched   int64

	// Sharded node cache: hits resolved under a shard read lock, misses
	// faulted from the store, and misses that piggybacked on another
	// goroutine's in-flight decode (singleflight). CacheHitRatio is
	// CacheHits / (CacheHits + CacheMisses); 0 before any access.
	CacheHits         int64
	CacheMisses       int64
	CacheFaultsShared int64
	CacheHitRatio     float64

	// Query-mask arena pool: queries whose queryCtx was recycled from the
	// pool vs. freshly allocated. MaskPoolHitRatio is hits per query.
	MaskPoolHits     int64
	MaskPoolMisses   int64
	MaskPoolHitRatio float64

	// Work-stealing parallel descent: subtree tasks pushed back onto the
	// shared queue (beyond the root seed) and tasks taken by a worker other
	// than the one that pushed them.
	ParallelTasksSpawned int64
	ParallelTasksStolen  int64

	// Zero-copy read path. FlatNodeReads counts node resolutions served as
	// in-place flat views over extent bytes or a version's overlay payloads;
	// DecodeFallbacks counts uncached resolutions that materialized a heap
	// node instead (the store serves no views). MmapViews,
	// MmapRemaps and MmapFallbacks are the store-side accounting: extent
	// views served from the mapping, mapping rebuilds after file growth, and
	// view requests answered by a plain file read.
	FlatNodeReads   int64
	DecodeFallbacks int64
	// ReadImageBuilds counts read images built for heap directory nodes: a
	// directory is encoded once by the first query that meets it after a
	// mutation (or after it was decoded) and matched in that form until the
	// write path dirties it again.
	ReadImageBuilds int64
	MmapViews       int64
	MmapRemaps      int64
	MmapFallbacks   int64

	// Durable write path (all zero on trees without a WAL). Batch mean is
	// records per group-commit batch; max is the largest batch observed.
	WALAppends              int64
	WALFsyncs               int64
	WALGroupCommitBatchMean float64
	WALGroupCommitBatchMax  int64
	// WALDictDeltas counts dictionary registrations logged as delta
	// entries (record format 2); WALBytesPerRecord is frame bytes written
	// per logical record appended — the compactness signal dcbench -wal
	// compares across record formats.
	WALDictDeltas           int64
	WALBytesPerRecord       float64
	RecoveryReplayedRecords int64
	// WALCommitWait is the time acknowledged writes spent waiting for local
	// durability (leading or sharing an fsync); ReplQuorumWait is the
	// additional wait for the follower quorum, observed only under
	// Config.SyncReplication.
	WALCommitWait  obs.HistogramSnapshot
	ReplQuorumWait obs.HistogramSnapshot
	// WALCommitInterval always reads 0: group commit has no window. Kept
	// for the benchmark's reader until its next revision.
	WALCommitInterval time.Duration

	// Replica apply mode: mutation records applied from the primary's log
	// (ReplicaApplied) and the applied LSN frontier. Zero on non-replicas.
	ReplicaApplied    int64
	ReplicaAppliedLSN uint64

	// Replication fencing and synchronous acknowledgment. FencingEpoch is
	// the tree's current epoch (0 = pre-fencing); ReplSyncDegraded counts
	// synchronous writes that timed out waiting for the follower quorum
	// and fell back to local-durability acknowledgment.
	FencingEpoch     uint64
	ReplSyncDegraded int64

	// Fuzzy checkpoints. CheckpointWriterStallSeconds is the cumulative
	// time writers were excluded by checkpoint critical sections — the
	// capture and install phases only; the gap between it and the latency
	// histogram's sum is exactly what backgrounding the extent writes buys.
	Checkpoints                  int64
	CheckpointFailures           int64
	CheckpointPagesWritten       int64
	CheckpointBytesWritten       int64
	CheckpointRequeuedNodes      int64
	CheckpointDeferredFrees      int64
	CheckpointWriterStallSeconds float64

	// MVCC snapshots. LiveVersions and PinnedExtents are point-in-time
	// gauges; DeferredExtentBlocks is the allocator space currently held
	// back by frees parked behind version pins.
	Snapshots            int64
	SnapshotsRecovered   int64 // versions reconstructed by WAL replay
	SnapshotReleases     int64
	SnapshotOverlayNodes int64 // dirty nodes captured by value at snapshot time
	SnapshotFreesParked  int64 // checkpoint frees parked behind a version pin
	AsOfQueries          int64 // queries answered from a version, lock-free
	LiveVersions         int
	PinnedExtents        int
	DeferredExtentBlocks int
	// Durable versions (meta v8). VersionsPruned counts versions released
	// by retention policy (Config.VersionRetention or dctool -prune);
	// VersionsRehydrated counts versions restored from meta manifests at
	// open; the overlay counters account the version overlay payloads
	// checkpoints wrote to their own storage extents.
	VersionsPruned        int64
	VersionsRehydrated    int64
	VersionOverlayExtents int64
	VersionOverlayBytes   int64

	// MaterializedHitRatio is QueryMaterializedHits / QueryEntriesScanned:
	// the fraction of examined entries answered from a materialized
	// aggregate without descending. PrunedEntryRatio is the analogous
	// fraction discarded without overlap. 0 when nothing was scanned.
	MaterializedHitRatio float64
	PrunedEntryRatio     float64

	// Latency distributions.
	InsertLatency     obs.HistogramSnapshot
	QueryLatency      obs.HistogramSnapshot
	CheckpointLatency obs.HistogramSnapshot

	// Tree shape.
	Records     int64
	Height      int
	CachedNodes int

	// Store is the underlying store's logical I/O accounting;
	// StoreHitRatio is Hits / (Hits + Misses) of the buffer pool (1 for
	// MemStore, which always hits; 0 before any read).
	Store         storage.Stats
	StoreHitRatio float64
}

// Metrics returns a snapshot of the tree's operational metrics.
func (t *Tree) Metrics() Metrics {
	m, ic := &t.metrics, t.ix.Counters()
	s := Metrics{
		Inserts:      m.inserts.Load(),
		Deletes:      m.deletes.Load(),
		DeleteMisses: m.deleteMisses.Load(),

		Queries:      m.queries.Load(),
		QueryErrors:  m.queryErrors.Load(),
		QueryCancels: m.queryCancels.Load(),
		SlowQueries:  m.slowQueries.Load(),

		SplitsHierarchy:   ic.SplitsHierarchy,
		SplitsForced:      ic.SplitsForced,
		SupernodesCreated: ic.SupernodesCreated,
		SupernodesGrown:   ic.SupernodesGrown,
		RootSplits:        ic.RootSplits,

		QueryNodesVisited:     m.qNodesVisited.Load(),
		QueryEntriesScanned:   m.qEntriesScanned.Load(),
		QueryEntriesPruned:    m.qEntriesPruned.Load(),
		QueryMaterializedHits: m.qMaterializedHits.Load(),
		QueryRecordsMatched:   m.qRecordsMatched.Load(),

		CacheHits:         m.cacheHits.Load(),
		CacheMisses:       m.cacheMisses.Load(),
		CacheFaultsShared: m.cacheFaultsShared.Load(),

		MaskPoolHits:   ic.MaskPoolHits,
		MaskPoolMisses: ic.MaskPoolMisses,

		ParallelTasksSpawned: ic.StealSpawned,
		ParallelTasksStolen:  ic.StealStolen,

		FlatNodeReads:   m.flatNodeReads.Load(),
		DecodeFallbacks: m.decodeFallbacks.Load(),
		ReadImageBuilds: ic.ReadImageBuilds,

		WALAppends:              m.walAppends.Load(),
		WALFsyncs:               m.walFsyncs.Load(),
		WALGroupCommitBatchMax:  m.walBatchMax.Load(),
		WALDictDeltas:           m.walDictDeltas.Load(),
		RecoveryReplayedRecords: m.recoveryReplayed.Load(),
		WALCommitWait:           m.walCommitWait.Snapshot(),
		ReplQuorumWait:          m.replQuorumWait.Snapshot(),
		ReplicaApplied:          m.replicaApplied.Load(),
		ReplicaAppliedLSN:       t.AppliedLSN(),
		FencingEpoch:            t.Epoch(),
		ReplSyncDegraded:        m.replSyncDegraded.Load(),

		Checkpoints:                  m.checkpoints.Load(),
		CheckpointFailures:           m.checkpointFailures.Load(),
		CheckpointPagesWritten:       m.checkpointPages.Load(),
		CheckpointBytesWritten:       m.checkpointBytes.Load(),
		CheckpointRequeuedNodes:      m.checkpointRequeued.Load(),
		CheckpointDeferredFrees:      m.checkpointFreeDeferred.Load(),
		CheckpointWriterStallSeconds: float64(m.checkpointStallNs.Load()) / 1e9,

		Snapshots:            m.snapshots.Load(),
		SnapshotsRecovered:   m.snapshotsRecovered.Load(),
		SnapshotReleases:     m.snapshotReleases.Load(),
		SnapshotOverlayNodes: m.snapshotOverlayNodes.Load(),
		SnapshotFreesParked:  m.snapshotFreesParked.Load(),
		AsOfQueries:          m.asOfQueries.Load(),

		VersionsPruned:        m.versionsPruned.Load(),
		VersionsRehydrated:    m.versionsRehydrated.Load(),
		VersionOverlayExtents: m.versionOverlayExtents.Load(),
		VersionOverlayBytes:   m.versionOverlayBytes.Load(),

		InsertLatency:     m.insertLatency.Snapshot(),
		QueryLatency:      m.queryLatency.Snapshot(),
		CheckpointLatency: m.checkpointLatency.Snapshot(),

		Records:     t.Count(),
		Height:      t.Height(),
		CachedNodes: t.CachedNodes(),

		Store: t.store.Stats(),
	}
	if t.viewer != nil {
		vs := t.viewer.ViewStats()
		s.MmapViews = vs.Views
		s.MmapRemaps = vs.Remaps
		s.MmapFallbacks = vs.Fallbacks
	}
	t.vmu.Lock()
	s.LiveVersions = len(t.versions)
	t.vmu.Unlock()
	ps := t.pins.Stats()
	s.PinnedExtents = ps.PinnedExtents
	s.DeferredExtentBlocks = ps.DeferredBlocks
	if s.QueryEntriesScanned > 0 {
		s.MaterializedHitRatio = float64(s.QueryMaterializedHits) / float64(s.QueryEntriesScanned)
		s.PrunedEntryRatio = float64(s.QueryEntriesPruned) / float64(s.QueryEntriesScanned)
	}
	if probes := s.Store.Hits + s.Store.Misses; probes > 0 {
		s.StoreHitRatio = float64(s.Store.Hits) / float64(probes)
	}
	if probes := s.CacheHits + s.CacheMisses; probes > 0 {
		s.CacheHitRatio = float64(s.CacheHits) / float64(probes)
	}
	if probes := s.MaskPoolHits + s.MaskPoolMisses; probes > 0 {
		s.MaskPoolHitRatio = float64(s.MaskPoolHits) / float64(probes)
	}
	if batches := m.walBatches.Load(); batches > 0 {
		s.WALGroupCommitBatchMean = float64(m.walBatchRecords.Load()) / float64(batches)
	}
	if t.wal != nil {
		if ws := t.wal.w.Stats(); ws.Appends > 0 {
			s.WALBytesPerRecord = float64(ws.BytesStored) / float64(ws.Appends)
		}
	}
	return s
}

// Families renders the snapshot as Prometheus metric families under the
// dctree_ namespace.
func (m Metrics) Families() []obs.Family {
	kind := func(k string) []obs.Label { return []obs.Label{{Key: "kind", Value: k}} }
	return []obs.Family{
		obs.CounterFamily("dctree_inserts_total", "Records inserted.", m.Inserts),
		obs.CounterFamily("dctree_deletes_total", "Records deleted.", m.Deletes),
		obs.CounterFamily("dctree_delete_misses_total", "Delete calls that matched no record.", m.DeleteMisses),
		obs.CounterFamily("dctree_queries_total", "Range queries executed (all entrypoints).", m.Queries),
		obs.CounterFamily("dctree_query_errors_total", "Range queries that failed (excluding cancellations).", m.QueryErrors),
		obs.CounterFamily("dctree_query_cancels_total", "Range queries aborted by context cancellation or deadline.", m.QueryCancels),
		obs.CounterFamily("dctree_slow_queries_total", "Queries at or above the slow-query threshold.", m.SlowQueries),
		{
			Name: "dctree_splits_total", Help: "Node splits by kind (Fig. 5).", Type: obs.TypeCounter,
			Samples: []obs.Sample{
				{Labels: kind("hierarchy"), Value: float64(m.SplitsHierarchy)},
				{Labels: kind("forced"), Value: float64(m.SplitsForced)},
			},
		},
		{
			Name: "dctree_supernode_events_total", Help: "Supernode creations and growths.", Type: obs.TypeCounter,
			Samples: []obs.Sample{
				{Labels: kind("created"), Value: float64(m.SupernodesCreated)},
				{Labels: kind("grown"), Value: float64(m.SupernodesGrown)},
			},
		},
		obs.CounterFamily("dctree_root_splits_total", "Root splits (tree height increments).", m.RootSplits),
		obs.CounterFamily("dctree_query_nodes_visited_total", "Nodes visited by range queries.", m.QueryNodesVisited),
		obs.CounterFamily("dctree_query_entries_scanned_total", "Directory and data entries examined by range queries.", m.QueryEntriesScanned),
		obs.CounterFamily("dctree_query_entries_pruned_total", "Directory entries pruned without overlap.", m.QueryEntriesPruned),
		obs.CounterFamily("dctree_query_materialized_hits_total", "Directory entries answered from materialized aggregates.", m.QueryMaterializedHits),
		obs.CounterFamily("dctree_query_records_matched_total", "Data records individually matched by range queries.", m.QueryRecordsMatched),
		obs.CounterFamily("dctree_node_cache_hits_total", "Node reads served by the sharded in-memory cache.", m.CacheHits),
		obs.CounterFamily("dctree_node_cache_misses_total", "Node reads faulted from the store.", m.CacheMisses),
		obs.CounterFamily("dctree_node_cache_shared_faults_total", "Cache misses that piggybacked on another goroutine's in-flight decode.", m.CacheFaultsShared),
		obs.GaugeFamily("dctree_node_cache_hit_ratio", "Sharded node cache hits per access.", m.CacheHitRatio),
		obs.CounterFamily("dctree_mask_pool_hits_total", "Queries whose membership-mask arena was recycled from the pool.", m.MaskPoolHits),
		obs.CounterFamily("dctree_mask_pool_misses_total", "Queries that allocated a fresh membership-mask arena.", m.MaskPoolMisses),
		obs.GaugeFamily("dctree_mask_pool_hit_ratio", "Mask-arena pool hits per query.", m.MaskPoolHitRatio),
		obs.CounterFamily("dctree_parallel_tasks_spawned_total", "Subtree tasks pushed onto the shared work-stealing queue.", m.ParallelTasksSpawned),
		obs.CounterFamily("dctree_parallel_tasks_stolen_total", "Subtree tasks executed by a worker other than the one that pushed them.", m.ParallelTasksStolen),
		obs.CounterFamily("dctree_flat_node_reads_total", "Node resolutions served as zero-copy flat views over mapped extents.", m.FlatNodeReads),
		obs.CounterFamily("dctree_decode_fallback_total", "Uncached node resolutions that materialized a heap node instead of a flat view.", m.DecodeFallbacks),
		obs.CounterFamily("dctree_read_image_builds_total", "Read images (flat encodings) built for heap directory nodes.", m.ReadImageBuilds),
		obs.CounterFamily("dctree_mmap_views_total", "Extent views served from the store's memory mapping.", m.MmapViews),
		obs.CounterFamily("dctree_mmap_remap_total", "Memory-mapping rebuilds after backing-file growth.", m.MmapRemaps),
		obs.CounterFamily("dctree_mmap_fallback_total", "Extent view requests answered by a plain file read.", m.MmapFallbacks),
		obs.CounterFamily("dctree_wal_appends_total", "Logical records appended to the write-ahead log.", m.WALAppends),
		obs.CounterFamily("dctree_wal_fsyncs_total", "WAL fsyncs issued by commit leaders (one per group-commit batch).", m.WALFsyncs),
		{
			Name: "dctree_wal_group_commit_batch_size", Help: "Records per group-commit batch.", Type: obs.TypeGauge,
			Samples: []obs.Sample{
				{Labels: []obs.Label{{Key: "stat", Value: "mean"}}, Value: m.WALGroupCommitBatchMean},
				{Labels: []obs.Label{{Key: "stat", Value: "max"}}, Value: float64(m.WALGroupCommitBatchMax)},
			},
		},
		obs.CounterFamily("dctree_wal_dict_deltas_total", "Dictionary registrations logged as WAL delta entries (record format 2).", m.WALDictDeltas),
		obs.GaugeFamily("dctree_wal_bytes_per_record", "Frame bytes written to the WAL per logical record appended.", m.WALBytesPerRecord),
		obs.CounterFamily("dctree_recovery_replayed_records_total", "WAL records re-applied by OpenDurable crash recovery.", m.RecoveryReplayedRecords),
		obs.HistogramFamily("dctree_wal_commit_wait_seconds", "Time an acknowledged write waited for local durability (leading or sharing an fsync).", m.WALCommitWait),
		obs.HistogramFamily("dctree_repl_quorum_wait_seconds", "Additional time a synchronous write waited for the follower quorum after local durability.", m.ReplQuorumWait),
		obs.CounterFamily("dctree_replica_applied_records_total", "Mutation records applied from the primary's log in replica mode.", m.ReplicaApplied),
		obs.GaugeFamily("dctree_replica_applied_lsn", "Replica applied-LSN frontier (0 on non-replicas).", float64(m.ReplicaAppliedLSN)),
		obs.GaugeFamily("dctree_fencing_epoch", "Replication fencing epoch (0 = pre-fencing, bumped by every promotion).", float64(m.FencingEpoch)),
		obs.CounterFamily("dctree_repl_sync_degraded_total", "Synchronous writes acknowledged on local durability after the follower-quorum wait timed out.", m.ReplSyncDegraded),
		obs.CounterFamily("dctree_checkpoints_total", "Checkpoints completed (Flush, Checkpoint, or the auto-trigger).", m.Checkpoints),
		obs.CounterFamily("dctree_checkpoint_failures_total", "Checkpoints that failed and rolled back.", m.CheckpointFailures),
		obs.CounterFamily("dctree_checkpoint_pages_written_total", "Node extents written by checkpoints.", m.CheckpointPagesWritten),
		obs.CounterFamily("dctree_checkpoint_bytes_written_total", "Node payload bytes written by checkpoints.", m.CheckpointBytesWritten),
		obs.CounterFamily("dctree_checkpoint_requeued_nodes_total", "Nodes re-dirtied during a background checkpoint write and kept queued.", m.CheckpointRequeuedNodes),
		obs.CounterFamily("dctree_checkpoint_deferred_frees_total", "Extent frees that failed after a durable swap and were retried later.", m.CheckpointDeferredFrees),
		{
			Name: "dctree_checkpoint_writer_stall_seconds_total", Help: "Cumulative time writers were excluded by checkpoint critical sections.", Type: obs.TypeCounter,
			Samples: []obs.Sample{{Value: m.CheckpointWriterStallSeconds}},
		},
		obs.HistogramFamily("dctree_checkpoint_duration_seconds", "End-to-end checkpoint latency.", m.CheckpointLatency),
		obs.CounterFamily("dctree_snapshots_total", "MVCC versions captured (Snapshot calls plus recovery reconstructions).", m.Snapshots),
		obs.CounterFamily("dctree_snapshots_recovered_total", "MVCC versions reconstructed by WAL replay.", m.SnapshotsRecovered),
		obs.CounterFamily("dctree_snapshot_releases_total", "MVCC versions released (pins dropped, parked frees executed).", m.SnapshotReleases),
		obs.CounterFamily("dctree_snapshot_overlay_nodes_total", "Dirty nodes captured by value into snapshot overlays.", m.SnapshotOverlayNodes),
		obs.CounterFamily("dctree_snapshot_frees_parked_total", "Checkpoint extent frees parked behind a live version's pin.", m.SnapshotFreesParked),
		obs.CounterFamily("dctree_asof_queries_total", "Queries answered from an MVCC version without the tree lock.", m.AsOfQueries),
		obs.CounterFamily("dctree_versions_pruned_total", "MVCC versions released by the retention policy.", m.VersionsPruned),
		obs.CounterFamily("dctree_versions_rehydrated_total", "MVCC versions restored from meta manifests at open.", m.VersionsRehydrated),
		obs.CounterFamily("dctree_version_overlay_extents_total", "Version overlay extents written to storage by checkpoints.", m.VersionOverlayExtents),
		obs.CounterFamily("dctree_version_overlay_bytes_total", "Version overlay payload bytes written to storage by checkpoints.", m.VersionOverlayBytes),
		obs.GaugeFamily("dctree_live_versions", "MVCC versions currently live.", float64(m.LiveVersions)),
		obs.GaugeFamily("dctree_pinned_extents", "Storage extents pinned by live versions.", float64(m.PinnedExtents)),
		obs.GaugeFamily("dctree_deferred_extent_blocks", "Allocator blocks held back by frees parked behind version pins.", float64(m.DeferredExtentBlocks)),
		obs.GaugeFamily("dctree_materialized_hit_ratio", "Materialized hits per entry scanned.", m.MaterializedHitRatio),
		obs.GaugeFamily("dctree_pruned_entry_ratio", "Pruned entries per entry scanned.", m.PrunedEntryRatio),
		obs.HistogramFamily("dctree_insert_duration_seconds", "Single-record insert latency.", m.InsertLatency),
		obs.HistogramFamily("dctree_query_duration_seconds", "Range query latency (all entrypoints).", m.QueryLatency),
		obs.GaugeFamily("dctree_records", "Live data records.", float64(m.Records)),
		obs.GaugeFamily("dctree_height", "Tree height (1 = the root is a data node).", float64(m.Height)),
		obs.GaugeFamily("dctree_cached_nodes", "Nodes resident in the in-memory cache.", float64(m.CachedNodes)),
		obs.CounterFamily("dctree_store_reads_total", "Logical extent reads at the store interface.", m.Store.Reads),
		obs.CounterFamily("dctree_store_writes_total", "Logical extent writes at the store interface.", m.Store.Writes),
		obs.CounterFamily("dctree_store_allocs_total", "Extent allocations.", m.Store.Allocs),
		obs.CounterFamily("dctree_store_frees_total", "Extent frees.", m.Store.Frees),
		obs.CounterFamily("dctree_store_pool_hits_total", "Reads served by the buffer pool.", m.Store.Hits),
		obs.CounterFamily("dctree_store_pool_misses_total", "Reads faulted from the backing file.", m.Store.Misses),
		obs.CounterFamily("dctree_store_bytes_read_total", "Payload bytes read.", m.Store.BytesRead),
		obs.CounterFamily("dctree_store_bytes_written_total", "Payload bytes written.", m.Store.BytesWritten),
		obs.GaugeFamily("dctree_store_pool_hit_ratio", "Buffer-pool hits per read probe.", m.StoreHitRatio),
	}
}

// WriteProm writes the snapshot in the Prometheus text exposition format.
func (m Metrics) WriteProm(w io.Writer) error {
	return obs.WriteProm(w, m.Families())
}

// SlowQueryEvent is handed to the slow-query hook for every query whose
// wall-clock latency reaches the configured threshold.
type SlowQueryEvent struct {
	// Query is a copy of the query MDS (safe to retain).
	Query mds.MDS
	// Elapsed is the query's wall-clock duration.
	Elapsed time.Duration
	// Stats is the work the query performed.
	Stats QueryStats
}

// slowQueryHook pairs the threshold with the callback; stored behind an
// atomic pointer so the hot path is one pointer load when disabled.
type slowQueryHook struct {
	threshold time.Duration
	fn        func(SlowQueryEvent)
}

// SetSlowQueryHook installs a slow-query log hook: every query (any
// entrypoint — they all funnel through Execute) whose latency is ≥
// threshold increments the SlowQueries counter and, if fn is non-nil,
// invokes fn synchronously on the query path with the query MDS, latency
// and work counters. Keep fn fast or hand off to a channel. A negative
// threshold removes the hook. Safe to call concurrently with queries.
func (t *Tree) SetSlowQueryHook(threshold time.Duration, fn func(SlowQueryEvent)) {
	if threshold < 0 {
		t.slowHook.Store(nil)
		return
	}
	t.slowHook.Store(&slowQueryHook{threshold: threshold, fn: fn})
}
