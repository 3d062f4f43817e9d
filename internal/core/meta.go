package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"github.com/dcindex/dctree/internal/cube"
	"github.com/dcindex/dctree/internal/hierarchy"
	"github.com/dcindex/dctree/internal/index"
	"github.com/dcindex/dctree/internal/mds"
	"github.com/dcindex/dctree/internal/storage"
)

// Tree metadata blob: everything needed to reopen a persisted DC-tree —
// configuration, the cube schema including the full dimension dictionaries
// (the index is meaningless without them), the root pointer, and the
// logical-node translation table.

// One layout is written and read, under the magic "DCMETA09"; every word
// of it is a field decodeMeta keeps. A blob of an earlier generation
// ("DCMETA01"–"08": other node encodings, other words) is refused by its
// magic, undecoded.
const metaMagic = "DCMETA09"

// versionManifest is the durable image of one live MVCC version:
// everything rehydration needs to rebuild the Version handle without the
// WAL — identity and snapshot point, capture time, tree shape at capture,
// and a translation table in which nodes that were dirty at capture point
// at the overlay extents the checkpoint wrote instead of the live table's
// extents.
type versionManifest struct {
	id      uint64
	lsn     uint64
	created int64 // capture time, Unix nanoseconds
	root    nodeID
	rootMDS mds.MDS
	height  int
	count   int64
	table   map[nodeID]extentRef
}

// metaSnapshot is the tree-shape half of the metadata blob, captured under
// the tree lock so a fuzzy checkpoint can encode and swap it while the
// live fields keep moving. The schema and config are not part of it: the
// config is immutable after New/Open, and the dictionaries only grow — a
// superset of the dictionaries at capture time decodes every captured
// node.
type metaSnapshot struct {
	root          nodeID
	rootMDS       mds.MDS
	height        int
	count         int64
	nextID        nodeID
	checkpointLSN uint64
	// MVCC version stamps (meta v5): the version-number mint and the most
	// recent snapshot's identity, so numbers never repeat across restarts
	// and tooling can report the last version even before recovery
	// reconstructs it.
	versionSeq       uint64
	latestVersionID  uint64
	latestVersionLSN uint64
	// epoch is the replication fencing epoch (meta v7): bumped by every
	// promotion, checked by followers and ApplyReplicated so a deposed
	// primary's stale log can never be folded back in.
	epoch uint64
	table map[nodeID]extentRef
	// versions and deferred are the durable MVCC state (meta v8): one
	// manifest per live version, and the pin ledger's parked frees as they
	// will stand the instant the swap lands. Both are assembled by the
	// checkpoint install (capture provides the manifests, install finalizes
	// them and computes the parked-free list), not by metaSnapshotLocked.
	versions []versionManifest
	deferred []storage.Extent
}

// metaSnapshotLocked copies the mutable metadata fields. Caller holds t.mu.
func (t *Tree) metaSnapshotLocked() metaSnapshot {
	table := make(map[nodeID]extentRef, len(t.table))
	for id, ref := range t.table {
		table[id] = ref
	}
	return metaSnapshot{
		root:             t.ix.Root(),
		rootMDS:          t.ix.RootMDS().Clone(),
		height:           t.ix.Height(),
		count:            t.ix.Count(),
		nextID:           t.nextID,
		checkpointLSN:    t.checkpointLSN,
		versionSeq:       t.versionSeq,
		latestVersionID:  t.latestVersionID,
		latestVersionLSN: t.latestVersionLSN,
		epoch:            t.epoch,
		table:            table,
	}
}

// encodeMeta serializes the metadata blob from a snapshot of the mutable
// fields plus the live (immutable or grow-only) config and schema. Must be
// called under t.mu: dictionary registrations race with encoding otherwise.
func (t *Tree) encodeMeta(snap metaSnapshot) ([]byte, error) {
	buf := []byte(metaMagic)

	// Config.
	buf = binary.AppendUvarint(buf, uint64(t.cfg.BlockSize))
	buf = binary.AppendUvarint(buf, uint64(t.cfg.DirCapacity))
	buf = binary.AppendUvarint(buf, uint64(t.cfg.LeafCapacity))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(t.cfg.MinFillRatio))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(t.cfg.MaxOverlapRatio))
	buf = binary.AppendUvarint(buf, uint64(t.cfg.MaxSupernodeBlocks))
	buf = binary.AppendVarint(buf, int64(t.cfg.RefineBound))
	var flags byte
	if t.cfg.Materialize {
		flags |= 1
	}
	if t.cfg.DisableSupernodes {
		flags |= 2
	}
	if t.cfg.FlatChooseSubtree {
		flags |= 4
	}
	buf = append(buf, flags)
	buf = binary.AppendVarint(buf, int64(t.cfg.CheckpointInterval))
	buf = binary.AppendUvarint(buf, uint64(t.cfg.CheckpointDirtyBytes))
	buf = binary.AppendVarint(buf, int64(t.cfg.VersionRetention.KeepLast))
	buf = binary.AppendVarint(buf, int64(t.cfg.VersionRetention.MaxAge))

	// Tree shape.
	buf = binary.AppendUvarint(buf, uint64(snap.root))
	buf = binary.AppendUvarint(buf, uint64(snap.height))
	buf = binary.AppendVarint(buf, snap.count)
	buf = binary.AppendUvarint(buf, uint64(snap.nextID))
	buf = binary.AppendUvarint(buf, snap.checkpointLSN)
	buf = binary.AppendUvarint(buf, snap.versionSeq)
	buf = binary.AppendUvarint(buf, snap.latestVersionID)
	buf = binary.AppendUvarint(buf, snap.latestVersionLSN)
	buf = binary.AppendUvarint(buf, snap.epoch)
	buf = snap.rootMDS.AppendEncode(buf)

	// Schema: dimensions with full dictionaries, then measure names.
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

	buf = appendExtentTable(buf, snap.table)

	// Durable MVCC versions: one manifest per live version, then the
	// pin ledger's parked frees. Rehydration pins every manifest-table
	// extent first and re-parks the frees behind those pins second, so the
	// reopened ledger matches the one this blob was written under.
	buf = binary.AppendUvarint(buf, uint64(len(snap.versions)))
	for i := range snap.versions {
		m := &snap.versions[i]
		buf = binary.AppendUvarint(buf, m.id)
		buf = binary.AppendUvarint(buf, m.lsn)
		buf = binary.AppendVarint(buf, m.created)
		buf = binary.AppendUvarint(buf, uint64(m.root))
		buf = binary.AppendUvarint(buf, uint64(m.height))
		buf = binary.AppendVarint(buf, m.count)
		buf = m.rootMDS.AppendEncode(buf)
		buf = appendExtentTable(buf, m.table)
	}
	buf = binary.AppendUvarint(buf, uint64(len(snap.deferred)))
	for _, e := range snap.deferred {
		buf = binary.AppendUvarint(buf, uint64(e.Page))
		buf = binary.AppendUvarint(buf, uint64(e.Blocks))
	}
	return buf, nil
}

// appendExtentTable serializes one node→extent table (the translation
// table or a version manifest's); decodeExtentTable is its inverse.
func appendExtentTable(buf []byte, table map[nodeID]extentRef) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(table)))
	for id, ref := range table {
		buf = binary.AppendUvarint(buf, uint64(id))
		buf = binary.AppendUvarint(buf, uint64(ref.page))
		buf = binary.AppendUvarint(buf, uint64(ref.blocks))
	}
	return buf
}

// Open reopens a DC-tree persisted by Flush on the given store.
func Open(store storage.Store) (*Tree, error) {
	meta, err := store.GetMeta()
	if err != nil {
		return nil, fmt.Errorf("dctree: reading metadata: %w", err)
	}
	t, err := decodeMeta(meta)
	if err != nil {
		return nil, err
	}
	if t.cfg.BlockSize != store.BlockSize() {
		return nil, fmt.Errorf("%w: tree block size %d != store block size %d",
			ErrCorrupt, t.cfg.BlockSize, store.BlockSize())
	}
	t.store = store
	t.viewer, _ = store.(storage.ExtentViewer)
	return t, nil
}

// decodeMeta parses a metadata blob into a store-less Tree. Split out of
// Open so corrupt-input tests and the fuzz target can exercise the decoder
// directly: arbitrary bytes must yield ErrCorrupt — or, for a blob of a
// retired generation, ErrUnsupportedFormat — never a panic.
func decodeMeta(meta []byte) (*Tree, error) {
	if len(meta) < len(metaMagic) {
		return nil, fmt.Errorf("%w: bad metadata magic", ErrCorrupt)
	}
	switch magic := string(meta[:len(metaMagic)]); {
	case magic == metaMagic:
	case magic >= "DCMETA01" && magic < metaMagic:
		return nil, fmt.Errorf("%w: metadata magic %s", ErrUnsupportedFormat, magic)
	default:
		return nil, fmt.Errorf("%w: bad metadata magic", ErrCorrupt)
	}
	r := metaReader{buf: meta, off: len(metaMagic)}

	var cfg Config
	cfg.BlockSize = int(r.uvarint())
	cfg.DirCapacity = int(r.uvarint())
	cfg.LeafCapacity = int(r.uvarint())
	cfg.MinFillRatio = r.float64()
	cfg.MaxOverlapRatio = r.float64()
	cfg.MaxSupernodeBlocks = int(r.uvarint())
	cfg.RefineBound = int(r.varint())
	flags := r.byte()
	cfg.Materialize = flags&1 != 0
	cfg.DisableSupernodes = flags&2 != 0
	cfg.FlatChooseSubtree = flags&4 != 0
	cfg.CheckpointInterval = time.Duration(r.varint())
	cfg.CheckpointDirtyBytes = int(r.uvarint())
	cfg.VersionRetention.KeepLast = int(r.varint())
	cfg.VersionRetention.MaxAge = time.Duration(r.varint())

	root := nodeID(r.uvarint())
	height := int(r.uvarint())
	count := r.varint()
	nextID := nodeID(r.uvarint())
	checkpointLSN := r.uvarint()
	versionSeq := r.uvarint()
	latestVersionID := r.uvarint()
	latestVersionLSN := r.uvarint()
	epoch := r.uvarint()
	if r.err != nil {
		return nil, fmt.Errorf("%w: metadata header: %v", ErrCorrupt, r.err)
	}
	rootMDS, n, err := mds.Decode(r.buf[r.off:])
	if err != nil {
		return nil, fmt.Errorf("%w: root mds: %v", ErrCorrupt, err)
	}
	r.off += n

	dims := int(r.uvarint())
	if r.err != nil || dims < 1 || dims > 64 {
		return nil, fmt.Errorf("%w: dimension count", ErrCorrupt)
	}
	hs := make([]*hierarchy.Hierarchy, dims)
	for i := range hs {
		h, n, err := hierarchy.DecodeHierarchy(r.buf[r.off:])
		if err != nil {
			return nil, fmt.Errorf("%w: dimension %d: %v", ErrCorrupt, i, err)
		}
		hs[i] = h
		r.off += n
	}
	nMeasures := int(r.uvarint())
	if r.err != nil || nMeasures < 1 || nMeasures > 256 {
		return nil, fmt.Errorf("%w: measure count", ErrCorrupt)
	}
	measures := make([]string, nMeasures)
	for j := range measures {
		measures[j] = r.string()
	}
	schema, err := cube.NewSchema(hs, measures...)
	if err != nil {
		return nil, err
	}

	table, err := decodeExtentTable(&r)
	if err != nil {
		return nil, fmt.Errorf("translation %w", err)
	}

	// Durable MVCC version manifests and the parked-free list.
	nVersions := r.uvarint()
	// A manifest takes at least a handful of bytes; a count beyond the
	// remaining input is corrupt, checked before it sizes anything.
	if r.err == nil && nVersions > uint64(len(r.buf)-r.off) {
		return nil, fmt.Errorf("%w: version manifest count %d", ErrCorrupt, nVersions)
	}
	manifests := make([]versionManifest, 0, int(nVersions))
	for i := uint64(0); i < nVersions; i++ {
		var m versionManifest
		m.id = r.uvarint()
		m.lsn = r.uvarint()
		m.created = r.varint()
		m.root = nodeID(r.uvarint())
		m.height = int(r.uvarint())
		m.count = r.varint()
		if r.err != nil {
			return nil, fmt.Errorf("%w: version manifest %d: %v", ErrCorrupt, i, r.err)
		}
		if m.id == 0 {
			return nil, fmt.Errorf("%w: version manifest %d has id 0", ErrCorrupt, i)
		}
		vm, n, err := mds.Decode(r.buf[r.off:])
		if err != nil {
			return nil, fmt.Errorf("%w: version %d root mds: %v", ErrCorrupt, m.id, err)
		}
		m.rootMDS = vm
		r.off += n
		m.table, err = decodeExtentTable(&r)
		if err != nil {
			return nil, fmt.Errorf("version %d %w", m.id, err)
		}
		if _, ok := m.table[m.root]; !ok {
			return nil, fmt.Errorf("%w: version %d root node %d missing from manifest", ErrCorrupt, m.id, m.root)
		}
		manifests = append(manifests, m)
	}
	nDeferred := r.uvarint()
	if r.err == nil && nDeferred > uint64(len(r.buf)-r.off) {
		return nil, fmt.Errorf("%w: deferred free count %d", ErrCorrupt, nDeferred)
	}
	var deferred []storage.Extent
	for i := uint64(0); i < nDeferred; i++ {
		page := storage.PageID(r.uvarint())
		blocks := int(r.uvarint())
		deferred = append(deferred, storage.Extent{Page: page, Blocks: blocks})
	}
	if r.err != nil {
		return nil, fmt.Errorf("%w: metadata body: %v", ErrCorrupt, r.err)
	}

	if err := cfg.Normalize(); err != nil {
		return nil, err
	}
	// New persists the count it resolved; only a damaged blob says 0.
	cfg.resolveLeafCapacity(schema)
	t := &Tree{
		schema:           schema,
		cfg:              cfg,
		nextID:           nextID,
		checkpointLSN:    checkpointLSN,
		versionSeq:       versionSeq,
		latestVersionID:  latestVersionID,
		latestVersionLSN: latestVersionLSN,
		epoch:            epoch,
		table:            table,
		nc:               newNodeCache(),
		versions:         make(map[uint64]*Version),
		pins:             storage.NewPins(),
	}
	t.ix = index.Restore(schema, cfg.Config, t.nodes(), root, rootMDS, height, count)
	if _, ok := t.table[root]; !ok {
		return nil, fmt.Errorf("%w: root node %d missing from table", ErrCorrupt, root)
	}
	t.rehydrateVersions(manifests, deferred)
	return t, nil
}

// decodeExtentTable parses one node→extent table (the main translation
// table or a version manifest's). The entry count is validated against the
// remaining input before it sizes the map.
func decodeExtentTable(r *metaReader) (map[nodeID]extentRef, error) {
	tableLen64 := r.uvarint()
	if r.err == nil && tableLen64 > uint64(len(r.buf)-r.off) {
		return nil, fmt.Errorf("%w: table length %d", ErrCorrupt, tableLen64)
	}
	tableLen := int(tableLen64)
	table := make(map[nodeID]extentRef, tableLen)
	for i := 0; i < tableLen; i++ {
		id := nodeID(r.uvarint())
		page := storage.PageID(r.uvarint())
		blocks := int(r.uvarint())
		table[id] = extentRef{page: page, blocks: blocks}
	}
	if r.err != nil {
		return nil, fmt.Errorf("%w: table body: %v", ErrCorrupt, r.err)
	}
	return table, nil
}

// rehydrateVersions rebuilds the live Version handles from the metadata's
// manifests and restores the pin ledger: every manifest-table extent
// is pinned FIRST, then the persisted parked frees re-park behind those
// pins (Pin refuses a page whose free is already deferred, so the order
// matters). A parked free whose extent no pinned table references any
// longer goes straight to the pending-free list and is returned to the
// allocator by the next durable swap. Runs during Open, before any WAL
// replay — recovery's version records all carry LSNs past the checkpoint,
// so the two sources never overlap.
func (t *Tree) rehydrateVersions(manifests []versionManifest, deferred []storage.Extent) {
	for i := range manifests {
		m := &manifests[i]
		v := &Version{
			t:       t,
			id:      m.id,
			lsn:     m.lsn,
			created: time.Unix(0, m.created),
			root:    m.root,
			rootMDS: m.rootMDS,
			height:  m.height,
			count:   m.count,
			table:   m.table,
			overlay: make(map[nodeID][]byte),
			nc:      newNodeCache(),
		}
		v.refs.Store(1)
		// The manifest table already merges the overlay extents, so the
		// rehydrated version reads everything from storage; persisted is
		// latched so the next checkpoint only re-encodes the manifest.
		v.persisted.Store(true)
		v.pinned = make([]storage.PageID, 0, len(m.table))
		for _, ref := range m.table {
			if t.pins.Pin(ref.page) {
				v.pinned = append(v.pinned, ref.page)
			}
		}
		v.pinCount.Store(int64(len(v.pinned)))
		t.versions[m.id] = v
		if m.id > t.versionSeq {
			t.versionSeq = m.id
		}
		t.metrics.versionsRehydrated.Inc()
	}
	for _, e := range deferred {
		if !t.pins.FreeOrDefer(e.Page, e.Blocks) {
			t.pendingFree = append(t.pendingFree, extentRef{page: e.Page, blocks: e.Blocks})
		}
	}
}

// metaReader is a cursor over the metadata blob with sticky errors.
type metaReader struct {
	buf []byte
	off int
	err error
}

func (r *metaReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.err = fmt.Errorf("bad uvarint at %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *metaReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.err = fmt.Errorf("bad varint at %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *metaReader) float64() float64 {
	if r.err != nil {
		return 0
	}
	if len(r.buf)-r.off < 8 {
		r.err = fmt.Errorf("truncated float at %d", r.off)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.buf[r.off:]))
	r.off += 8
	return v
}

func (r *metaReader) byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.buf) {
		r.err = fmt.Errorf("truncated byte at %d", r.off)
		return 0
	}
	b := r.buf[r.off]
	r.off++
	return b
}

func (r *metaReader) string() string {
	l := r.uvarint()
	if r.err != nil {
		return ""
	}
	// Compare in uint64: a corrupt length above MaxInt64 converted to int
	// first would go negative, sail past a `remaining < l` check, and panic
	// on the negative slice bound below. Corrupt input must fail closed.
	if l > uint64(len(r.buf)-r.off) {
		r.err = fmt.Errorf("truncated string at %d", r.off)
		return ""
	}
	s := string(r.buf[r.off : r.off+int(l)])
	r.off += int(l)
	return s
}
