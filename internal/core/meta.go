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

// One layout is written and read, under the magic "DCMETA12"; every word
// of it but the retired directory capacity is a field decodeMeta keeps. A
// blob of an earlier generation ("DCMETA01"–"11": other node encodings,
// other words) is refused by its magic, undecoded. "DCMETA10" wrote each
// data-node code at its dimension's width but every measure as an f64, and
// float aggregates; "DCMETA11" writes each measure as units of its declared
// scale at its width, the aggregates in units, and the scales in the
// schema, but each dictionary value as a 4-byte parent ID and its whole
// name; "DCMETA12" writes the value's parent as a uvarint code and its name
// front-coded (hierarchy.AppendEncode).
const metaMagic = "DCMETA12"

// metaFlags is the config flags byte every blob is written with: bit 1,
// once the switch of the materialized aggregates, which are always kept.
const metaFlags = 1

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
	head    index.Head
	table   map[nodeID]extentRef
}

// metaSnapshot is the tree-shape half of the metadata blob, captured under
// the tree lock so a fuzzy checkpoint can encode and swap it while the
// live fields keep moving. The schema and config are not part of it: the
// config is immutable after New/Open, and the dictionaries only grow — a
// superset of the dictionaries at capture time decodes every captured
// node.
type metaSnapshot struct {
	head          index.Head
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
		head:             t.ix.Head(),
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
	buf = append(buf, 0) // the retired directory capacity, skipped on read
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(t.cfg.MinFillRatio))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(t.cfg.MaxOverlapRatio))
	buf = binary.AppendUvarint(buf, uint64(t.cfg.MaxSupernodeBlocks))
	buf = binary.AppendVarint(buf, int64(t.cfg.RefineBound))
	buf = append(buf, metaFlags)
	buf = binary.AppendVarint(buf, int64(t.cfg.CheckpointInterval))
	buf = binary.AppendUvarint(buf, uint64(t.cfg.CheckpointDirtyBytes))
	buf = binary.AppendVarint(buf, int64(t.cfg.VersionRetention.KeepLast))
	buf = binary.AppendVarint(buf, int64(t.cfg.VersionRetention.MaxAge))

	// Tree shape, with the live tree's counters between it and its root MDS.
	buf = appendHead(buf, snap.head, uint64(snap.nextID), snap.checkpointLSN,
		snap.versionSeq, snap.latestVersionID, snap.latestVersionLSN, snap.epoch)
	buf, err := appendSchema(buf, t.schema)
	if err != nil {
		return nil, err
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
		buf = appendHead(buf, m.head)
		buf = appendExtentTable(buf, m.table)
	}
	buf = binary.AppendUvarint(buf, uint64(len(snap.deferred)))
	for _, e := range snap.deferred {
		buf = binary.AppendUvarint(buf, uint64(e.Page))
		buf = binary.AppendUvarint(buf, uint64(e.Blocks))
	}
	return buf, nil
}

// appendHead serializes a tree shape: root, height and count, then the
// words in between, then the root MDS. The live head carries its counters
// as those words; a version manifest's head has none. readHead is its
// inverse.
func appendHead(buf []byte, h index.Head, between ...uint64) []byte {
	buf = binary.AppendUvarint(buf, uint64(h.Root))
	buf = binary.AppendUvarint(buf, uint64(h.Height))
	buf = binary.AppendVarint(buf, h.Count)
	for _, w := range between {
		buf = binary.AppendUvarint(buf, w)
	}
	return h.RootMDS.AppendEncode(buf)
}

// readHead parses an appendHead section, storing its in-between words
// through between.
func readHead(r *metaReader, between ...*uint64) (index.Head, error) {
	var h index.Head
	h.Root = nodeID(r.uvarint())
	h.Height = int(r.uvarint())
	h.Count = r.varint()
	for _, w := range between {
		*w = r.uvarint()
	}
	if r.err != nil {
		return h, fmt.Errorf("%w: head: %v", ErrCorrupt, r.err)
	}
	rootMDS, n, err := mds.Decode(r.buf[r.off:])
	if err != nil {
		return h, fmt.Errorf("%w: root mds: %v", ErrCorrupt, err)
	}
	h.RootMDS = rootMDS
	r.off += n
	return h, nil
}

// appendSchema serializes a cube schema: the dimensions with their full
// dictionaries, then each measure's name and decimal scale. The metadata
// blob and the replica bootstrap blob (EncodeSchema) both carry it;
// readSchema is its inverse.
func appendSchema(buf []byte, s *cube.Schema) ([]byte, error) {
	buf = binary.AppendUvarint(buf, uint64(s.Dims()))
	for i := 0; i < s.Dims(); i++ {
		h, err := s.Dim(i)
		if err != nil {
			return nil, err
		}
		buf = h.AppendEncode(buf)
	}
	buf = binary.AppendUvarint(buf, uint64(s.Measures()))
	for j := 0; j < s.Measures(); j++ {
		name, err := s.MeasureName(j)
		if err != nil {
			return nil, err
		}
		buf = binary.AppendUvarint(buf, uint64(len(name)))
		buf = append(buf, name...)
		buf = append(buf, byte(s.Scale(j)))
	}
	return buf, nil
}

// readSchema parses an appendSchema section. Corrupt input fails with
// ErrCorrupt, never a panic.
func readSchema(r *metaReader) (*cube.Schema, error) {
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
	measures, scales := make([]string, nMeasures), make([]int, nMeasures)
	for j := range measures {
		measures[j] = r.string()
		scales[j] = int(r.byte())
	}
	if r.err != nil {
		return nil, fmt.Errorf("%w: measure names: %v", ErrCorrupt, r.err)
	}
	s, err := cube.NewSchema(hs, measures...)
	if err != nil {
		return nil, err
	}
	if s, err = s.WithScales(scales...); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return s, nil
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
	r.uvarint() // the retired directory capacity
	cfg.MinFillRatio = r.float64()
	cfg.MaxOverlapRatio = r.float64()
	cfg.MaxSupernodeBlocks = int(r.uvarint())
	cfg.RefineBound = int(r.varint())
	// Bit 2, no longer written, was the switch that disabled supernodes:
	// the cap of one. Bits 1 and 4 were ablation switches (no materialized
	// aggregates, a hierarchy-blind choose-subtree) whose trees are valid
	// under the defaults, since aggregates were always stored: they are
	// ignored. No build wrote the other bits.
	switch flags := r.byte(); {
	case flags&^7 != 0:
		return nil, fmt.Errorf("%w: metadata flags %#x", ErrCorrupt, flags)
	case flags&2 != 0:
		cfg.MaxSupernodeBlocks = 1
	}
	cfg.CheckpointInterval = time.Duration(r.varint())
	cfg.CheckpointDirtyBytes = int(r.uvarint())
	cfg.VersionRetention.KeepLast = int(r.varint())
	cfg.VersionRetention.MaxAge = time.Duration(r.varint())

	var nextID, checkpointLSN, versionSeq, latestVersionID, latestVersionLSN, epoch uint64
	head, err := readHead(&r, &nextID, &checkpointLSN, &versionSeq, &latestVersionID, &latestVersionLSN, &epoch)
	if err != nil {
		return nil, fmt.Errorf("metadata %w", err)
	}
	schema, err := readSchema(&r)
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
		if m.head, err = readHead(&r); err != nil {
			return nil, fmt.Errorf("version manifest %d %w", i, err)
		}
		if m.id == 0 {
			return nil, fmt.Errorf("%w: version manifest %d has id 0", ErrCorrupt, i)
		}
		m.table, err = decodeExtentTable(&r)
		if err != nil {
			return nil, fmt.Errorf("version %d %w", m.id, err)
		}
		if _, ok := m.table[m.head.Root]; !ok {
			return nil, fmt.Errorf("%w: version %d root node %d missing from manifest", ErrCorrupt, m.id, m.head.Root)
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
	t := &Tree{
		schema:           schema,
		cfg:              cfg,
		nextID:           nodeID(nextID),
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
	t.ix = index.Restore(schema, cfg.Config, t.nodes(), head, storage.ExtentCapacity(cfg.BlockSize, 1))
	if _, ok := t.table[head.Root]; !ok {
		return nil, fmt.Errorf("%w: root node %d missing from table", ErrCorrupt, head.Root)
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
			head:    m.head,
			table:   m.table,
			overlay: make(map[nodeID][]byte),
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
