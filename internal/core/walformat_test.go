package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/dcindex/dctree/internal/cube"
	"github.com/dcindex/dctree/internal/hierarchy"
	"github.com/dcindex/dctree/internal/storage"
)

// Tests for the WAL record format (dictionary deltas + interned IDs), the
// rejection of every retired format generation, and the decoder hardening
// regressions in the same layer.

// newDurableOnDisk creates a WAL-backed tree on real files and returns it
// with its paths (so tests can snapshot crash images).
func newDurableOnDisk(t *testing.T, cfg Config) (*Tree, *storage.PagedStore, string, string) {
	t.Helper()
	dir := t.TempDir()
	storePath := filepath.Join(dir, "store.dc")
	walPrefix := filepath.Join(dir, "idx")
	st, err := storage.OpenPagedStore(storePath, cfg.BlockSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := NewDurable(st, testSchema(t), cfg, walPrefix)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return tree, st, storePath, walPrefix
}

func recoverImage(t *testing.T, cfg Config, storePath, walPrefix, dir string) *Tree {
	t.Helper()
	imgStore, imgPrefix := copyCrashImage(t, storePath, walPrefix, dir)
	cst, err := storage.OpenPagedStore(imgStore, cfg.BlockSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctree, err := OpenDurable(cst, imgPrefix)
	if err != nil {
		cst.Close()
		t.Fatalf("OpenDurable on crash image: %v", err)
	}
	t.Cleanup(func() { ctree.Close(); cst.Close() })
	return ctree
}

// TestV2FormatCrashRecovery: the log survives a crash with NO checkpoint
// after the inserts — every dictionary registration must come
// back from the logged deltas alone, and the ID-only mutation records must
// resolve against them.
func TestV2FormatCrashRecovery(t *testing.T) {
	cfg := smallConfig()
	tree, _, storePath, walPrefix := newDurableOnDisk(t, cfg)
	defer tree.Close()
	rng := rand.New(rand.NewSource(21))
	recs := genRecords(t, tree.Schema(), rng, 120)
	for _, r := range recs {
		if err := tree.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	if n := tree.Metrics().WALDictDeltas; n == 0 {
		t.Fatal("no dictionary deltas were logged for fresh registrations")
	}
	if bpr := tree.Metrics().WALBytesPerRecord; bpr <= 0 {
		t.Fatalf("WALBytesPerRecord = %g, want > 0", bpr)
	}

	ctree := recoverImage(t, cfg, storePath, walPrefix, filepath.Join(t.TempDir(), "img"))
	verifyAgainstOracle(t, ctree, recs, 30, 22)
}

// TestV2DictDeltaCheckpointOverlap pins the fuzzy-capture overlap case: a
// registration interned BEFORE a checkpoint (so the captured dictionaries
// carry it) whose delta record lands AFTER the checkpoint LSN (drained by
// the next mutation). Recovery replays that delta against dictionaries that
// already contain it — RestoreValue must treat the exact match as a no-op.
func TestV2DictDeltaCheckpointOverlap(t *testing.T) {
	cfg := smallConfig()
	tree, _, storePath, walPrefix := newDurableOnDisk(t, cfg)
	defer tree.Close()
	rng := rand.New(rand.NewSource(5))
	recs := genRecords(t, tree.Schema(), rng, 40)
	for _, r := range recs[:20] {
		if err := tree.Insert(r); err != nil {
			t.Fatal(err)
		}
	}

	// Intern a brand-new path now (hooks queue its deltas), checkpoint
	// (captures the registrations, supersedes nothing of the pending list),
	// THEN insert it (drains the deltas past the checkpoint LSN).
	late, err := tree.Schema().InternRecord([][]string{
		{"R-late", "N-late", "C-late"}, {"B-late", "P-late"}, {"Y-late", "M-late"},
	}, []float64{42})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := tree.Insert(late); err != nil {
		t.Fatal(err)
	}
	for _, r := range recs[20:] {
		if err := tree.Insert(r); err != nil {
			t.Fatal(err)
		}
	}

	ctree := recoverImage(t, cfg, storePath, walPrefix, filepath.Join(t.TempDir(), "img"))
	verifyAgainstOracle(t, ctree, append(append([]cube.Record{}, recs...), late), 30, 6)
}

// flushedMetaBlob returns the metadata blob of a 30-record tree with no
// live version. The tree is flushed first so the translation table is
// populated (extents are assigned lazily) — decodeMeta rejects a root
// without an extent.
func flushedMetaBlob(t testing.TB) []byte {
	t.Helper()
	tree := newTestTree(t, smallConfig())
	for _, r := range genRecords(t, tree.Schema(), rand.New(rand.NewSource(3)), 30) {
		if err := tree.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.Flush(); err != nil {
		t.Fatal(err)
	}
	tree.mu.Lock()
	blob, err := tree.encodeMeta(tree.metaSnapshotLocked())
	tree.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// retiredMetaBlobs returns one blob per retired generation the decoder
// must refuse by its magic alone: a valid blob re-labelled with each of the
// nine old magics, and the blobs earlier builds really wrote — the DCMETA08
// metadata of the testdata/parent-pr12 crash image and the DCMETA09
// metadata of the testdata/tpcd-09 index.
func retiredMetaBlobs(t testing.TB) map[string][]byte {
	t.Helper()
	blob := flushedMetaBlob(t)
	out := make(map[string][]byte)
	for v := 1; v <= 9; v++ {
		magic := fmt.Sprintf("DCMETA%02d", v)
		out["meta magic "+magic] = append([]byte(magic), blob[len(metaMagic):]...)
	}
	tpcd09 := filepath.Join(t.TempDir(), "store.dc")
	copyFile(t, filepath.Join("testdata", "tpcd-09", "store.dc"), tpcd09)
	for _, img := range []struct {
		name, magic, path string
		blockSize         int
	}{
		{"the parent-pr12 image's blob", "DCMETA08", filepath.Join(copyTestImage(t, "parent-pr12"), "store.dc"), smallConfig().BlockSize},
		{"the tpcd-09 index's blob", "DCMETA09", tpcd09, DefaultConfig().BlockSize},
	} {
		st, err := storage.OpenPagedStore(img.path, img.blockSize, 0)
		if err != nil {
			t.Fatal(err)
		}
		written, err := st.GetMeta()
		st.Close()
		if err != nil || !bytes.HasPrefix(written, []byte(img.magic)) {
			t.Fatalf("%s: metadata does not start with %s (err %v)", img.name, img.magic, err)
		}
		out[img.name] = written
	}
	return out
}

// metaFlagsOffset returns the offset of the config flags byte in a blob:
// past the magic, three uvarints, two floats, the supernode cap and the
// refine bound.
func metaFlagsOffset(t testing.TB, blob []byte) int {
	t.Helper()
	r := metaReader{buf: blob, off: len(metaMagic)}
	r.uvarint()
	r.uvarint()
	r.uvarint()
	r.float64()
	r.float64()
	r.uvarint()
	r.varint()
	if r.err != nil || r.off >= len(blob) {
		t.Fatalf("no flags byte in the blob (%v)", r.err)
	}
	return r.off
}

// metaFlagsBlob returns blob with its flags byte set to flags.
func metaFlagsBlob(t testing.TB, blob []byte, flags byte) []byte {
	t.Helper()
	c := append([]byte(nil), blob...)
	c[metaFlagsOffset(t, c)] = flags
	return c
}

// TestMetaRetiredSupernodeBit walks every flags byte. The three bits a build
// once wrote open under the default switches, bit 2 (the retired switch
// that disabled supernodes) as the supernode cap of one, and encode back as
// the one flags byte written today; the cap stays. Any other bit is refused.
func TestMetaRetiredSupernodeBit(t *testing.T) {
	blob := flushedMetaBlob(t)
	if got := blob[metaFlagsOffset(t, blob)]; got != metaFlags {
		t.Fatalf("encodeMeta wrote flags %#x, want %#x", got, metaFlags)
	}
	want := smallConfig().Config // flushedMetaBlob's
	for f := 0; f < 256; f++ {
		flags := byte(f)
		tr, err := decodeMeta(metaFlagsBlob(t, blob, flags))
		if flags&^7 != 0 {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("flags %#x: %v, want ErrCorrupt", flags, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("flags %#x: %v", flags, err)
		}
		wantCap := want.MaxSupernodeBlocks
		if flags&2 != 0 {
			wantCap = 1
		}
		got := tr.cfg.Config
		if got.MaxSupernodeBlocks != wantCap {
			t.Fatalf("flags %#x: cap %d, want %d", flags, got.MaxSupernodeBlocks, wantCap)
		}
		got.MaxSupernodeBlocks = want.MaxSupernodeBlocks
		if got != want {
			t.Fatalf("flags %#x: config %+v, want %+v", flags, got, want)
		}
		again, err := tr.encodeMeta(tr.metaSnapshotLocked())
		if err != nil {
			t.Fatal(err)
		}
		if got := again[metaFlagsOffset(t, again)]; got != metaFlags {
			t.Fatalf("flags %#x re-encoded as %#x, want %#x", flags, got, metaFlags)
		}
		if tr, err = decodeMeta(again); err != nil {
			t.Fatalf("flags %#x re-encoded: %v", flags, err)
		}
		if tr.cfg.MaxSupernodeBlocks != wantCap {
			t.Fatalf("flags %#x re-encoded: cap %d, want %d", flags, tr.cfg.MaxSupernodeBlocks, wantCap)
		}
	}
}

// retiredWALRecords returns a string-path mutation record (ops 1 and 2) as
// the retired encoder framed it: op, measures, then per dimension the
// top-down value names.
func retiredWALRecords() map[string][]byte {
	body := binary.AppendUvarint(nil, 1)
	body = binary.LittleEndian.AppendUint64(body, math.Float64bits(7))
	body = binary.AppendUvarint(body, 3)
	for _, path := range [][]string{{"R", "N", "C"}, {"B", "P"}, {"Y", "M"}} {
		body = binary.AppendUvarint(body, uint64(len(path)))
		for _, name := range path {
			body = binary.AppendUvarint(body, uint64(len(name)))
			body = append(body, name...)
		}
	}
	return map[string][]byte{
		"wal op 1": append([]byte{1}, body...),
		"wal op 2": append([]byte{2}, body...),
	}
}

// TestUnsupportedFormats: every retired generation the engine recognises —
// metadata magics DCMETA01–09, WAL segment header DCWAL001, WAL mutation
// ops 1 and 2 — is refused with ErrUnsupportedFormat at every entry point
// that could meet it: no panic, no partially opened tree, and no file
// discarded. (DCSTORE1 is the storage layer's case, beside its checksum
// tests; TestRetiredImageRefused holds whole DCMETA08 and DCMETA09 images
// on disk.)
func TestUnsupportedFormats(t *testing.T) {
	cfg := smallConfig()
	for name, blob := range retiredMetaBlobs(t) {
		if _, err := decodeMeta(blob); !errors.Is(err, ErrUnsupportedFormat) {
			t.Errorf("%s: decodeMeta: %v, want ErrUnsupportedFormat", name, err)
		}
		st := storage.NewMemStore(cfg.BlockSize)
		if err := st.SetMeta(blob); err != nil {
			t.Fatal(err)
		}
		if tree, err := Open(st); !errors.Is(err, ErrUnsupportedFormat) || tree != nil {
			t.Errorf("%s: Open: tree %v, err %v, want nil and ErrUnsupportedFormat", name, tree != nil, err)
		}
		if tree, err := OpenReplica(st); !errors.Is(err, ErrUnsupportedFormat) || tree != nil {
			t.Errorf("%s: OpenReplica: tree %v, err %v, want nil and ErrUnsupportedFormat", name, tree != nil, err)
		}
	}

	for name, payload := range retiredWALRecords() {
		if _, _, err := decodeWALRecord(testSchema(t), payload); !errors.Is(err, ErrUnsupportedFormat) {
			t.Errorf("%s: decodeWALRecord: %v, want ErrUnsupportedFormat", name, err)
		}
		// Replication: a replica refuses the record and stays where it was.
		replica, err := NewReplica(storage.NewMemStore(cfg.BlockSize), testSchema(t), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := replica.ApplyReplicated(0, 1, payload); !errors.Is(err, ErrUnsupportedFormat) {
			t.Errorf("%s: ApplyReplicated: %v, want ErrUnsupportedFormat", name, err)
		}
		if replica.AppliedLSN() != 0 || replica.Count() != 0 {
			t.Errorf("%s: refused record moved the replica (applied %d, count %d)", name, replica.AppliedLSN(), replica.Count())
		}
		// Recovery: the record sits in the log tail of a crash image.
		tree, _, storePath, walPrefix := newDurableOnDisk(t, cfg)
		lsn, err := tree.wal.append(payload)
		if err == nil {
			err = tree.wal.waitDurable(lsn)
		}
		if err != nil {
			t.Fatal(err)
		}
		requireRecoveryRefused(t, name, cfg, storePath, walPrefix, nil)
		tree.Close()
	}

	// A log whose (final, record-free) segment carries the epoch-less header:
	// recovery must refuse it, not mistake it for a torn creation and drop it.
	tree, _, storePath, walPrefix := newDurableOnDisk(t, cfg)
	defer tree.Close()
	requireRecoveryRefused(t, "wal header DCWAL001", cfg, storePath, walPrefix, func(imgPrefix string) {
		segs, err := storage.ListSegments(imgPrefix)
		if err != nil || len(segs) != 1 {
			t.Fatalf("ListSegments: %v, %d segments", err, len(segs))
		}
		f, err := os.OpenFile(segs[0].Path, os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := f.WriteAt([]byte("DCWAL001"), 0); err != nil {
			t.Fatal(err)
		}
	})
}

// requireRecoveryRefused copies the crash image of a durable tree, lets
// damage rewrite the copy's log, and asserts that recovery of the copy is
// refused with ErrUnsupportedFormat and leaves every log file in place.
func requireRecoveryRefused(t *testing.T, name string, cfg Config, storePath, walPrefix string, damage func(imgPrefix string)) {
	t.Helper()
	imgStore, imgPrefix := copyCrashImage(t, storePath, walPrefix, filepath.Join(t.TempDir(), "img"))
	if damage != nil {
		damage(imgPrefix)
	}
	before, _ := filepath.Glob(imgPrefix + ".*.wal")
	cst, err := storage.OpenPagedStore(imgStore, cfg.BlockSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cst.Close()
	if ctree, err := OpenDurable(cst, imgPrefix); !errors.Is(err, ErrUnsupportedFormat) || ctree != nil {
		t.Errorf("%s: OpenDurable: tree %v, err %v, want nil and ErrUnsupportedFormat", name, ctree != nil, err)
	}
	if after, _ := filepath.Glob(imgPrefix + ".*.wal"); len(after) != len(before) {
		t.Errorf("%s: refused recovery changed the log files: %v -> %v", name, before, after)
	}
}

// TestMetaReaderStringNegativeLength is the satellite #1 regression: a
// uvarint length above MaxInt64 used to overflow int(l) negative, pass the
// remaining-bytes check, and panic on the negative slice bound.
func TestMetaReaderStringNegativeLength(t *testing.T) {
	// 0xff ×9 then 0x01 encodes 2^63+... — above MaxInt64.
	blob := append(bytes.Repeat([]byte{0xff}, 9), 0x01)
	r := metaReader{buf: blob}
	if s := r.string(); s != "" || r.err == nil {
		t.Fatalf("string() on negative-length input: %q, err %v", s, r.err)
	}
}

// TestDecodeMetaCorruptInputs feeds decodeMeta systematically damaged blobs
// derived from a real one: every truncation, a negative-length string, and
// a hostile table length must fail closed with ErrCorrupt — never panic,
// never over-allocate.
func TestDecodeMetaCorruptInputs(t *testing.T) {
	blob := flushedMetaBlob(t)
	if _, err := decodeMeta(blob); err != nil {
		t.Fatalf("valid blob rejected: %v", err)
	}

	// Every prefix truncation.
	for i := 0; i < len(blob); i++ {
		if _, err := decodeMeta(blob[:i]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", i)
		}
	}
	// Negative-length string: replace the measure name's length prefix
	// ("Price", length byte 5) with a uvarint above MaxInt64.
	idx := bytes.Index(blob, []byte("\x05Price"))
	if idx < 0 {
		t.Fatal("measure name not found in blob")
	}
	evil := append(append(append([]byte{}, blob[:idx]...),
		append(bytes.Repeat([]byte{0xff}, 9), 0x01)...), blob[idx+1:]...)
	if _, err := decodeMeta(evil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("negative-length string: %v, want ErrCorrupt", err)
	}
	// Hostile translation-table length: truncate right after the schema and
	// claim a huge table.
	tblIdx := bytes.Index(blob, []byte("\x05Price")) + len("\x05Price")
	hostile := append(append([]byte{}, blob[:tblIdx]...),
		0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01)
	if _, err := decodeMeta(hostile); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("hostile table length: %v, want ErrCorrupt", err)
	}
}

// TestApplyDictDeltaRoundTripAndCorruption: deltas captured from one
// hierarchy rebuild an identical twin; corrupt payloads fail closed.
func TestApplyDictDeltaRoundTrip(t *testing.T) {
	src := testSchema(t)
	dst := testSchema(t)
	var deltas []dictDelta
	for d := 0; d < src.Dims(); d++ {
		h, err := src.Dim(d)
		if err != nil {
			t.Fatal(err)
		}
		dim := d
		h.SetRegisterHook(func(id, parent hierarchy.ID, name string) {
			deltas = append(deltas, dictDelta{dim: dim, id: id, parent: parent, name: name})
		})
	}
	recs := genRecords(t, src, rand.New(rand.NewSource(8)), 50)
	payload := encodeDictDelta(deltas)
	if err := applyDictDelta(dst, payload); err != nil {
		t.Fatalf("applyDictDelta: %v", err)
	}
	// Re-applying the same payload is idempotent (checkpoint overlap).
	if err := applyDictDelta(dst, payload); err != nil {
		t.Fatalf("applyDictDelta twice: %v", err)
	}
	for _, r := range recs {
		if err := dst.ValidateRecord(r); err != nil {
			t.Fatalf("record not resolvable in rebuilt dictionaries: %v", err)
		}
	}
	for d := 0; d < dst.Dims(); d++ {
		h, _ := dst.Dim(d)
		if err := h.Validate(); err != nil {
			t.Fatalf("rebuilt hierarchy invalid: %v", err)
		}
	}

	// Corruptions: truncations and a delta that would leave a code hole.
	for i := 1; i < len(payload); i += 7 {
		if err := applyDictDelta(testSchema(t), payload[:i]); err == nil {
			t.Fatalf("truncated delta payload (%d bytes) accepted", i)
		}
	}
	hole := encodeDictDelta([]dictDelta{{dim: 0, id: hierarchy.MakeID(0, 5), parent: hierarchy.ALL, name: "gap"}})
	if err := applyDictDelta(testSchema(t), hole); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("code-hole delta: %v, want ErrCorrupt", err)
	}
}
