package core

import (
	"bytes"
	"errors"
	"math/rand"
	"path/filepath"
	"testing"

	"github.com/dcindex/dctree/internal/cube"
	"github.com/dcindex/dctree/internal/hierarchy"
	"github.com/dcindex/dctree/internal/storage"
)

// Tests for WAL record format v2 (dictionary deltas + interned IDs), the
// cross-version decode path, and the satellite bug regressions in the same
// layer.

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

// TestV2FormatCrashRecovery: the default (v2) format survives a crash with
// NO checkpoint after the inserts — every dictionary registration must come
// back from the logged deltas alone, and the ID-only mutation records must
// resolve against them.
func TestV2FormatCrashRecovery(t *testing.T) {
	cfg := smallConfig()
	tree, _, storePath, walPrefix := newDurableOnDisk(t, cfg)
	defer tree.Close()
	if tree.cfg.WALRecordFormat != walFormatIDs {
		t.Fatalf("default WALRecordFormat = %d, want %d", tree.cfg.WALRecordFormat, walFormatIDs)
	}
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

// TestCrossVersionV1LogRecovery: a log written entirely in the legacy
// string-path format (what the previous build produced) must still recover
// to seqscan-oracle equality under the current build.
func TestCrossVersionV1LogRecovery(t *testing.T) {
	cfg := smallConfig()
	cfg.WALRecordFormat = walFormatPaths
	tree, _, storePath, walPrefix := newDurableOnDisk(t, cfg)
	defer tree.Close()
	rng := rand.New(rand.NewSource(33))
	recs := genRecords(t, tree.Schema(), rng, 100)
	for _, r := range recs {
		if err := tree.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	live := recs
	for i := 0; i < 10; i++ {
		if err := tree.Delete(live[0]); err != nil {
			t.Fatal(err)
		}
		live = live[1:]
	}
	if n := tree.Metrics().WALDictDeltas; n != 0 {
		t.Fatalf("v1 format logged %d dict deltas, want 0", n)
	}

	ctree := recoverImage(t, cfg, storePath, walPrefix, filepath.Join(t.TempDir(), "img"))
	if got := ctree.Config().WALRecordFormat; got != walFormatPaths {
		t.Fatalf("recovered tree format = %d, want persisted %d", got, walFormatPaths)
	}
	if n := ctree.Metrics().RecoveryReplayedRecords; n != int64(len(recs)+10) {
		t.Fatalf("replayed %d records, want %d", n, len(recs)+10)
	}
	verifyAgainstOracle(t, ctree, live, 30, 34)
}

// TestMixedFormatLogRecovery: v1 and v2 records interleaved in one log (a
// build upgrade mid-log) replay correctly — decode dispatches per record.
func TestMixedFormatLogRecovery(t *testing.T) {
	cfg := smallConfig()
	tree, _, storePath, walPrefix := newDurableOnDisk(t, cfg)
	defer tree.Close()
	rng := rand.New(rand.NewSource(44))
	recs := genRecords(t, tree.Schema(), rng, 60) // v2 records
	for _, r := range recs {
		if err := tree.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	// Splice a legacy-format record into the same log, the way a not-yet-
	// upgraded writer would have: full string paths, no delta dependency.
	legacy, err := tree.Schema().InternRecord([][]string{
		{"R-v1", "N-v1", "C-v1"}, {"B-v1", "P-v1"}, {"Y-v1", "M-v1"},
	}, []float64{7})
	if err != nil {
		t.Fatal(err)
	}
	payload, err := tree.encodeWALRecordV1(walOpInsert, legacy)
	if err != nil {
		t.Fatal(err)
	}
	lsn, err := tree.wal.append(payload)
	if err == nil {
		err = tree.wal.waitDurable(lsn)
	}
	if err != nil {
		t.Fatal(err)
	}

	// The live tree never applied the spliced record, so only the crash
	// image sees it: recovery must surface exactly recs + legacy.
	ctree := recoverImage(t, cfg, storePath, walPrefix, filepath.Join(t.TempDir(), "img"))
	verifyAgainstOracle(t, ctree, append(append([]cube.Record{}, recs...), legacy), 30, 45)
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
	cfg := smallConfig()
	tree := newTestTree(t, cfg)
	recs := genRecords(t, tree.Schema(), rand.New(rand.NewSource(3)), 30)
	for _, r := range recs {
		if err := tree.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	// Flush so the translation table is populated (extents are assigned
	// lazily) — decodeMeta rejects a root without an extent.
	if err := tree.Flush(); err != nil {
		t.Fatal(err)
	}
	tree.mu.Lock()
	blob, err := tree.encodeMeta(tree.metaSnapshotLocked())
	tree.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
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
