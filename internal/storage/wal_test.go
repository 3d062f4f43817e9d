package storage

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func openTestWAL(t *testing.T, prefix string, opts WALOptions) *WAL {
	t.Helper()
	w, err := OpenWAL(prefix, opts)
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	return w
}

// collect replays the log into a map lsn → payload and the ordered lsn list.
func collect(t *testing.T, w *WAL) (map[uint64]string, []uint64) {
	t.Helper()
	recs := make(map[uint64]string)
	var order []uint64
	if err := w.Replay(func(_, lsn uint64, payload []byte) error {
		recs[lsn] = string(payload)
		order = append(order, lsn)
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return recs, order
}

func TestWALAppendReplayRoundTrip(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "idx")
	w := openTestWAL(t, prefix, WALOptions{})
	for i := 1; i <= 10; i++ {
		lsn, err := w.Append([]byte(fmt.Sprintf("rec-%d", i)))
		if err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		if lsn != uint64(i) {
			t.Fatalf("Append %d: lsn %d", i, lsn)
		}
	}
	if covered, err := w.Sync(); err != nil || covered != 10 {
		t.Fatalf("Sync = %d, %v", covered, err)
	}
	recs, order := collect(t, w)
	if len(order) != 10 || order[0] != 1 || recs[7] != "rec-7" {
		t.Fatalf("replayed %v", order)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: same records, LSNs continue.
	w = openTestWAL(t, prefix, WALOptions{})
	defer w.Close()
	recs, order = collect(t, w)
	if len(order) != 10 || recs[10] != "rec-10" {
		t.Fatalf("reopened replay %v", order)
	}
	lsn, err := w.Append([]byte("rec-11"))
	if err != nil || lsn != 11 {
		t.Fatalf("append after reopen: lsn %d, %v", lsn, err)
	}
}

func TestWALSegmentRotation(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "idx")
	w := openTestWAL(t, prefix, WALOptions{SegmentBytes: 256})
	payload := make([]byte, 40)
	for i := 0; i < 50; i++ {
		payload[0] = byte(i)
		if _, err := w.Append(payload); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	st := w.Stats()
	if st.Segments < 3 {
		t.Fatalf("expected rotation, got %d segments", st.Segments)
	}
	_, order := collect(t, w)
	if len(order) != 50 || order[49] != 50 {
		t.Fatalf("replay across segments: %d records, last lsn %v", len(order), order[len(order)-1])
	}
	w.Close()

	// Reopen re-validates LSN continuity across all segments.
	w = openTestWAL(t, prefix, WALOptions{SegmentBytes: 256})
	defer w.Close()
	if got := w.LastLSN(); got != 50 {
		t.Fatalf("LastLSN after reopen = %d", got)
	}
}

func TestWALTornTailTruncatedOnReopen(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "idx")
	w := openTestWAL(t, prefix, WALOptions{})
	for i := 0; i < 5; i++ {
		if _, err := w.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	path, synced := w.ActiveSegment()
	w.Close()

	// Simulate a torn in-flight append: garbage past the synced frontier.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x13, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	w = openTestWAL(t, prefix, WALOptions{})
	defer w.Close()
	_, order := collect(t, w)
	if len(order) != 5 {
		t.Fatalf("replay after torn tail: %d records", len(order))
	}
	if _, newSynced := w.ActiveSegment(); newSynced != synced {
		t.Fatalf("torn tail not truncated: synced %d, want %d", newSynced, synced)
	}
	// Appends continue cleanly at the next LSN.
	if lsn, err := w.Append([]byte("after")); err != nil || lsn != 6 {
		t.Fatalf("append after torn-tail recovery: lsn %d, %v", lsn, err)
	}
}

func TestWALCRCMismatchEndsLog(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "idx")
	w := openTestWAL(t, prefix, WALOptions{})
	for i := 0; i < 3; i++ {
		if _, err := w.Append([]byte("payload-payload")); err != nil {
			t.Fatal(err)
		}
	}
	w.Sync()
	path, _ := w.ActiveSegment()
	w.Close()

	// Flip one payload byte of the LAST record: its CRC no longer matches,
	// so the log must reopen with only the two preceding records.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	w = openTestWAL(t, prefix, WALOptions{})
	defer w.Close()
	_, order := collect(t, w)
	if len(order) != 2 {
		t.Fatalf("replay after corrupt tail record: %d records, want 2", len(order))
	}
}

func TestWALTruncatePreservesLSNs(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "idx")
	w := openTestWAL(t, prefix, WALOptions{})
	defer w.Close()
	for i := 0; i < 7; i++ {
		if _, err := w.Append([]byte("x-record")); err != nil {
			t.Fatal(err)
		}
	}
	w.Sync()
	if err := w.Truncate(); err != nil {
		t.Fatalf("Truncate: %v", err)
	}
	if n := w.Records(); n != 0 {
		t.Fatalf("records after truncate = %d", n)
	}
	_, order := collect(t, w)
	if len(order) != 0 {
		t.Fatalf("replay after truncate: %v", order)
	}
	lsn, err := w.Append([]byte("first-after"))
	if err != nil || lsn != 8 {
		t.Fatalf("append after truncate: lsn %d, %v", lsn, err)
	}

	// Exactly one segment file remains.
	segs, err := findSegments(prefix)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments after truncate: %v (%v)", segs, err)
	}
}

func TestWALTruncateSurvivesCrashBetweenCreateAndRemove(t *testing.T) {
	// A crash between "create fresh segment" and "remove old segments"
	// leaves both on disk; reopening must see a contiguous log whose tail
	// is the fresh (empty) segment, and the LSN counter must not reset.
	dir := t.TempDir()
	prefix := filepath.Join(dir, "idx")
	w := openTestWAL(t, prefix, WALOptions{})
	for i := 0; i < 4; i++ {
		if _, err := w.Append([]byte("keep-record")); err != nil {
			t.Fatal(err)
		}
	}
	w.Sync()
	// Simulate the crash image: copy segment files, then truncate the live
	// log; the image keeps the old segment PLUS the fresh one the real
	// Truncate creates first. We reproduce it by hand: create the successor
	// segment the way Truncate would, without deleting the old one.
	path, _ := w.ActiveSegment()
	old, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Truncate(); err != nil {
		t.Fatal(err)
	}
	newPath, _ := w.ActiveSegment()
	fresh, err := os.ReadFile(newPath)
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	crash := filepath.Join(dir, "crash")
	if err := os.MkdirAll(crash, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(crash, filepath.Base(path)), old, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(crash, filepath.Base(newPath)), fresh, 0o644); err != nil {
		t.Fatal(err)
	}

	cw := openTestWAL(t, filepath.Join(crash, "idx"), WALOptions{})
	defer cw.Close()
	_, order := collect(t, cw)
	if len(order) != 4 {
		t.Fatalf("crash image replay: %d records, want the 4 old ones", len(order))
	}
	if lsn, err := cw.Append([]byte("continues")); err != nil || lsn != 5 {
		t.Fatalf("append on crash image: lsn %d, %v", lsn, err)
	}
}

func TestWALHeaderlessTailSegmentDiscarded(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "idx")
	w := openTestWAL(t, prefix, WALOptions{})
	for i := 0; i < 3; i++ {
		if _, err := w.Append([]byte("solid-rec")); err != nil {
			t.Fatal(err)
		}
	}
	w.Sync()
	w.Close()
	// A crash during rotation can leave a next segment with a torn header.
	if err := os.WriteFile(walSegmentPath(prefix, 2), []byte("DCW"), 0o644); err != nil {
		t.Fatal(err)
	}
	w = openTestWAL(t, prefix, WALOptions{})
	defer w.Close()
	_, order := collect(t, w)
	if len(order) != 3 {
		t.Fatalf("replay: %d records, want 3", len(order))
	}
	if lsn, err := w.Append([]byte("next")); err != nil || lsn != 4 {
		t.Fatalf("append: lsn %d, %v", lsn, err)
	}
}

func TestWALRejectsBadRecords(t *testing.T) {
	w := openTestWAL(t, filepath.Join(t.TempDir(), "idx"), WALOptions{})
	defer w.Close()
	if _, err := w.Append(nil); !errors.Is(err, ErrWALRecord) {
		t.Fatalf("empty append: %v", err)
	}
}

func TestWALClosedOps(t *testing.T) {
	w := openTestWAL(t, filepath.Join(t.TempDir(), "idx"), WALOptions{})
	w.Close()
	if _, err := w.Append([]byte("x")); !errors.Is(err, ErrWALClosed) {
		t.Fatalf("append on closed: %v", err)
	}
	if _, err := w.Sync(); !errors.Is(err, ErrWALClosed) {
		t.Fatalf("sync on closed: %v", err)
	}
	if err := w.Truncate(); !errors.Is(err, ErrWALClosed) {
		t.Fatalf("truncate on closed: %v", err)
	}
}
