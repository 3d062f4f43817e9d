package core_test

import (
	"crypto/sha256"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"github.com/dcindex/dctree/internal/core"
	"github.com/dcindex/dctree/internal/repl"
	"github.com/dcindex/dctree/internal/storage"
)

// TestRetiredImageRefused: testdata/parent-pr12, testdata/format-09,
// testdata/format-10 and testdata/format-11 are crash images earlier builds
// wrote — DCSTORE2 extents, a DCMETA08 blob whose data nodes repeat every
// record's aggregate and MDS, a DCMETA09 blob whose data nodes store every
// code in 4 bytes, a DCMETA10 blob whose rows and aggregates hold measures
// as f64, or a DCMETA11 blob whose dictionaries hold each value as a 4-byte
// parent ID and its whole name, each with a DCWAL002 log tail this build
// could replay. Every way of opening a tree refuses them by the blob's
// magic with ErrUnsupportedFormat, before recovery reads the log, and
// leaves both files as they were. (An external test: repl imports core.)
func TestRetiredImageRefused(t *testing.T) {
	for _, fixture := range []string{"parent-pr12", "format-09", "format-10", "format-11"} {
		refuseRetiredImage(t, filepath.Join("testdata", fixture))
	}
}

// refuseRetiredImage opens a copy of the crash image in fixture through
// every entry point and checks each refuses it and leaves it byte for byte.
func refuseRetiredImage(t *testing.T, fixture string) {
	const blockSize = 1024 // the images' Config.BlockSize
	// onStore opens the copy's store file the way a caller of the three
	// core entry points does.
	onStore := func(open func(dir string, st storage.Store) (*core.Tree, error)) func(string) (*core.Tree, error) {
		return func(dir string) (*core.Tree, error) {
			st, err := storage.OpenPagedStore(filepath.Join(dir, "store.dc"), blockSize, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			return open(dir, st)
		}
	}
	entries := []struct {
		what       string
		store, wal string // the copy's file names: the layout the entry point expects
		open       func(dir string) (*core.Tree, error)
	}{
		{"Open", "store.dc", "idx.00000002.wal", onStore(func(_ string, st storage.Store) (*core.Tree, error) {
			return core.Open(st)
		})},
		{"OpenDurable", "store.dc", "idx.00000002.wal", onStore(func(dir string, st storage.Store) (*core.Tree, error) {
			return core.OpenDurable(st, filepath.Join(dir, "idx"))
		})},
		{"OpenReplica", "store.dc", "idx.00000002.wal", onStore(func(_ string, st storage.Store) (*core.Tree, error) {
			return core.OpenReplica(st)
		})},
		{"repl.PromoteDir", filepath.Base(repl.StorePath("")), filepath.Base(repl.MirrorPrefix("")) + ".00000002.wal",
			func(dir string) (*core.Tree, error) {
				tree, st, err := repl.PromoteDir(dir, blockSize, storage.WALOptions{})
				if st != nil {
					st.Close()
				}
				return tree, err
			}},
	}
	for _, e := range entries {
		dir := t.TempDir()
		sums := map[string][sha256.Size]byte{}
		for from, to := range map[string]string{"store.dc": e.store, "idx.00000002.wal": e.wal} {
			data, err := os.ReadFile(filepath.Join(fixture, from))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, to), data, 0o644); err != nil {
				t.Fatal(err)
			}
			sums[to] = sha256.Sum256(data)
		}
		tree, err := e.open(dir)
		if !errors.Is(err, core.ErrUnsupportedFormat) || tree != nil {
			t.Errorf("%s %s: tree %v, err %v, want nil and ErrUnsupportedFormat", fixture, e.what, tree != nil, err)
		}
		files, err := os.ReadDir(dir)
		if err != nil || len(files) != len(sums) {
			t.Errorf("%s %s: %d files in the directory afterwards (err %v), want the image's %d", fixture, e.what, len(files), err, len(sums))
		}
		for name, want := range sums {
			if data, err := os.ReadFile(filepath.Join(dir, name)); err != nil || sha256.Sum256(data) != want {
				t.Errorf("%s %s: the refusal changed %s (err %v)", fixture, e.what, name, err)
			}
		}
	}
}

// TestRetiredTPCDImageRefused: testdata/tpcd-09/store.dc is the index the
// last DCMETA09 build's `dctool build -tpcd 2000` wrote, at the default
// 4 KiB block, so the tools open its store and meet the blob. core.Open
// refuses it with ErrUnsupportedFormat and leaves the file byte for byte.
// Migrating such an index is `dctool export` on the build that wrote it,
// then `dctool build` on this one.
func TestRetiredTPCDImageRefused(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "tpcd-09", "store.dc"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "store.dc")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := storage.OpenPagedStore(path, core.DefaultConfig().BlockSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	meta, err := st.GetMeta()
	if err != nil || string(meta[:8]) != "DCMETA09" {
		t.Fatalf("fixture metadata %q (err %v), want a DCMETA09 blob", meta[:min(8, len(meta))], err)
	}
	tree, err := core.Open(st)
	if !errors.Is(err, core.ErrUnsupportedFormat) || tree != nil {
		t.Errorf("Open: tree %v, err %v, want nil and ErrUnsupportedFormat", tree != nil, err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if after, err := os.ReadFile(path); err != nil || sha256.Sum256(after) != sha256.Sum256(data) {
		t.Errorf("the refusal changed the store file (err %v)", err)
	}
}
