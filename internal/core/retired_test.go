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

// TestRetiredImageRefused: testdata/parent-pr12 is a crash image an earlier
// build wrote — DCSTORE2 extents, a DCMETA08 blob, data nodes in the layout
// that repeated every record's aggregate and MDS, a DCWAL002 log tail this
// build could replay. Every way of opening a tree refuses it by the blob's
// magic with ErrUnsupportedFormat, before recovery reads the log, and
// leaves both files as they were. (An external test: repl imports core.)
func TestRetiredImageRefused(t *testing.T) {
	const blockSize = 1024 // the image's Config.BlockSize
	fixture := filepath.Join("testdata", "parent-pr12")
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
				tree, st, err := repl.PromoteDir(dir, blockSize, storage.WALOptions{}, 0)
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
			t.Errorf("%s: tree %v, err %v, want nil and ErrUnsupportedFormat", e.what, tree != nil, err)
		}
		files, err := os.ReadDir(dir)
		if err != nil || len(files) != len(sums) {
			t.Errorf("%s: %d files in the directory afterwards (err %v), want the image's %d", e.what, len(files), err, len(sums))
		}
		for name, want := range sums {
			if data, err := os.ReadFile(filepath.Join(dir, name)); err != nil || sha256.Sum256(data) != want {
				t.Errorf("%s: the refusal changed %s (err %v)", e.what, name, err)
			}
		}
	}
}
