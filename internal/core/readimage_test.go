package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"github.com/dcindex/dctree/internal/cube"
	"github.com/dcindex/dctree/internal/index"
	"github.com/dcindex/dctree/internal/mds"
)

// directoryCount walks the tree and counts its directory nodes.
func directoryCount(t testing.TB, tree *Tree) int64 {
	t.Helper()
	dirs := int64(0)
	for _, n := range collectNodes(t, tree) {
		if !n.Leaf() {
			dirs++
		}
	}
	return dirs
}

// TestReadImageBuildsCounter pins what dctree_read_image_builds_total
// counts: one build per directory the queries meet, none while the tree is
// only read, and after a mutation one per directory on the dirtied path.
func TestReadImageBuildsCounter(t *testing.T) {
	tree, recs, rng := buildExecuteTree(t, 1200)
	dirs := directoryCount(t, tree)
	whole := mds.Top(tree.Schema().Dims())
	unmaterialized := func() {
		t.Helper()
		// A whole-cube query is answered at the root; a constrained one
		// descends. Together they meet every directory only if nothing is
		// answered early, so visit by Scan as well.
		if _, err := rangeAgg(tree, whole, 0); err != nil {
			t.Fatal(err)
		}
		if err := tree.Scan(func(cube.Record) bool { return true }); err != nil {
			t.Fatal(err)
		}
	}

	if got := tree.Metrics().ReadImageBuilds; got != 0 {
		t.Fatalf("ReadImageBuilds = %d before any read", got)
	}
	unmaterialized()
	if got := tree.Metrics().ReadImageBuilds; got != dirs {
		t.Fatalf("ReadImageBuilds = %d after a full walk, want one per directory (%d)", got, dirs)
	}
	for i := 0; i < 20; i++ {
		if _, err := rangeAgg(tree, randomQuery(rng, tree.Schema(), 0.2), 0); err != nil {
			t.Fatal(err)
		}
	}
	unmaterialized()
	if got := tree.Metrics().ReadImageBuilds; got != dirs {
		t.Fatalf("ReadImageBuilds = %d after read-only work, want still %d", got, dirs)
	}

	// One delete dirties one root-to-leaf path: at most height-1 directories
	// lose their image, the root among them.
	if err := tree.Delete(recs[0]); err != nil {
		t.Fatal(err)
	}
	unmaterialized()
	rebuilt := tree.Metrics().ReadImageBuilds - dirs
	if rebuilt < 1 || rebuilt > int64(tree.Height()-1) {
		t.Fatalf("%d images rebuilt after one delete, want 1..%d", rebuilt, tree.Height()-1)
	}

	var buf bytes.Buffer
	if err := tree.Metrics().WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "dctree_read_image_builds_total ") {
		t.Error("WriteProm output missing dctree_read_image_builds_total")
	}
}

// TestReadersRaceToBuildImages is the -race test of the read image: while
// one writer keeps dirtying paths (dropping their images), readers race one
// another to rebuild and publish the same directories' images, and as-of
// readers walk a version captured mid-stream — whose overlay payloads may
// be the very images the live readers share. Every as-of answer must equal
// the frozen oracle; the live tree must validate and answer exactly at the
// end.
func TestReadersRaceToBuildImages(t *testing.T) {
	tree := newTestTree(t, smallConfig())
	s := tree.Schema()
	rng := rand.New(rand.NewSource(61))
	warm := genRecords(t, s, rng, 400)
	stream := genRecords(t, s, rng, 500)
	queries := make([]mds.MDS, 64)
	for i := range queries {
		queries[i] = randomQuery(rng, s, 0.3)
	}
	for _, r := range warm {
		if err := tree.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	v, err := tree.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer v.Release()

	var wg sync.WaitGroup
	start := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for i, r := range stream {
			if err := tree.Insert(r); err != nil {
				t.Errorf("insert %d: %v", i, err)
				return
			}
			if i%4 == 3 {
				if err := tree.Delete(stream[i-2]); err != nil {
					t.Errorf("delete %d: %v", i, err)
					return
				}
			}
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < 150; i++ {
				q := queries[(i+w)%len(queries)] // neighbours ask for the same images
				req := QueryRequest{Query: q, Parallel: (i % 2) * 2}
				if w == 3 {
					req.AsOf = v
				}
				res, err := tree.Execute(context.Background(), req)
				if err != nil {
					t.Errorf("reader %d query %d: %v", w, i, err)
					return
				}
				if w == 3 {
					if want := bruteAgg(t, s, warm, q, 0); !aggMatches(res.Agg, want) {
						t.Errorf("as-of query %d: got %+v, oracle %+v", i, res.Agg, want)
						return
					}
				}
			}
		}(w)
	}
	close(start)
	wg.Wait()
	if t.Failed() {
		return
	}

	if err := tree.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	live := append([]cube.Record(nil), warm...)
	for i, r := range stream {
		if deleted := i%4 == 1 && i+2 < len(stream); !deleted {
			live = append(live, r)
		}
	}
	for i, q := range queries {
		got, err := rangeAgg(tree, q, 0)
		if err != nil {
			t.Fatal(err)
		}
		if want := bruteAgg(t, s, live, q, 0); !aggMatches(got, want) {
			t.Fatalf("query %d after the race: got %+v, oracle %+v", i, got, want)
		}
	}
	if tree.Metrics().ReadImageBuilds == 0 {
		t.Fatal("no read image was built")
	}
}

// encodingDigest hashes, in pre-order, the payload each node of the tree is
// encoded to, as handed out by payload: the directories into one digest,
// the data nodes into another.
func encodingDigest(t *testing.T, tree *Tree, payload func(n *index.Node) []byte) (d goldenEncoding) {
	t.Helper()
	dir, data := sha256.New(), sha256.New()
	for _, n := range collectNodes(t, tree) {
		if n.Leaf() {
			data.Write(payload(n))
		} else {
			dir.Write(payload(n))
		}
	}
	return goldenEncoding{hex.EncodeToString(dir.Sum(nil)[:12]), hex.EncodeToString(data.Sum(nil)[:12])}
}

type goldenEncoding struct{ dir, data string }

// TestGoldenNodeEncoding pins the bytes nodes are encoded to — live, into a
// version overlay, through a checkpoint and after recovery — for a tree
// whose data nodes split, shrank by Delete and refilled. The directory
// digests are the ones this test's code computes at the commit before the
// DCMETA09 generation (the directory frame did not change with it). The
// data-node digests were re-pinned once, with that generation: a data node
// is now the 20-byte header and its rows, where it also repeated every
// record's aggregate, singleton MDS and offset slot (digests
// 21b6209f4cd2e10002acc8db and 084735efab6f62716eb2d388 of the same rows).
// All four were re-pinned once more, with no format change, when inserts
// and splits began to bound directory entries (index.boundMDS): the tree
// is another tree (before: ce6a68c117926d9b86bbba24 / 0d5bac8601faddba3e4314fa,
// after the tail e678109113bd70ca14dd76fc / cd4cafa4d81ae9a1a02f7a36).
func TestGoldenNodeEncoding(t *testing.T) {
	want := goldenEncoding{dir: "ac1bb1c558dec5b5229d419d", data: "401bfedab78a5c75a76c51b0"}
	wantTail := goldenEncoding{dir: "0cf1f6bb997c693d598d35de", data: "1274c4bd11cbf6ffffe6f650"}
	cfg := smallConfig()
	tree, _, storePath, walPrefix := newDurableOnDisk(t, cfg)
	defer tree.Close()
	s := tree.Schema()
	rng := rand.New(rand.NewSource(67))
	recs := genRecords(t, s, rng, 800)
	for _, r := range recs[:600] {
		if err := tree.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 150; i++ {
		if err := tree.Delete(recs[i*4]); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range recs[600:700] {
		if err := tree.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	check := func(what string, want goldenEncoding, tree *Tree, payload func(n *index.Node) []byte) {
		t.Helper()
		if got := encodingDigest(t, tree, payload); got != want {
			t.Errorf("%s: encoding digests %+v, pinned %+v", what, got, want)
		}
	}
	encoded := func(tree *Tree) func(n *index.Node) []byte { return tree.ix.Encode }
	fromStore := func(tree *Tree) func(n *index.Node) []byte {
		return func(n *index.Node) []byte {
			b, _, err := tree.store.Read(tree.table[n.ID()].page)
			if err != nil {
				t.Fatalf("read node %d: %v", n.ID(), err)
			}
			return b
		}
	}
	check("live nodes", want, tree, encoded(tree))

	v, err := tree.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	check("version overlay", want, tree, func(n *index.Node) []byte { return v.overlay[n.ID()] })
	if err := v.Release(); err != nil {
		t.Fatal(err)
	}

	if err := tree.Flush(); err != nil {
		t.Fatal(err)
	}
	check("checkpointed extents", want, tree, fromStore(tree))
	re := recoverImage(t, cfg, storePath, walPrefix, t.TempDir())
	check("recovered extents", want, re, fromStore(re))
	check("recovered nodes, re-encoded", want, re, encoded(re))

	// A log tail behind the checkpoint: recovery replays the same inserts,
	// splits and deletes into decoded nodes.
	for i, r := range recs[700:] {
		if err := tree.Insert(r); err != nil {
			t.Fatal(err)
		}
		if i%5 == 4 {
			if err := tree.Delete(recs[600+i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	check("live nodes after the tail", wantTail, tree, encoded(tree))
	re = recoverImage(t, cfg, storePath, walPrefix, t.TempDir())
	check("nodes recovered through the log tail", wantTail, re, encoded(re))
}
