package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"sync"
	"testing"

	"github.com/dcindex/dctree/internal/cube"
	"github.com/dcindex/dctree/internal/index"
	"github.com/dcindex/dctree/internal/mds"
)

// TestReadersRaceToBuildImages is the -race test of the heap blocks that
// readers frame: while one writer keeps dirtying paths, changing its
// directories' and data nodes' blocks in place, readers walk the same
// nodes, and as-of readers walk a version captured mid-stream, whose
// overlay payloads are copies of those blocks. Every as-of answer must
// equal the frozen oracle; the live tree must validate and answer exactly
// at the end.
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
				req := QueryRequest{Query: q}
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
// The data-node digests were re-pinned once more with the DCMETA10
// generation, whose data nodes store each code at its dimension's byte
// width behind a width byte per dimension — the same rows, in other bytes
// (before: 401bfedab78a5c75a76c51b0, after the tail
// 1274c4bd11cbf6ffffe6f650); the directory digests did not move. All four
// were re-pinned again, with no format change, when a directory began to
// overflow by its bytes instead of at a count: smallConfig's small
// directories are 512-byte blocks' worth of entries where they were 6
// entries on 1 KiB blocks, so the tree is another tree (before:
// ac1bb1c558dec5b5229d419d / 2bc12c270d69e877f6fa4639, after the tail
// 0cf1f6bb997c693d598d35de / 2fd92832501b641cbc090169). All four were
// re-pinned again, with no format change, when the data-node row cap went:
// smallConfig's data nodes are 512-byte blocks' worth of rows, some 35,
// where they were 8, so the tree is another tree (before:
// 09902b6256cd53b95df1d910 / 890fa7c7c4c06b2b4d046664, after the tail
// f714239cb86825e0843d20c7 / 0c29e3b233af9a4b7759be30).
func TestGoldenNodeEncoding(t *testing.T) {
	want := goldenEncoding{dir: "44276ec691b82df7cb6d998e", data: "5abed61a4aa3411591a70495"}
	wantTail := goldenEncoding{dir: "9d5c003efd02a15dfd4c4109", data: "c91e4c5a1a39bca612e85d40"}
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
