package index

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/dcindex/dctree/internal/bitmap"
	"github.com/dcindex/dctree/internal/cube"
	"github.com/dcindex/dctree/internal/hierarchy"
)

// The leaf kernel's AVX2 routine against its Go loops, and both against a
// row-at-a-time reference: the same rows selected, in the same order, from
// the same rows and pass table.

// selectCase is one selection of the leaf kernel: the first n of the flat
// rows of stride bytes tested against a pass table.
type selectCase struct {
	flat   []byte
	stride int
	n      int
	passes []leafPass
}

// run runs the selection under the current kernel and returns it. Every
// index of the selection vector starts stale (0xFFFF): a pass must neither
// read nor keep one past the rows it was handed.
func (c selectCase) run() []uint16 {
	var sel [scanChunk]uint16
	for i := range sel {
		sel[i] = 0xFFFF
	}
	return slices.Clone(sel[:selectFlat(&sel, c.flat[:c.n*c.stride+leafPad], c.n, c.stride, c.passes)])
}

// want is the selection a row at a time: the rows every pass's mask holds
// the code of.
func (c selectCase) want() []uint16 {
	rows := []uint16{}
	for i := 0; i < c.n; i++ {
		keep := true
		for _, p := range c.passes {
			code := binary.LittleEndian.Uint32(c.flat[i*c.stride+p.off:]) & p.width
			keep = keep && p.mask.Get(code)
		}
		if keep {
			rows = append(rows, uint16(i))
		}
	}
	return rows
}

// check runs the case under every kernel this host runs and fails unless
// each selects what want does.
func (c selectCase) check(t *testing.T, name string) {
	t.Helper()
	want := c.want()
	was := leafAVX2
	defer func() { leafAVX2 = was }()
	for _, kernel := range leafKernels() {
		leafAVX2 = kernel == "avx2"
		if got := c.run(); !slices.Equal(got, want) {
			t.Fatalf("%s, %d rows: the %s kernel selected %v, want %v", name, c.n, kernel, got, want)
		}
	}
}

// randomCase returns scanChunk flat rows and a pad, every byte random but
// the codes, which are below limit: dims codes at widths 1–4 bytes (each
// code cut to its width) and then measures values of 1–8 bytes. A code's
// 4-byte load reads the bytes behind it, the next code, a measure or the
// pad, which its width must cut away. The pass table tests tested of the
// dimensions, in random order, against masks of 0, 1, 2 or 5 words.
func randomCase(rng *rand.Rand, dims, tested, measures int, limit uint32) selectCase {
	var c selectCase
	offs, widths := make([]int, dims), make([]uint32, dims)
	w := make([]int, dims)
	for d := range dims {
		w[d] = 1 + rng.Intn(4)
		offs[d], widths[d] = c.stride, widthMask(byte(w[d]))
		c.stride += w[d]
	}
	for range measures {
		c.stride += 1 + rng.Intn(8)
	}
	c.flat = make([]byte, scanChunk*c.stride+leafPad)
	rng.Read(c.flat)
	for i := range scanChunk {
		for d := range dims {
			code := uint32(rng.Int63n(int64(limit)))
			for b := range w[d] {
				c.flat[i*c.stride+offs[d]+b] = byte(code >> (8 * b))
			}
		}
	}
	maskWords := []int{0, 1, 2, 5}
	for _, d := range rng.Perm(dims)[:tested] {
		m := randomMask(rng, maskWords[rng.Intn(len(maskWords))], rng.Float64())
		c.passes = append(c.passes, leafPass{mask: m, off: offs[d], width: widths[d]})
	}
	return c
}

// randomMask returns a mask of words words, each bit set with density p.
func randomMask(rng *rand.Rand, words int, p float64) bitmap.Dense {
	m := bitmap.Dense(make([]uint64, words))
	for c := range 64 * words {
		if rng.Float64() < p {
			m.Set(uint32(c))
		}
	}
	return m
}

// TestSelectRowsMatchesGo holds the AVX2 routine and the Go loops to the
// row-at-a-time selection on flat rows of codes 1 to 4 bytes wide and 1 to
// 3 measures, for 1 to 4 tested dimensions of rows of up to four, codes up
// to 100 past their masks' end, and every node length 0 to scanChunk, so
// every tail length 0 to 7 of every pass comes up. Besides random masks,
// a variant empties the first pass's mask and one a later pass's: nothing
// passes, whatever the other passes hold.
func TestSelectRowsMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for dims := 1; dims <= 4; dims++ {
		for tested := 1; tested <= dims; tested++ {
			for variant := range 3 {
				if variant == 2 && tested == 1 {
					continue
				}
				c := randomCase(rng, dims, tested, 1+rng.Intn(3), 64*5+100)
				switch variant {
				case 1:
					c.passes[0].mask = nil
				case 2:
					c.passes[1+rng.Intn(tested-1)].mask = nil
				}
				for n := 0; n <= scanChunk; n++ {
					c.n = n
					c.check(t, fmt.Sprintf("%d of %d dims tested, variant %d", tested, dims, variant))
				}
			}
		}
	}
}

// FuzzSelectRows is TestSelectRowsMatchesGo's differential on inputs the
// fuzzer chooses: the rows' bytes, the dimensions, their widths, the
// measures, which dimensions are tested in which order, the masks' words
// and the node length. A mask's words are its share of the mask bytes; an
// uneven share, or too few bytes, leaves a pass an empty mask.
func FuzzSelectRows(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, []byte{0xAA, 0x55}, uint8(2), uint8(0x1B), uint8(1), uint16(270), int64(1))
	f.Add([]byte{0xFF}, []byte{}, uint8(0), uint8(0), uint8(0), uint16(9), int64(2))
	f.Add([]byte{7, 0, 0, 0xF0}, []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, uint8(3), uint8(0), uint8(2), uint16(512), int64(3))
	f.Fuzz(func(t *testing.T, rows, masks []byte, dims, widths, measures uint8, n uint16, seed int64) {
		c := selectCase{n: int(n) % (scanChunk + 1)}
		d := 1 + int(dims)%4
		offs, cuts := make([]int, d), make([]uint32, d)
		for i := range d {
			w := 1 + int(widths>>(2*i))&3
			offs[i], cuts[i] = c.stride, widthMask(byte(w))
			c.stride += w
		}
		c.stride += 1 + int(measures)%8
		c.flat = make([]byte, scanChunk*c.stride+leafPad)
		for i := 0; len(rows) > 0 && i < len(c.flat); i += len(rows) {
			copy(c.flat[i:], rows)
		}
		rng := rand.New(rand.NewSource(seed))
		order := rng.Perm(d)[:1+rng.Intn(d)]
		share := len(masks) / len(order)
		for p, dim := range order {
			words := masks[p*share : (p+1)*share]
			m := bitmap.Dense(make([]uint64, len(words)/8))
			for w := range m {
				m[w] = binary.LittleEndian.Uint64(words[8*w:])
			}
			c.passes = append(c.passes, leafPass{mask: m, off: offs[dim], width: cuts[dim]})
		}
		c.check(t, "fuzzed")
	})
}

// TestScanRowsAllocations holds the leaf kernel to zero allocations under
// either kernel, on a data node's own block and on one of more than
// scanChunk rows, which takes two chunks: the selection vector stays on the
// stack, which an escaping argument of the assembly would undo.
func TestScanRowsAllocations(t *testing.T) {
	forEachLeafKernel(t, func(t *testing.T) {
		const dims, nm = 3, 2
		rng := rand.New(rand.NewSource(46))
		leafOf := func(rows int) *Node {
			leaf := NewNode(0, true, dims, nm)
			for range rows {
				coords, units := make([]hierarchy.ID, dims), make([]int64, nm)
				for d := range coords {
					coords[d] = hierarchy.MakeID(0, uint32(rng.Intn(500)))
				}
				for j := range units {
					units[j] = rng.Int63n(2000) - 1000
				}
				leaf.appendRecord(coords, units)
			}
			return leaf
		}
		leaf, long := leafOf(300), leafOf(scanChunk+100)
		qc := &queryCtx{}
		for d := range dims {
			qc.rows = append(qc.rows, rowMask{dim: d, mask: randomMask(rng, 8, 0.7)})
		}
		out := make([]cube.Fixed, nm)
		for carrier, nv := range map[string]NodeView{"300-row": leaf.flat, "long": long.flat} {
			if allocs := testing.AllocsPerRun(20, func() { qc.scanRows(&nv, 0, out) }); allocs != 0 {
				t.Errorf("%s rows: %.0f allocations per scan, want 0", carrier, allocs)
			}
		}
	})
}

// TestOneBlockDataNodeIsOneSelection pins the premise that a one-block
// data node is one selection, and under AVX2 one kernel call: at the
// default block, no one-block data node holds more than scanChunk rows.
// The narrowest row a schema allows, one dimension of 1-byte codes and one
// measure of 1-byte units, fits the most: the root data node of such a
// tree grows to 2,027 rows in its one block before it splits. A
// bulk-loaded TPC-D tree of the cold-read workload's size packs 405 rows a
// node.
func TestOneBlockDataNodeIsOneSelection(t *testing.T) {
	narrow := cube.MustNewSchema([]*hierarchy.Hierarchy{hierarchy.MustNew("D", "Leaf")}, "M")
	ix, store := newBareIndex(t, narrow, DefaultConfig())
	most := 0
	for i := 0; ix.Height() == 1; i++ {
		rec, err := narrow.InternRecord([][]string{{fmt.Sprintf("v%d", i%200)}}, []float64{float64(i%200 - 100)})
		if err != nil {
			t.Fatal(err)
		}
		if root := store.nodes[ix.Root()]; root.Blocks() == 1 {
			most = root.Count()
		}
		if err := ix.Insert(rec); err != nil {
			t.Fatal(err)
		}
	}
	if want := (testBlockPayload - leafSize(2, 0, 2)) / 2; most != want || most > scanChunk {
		t.Errorf("a one-block data node of 2-byte rows held up to %d rows, want %d, at most scanChunk %d", most, want, scanChunk)
	}

	packed, _ := packedBenchTree(t)
	most = 0
	for _, n := range collectNodes(t, packed) {
		if n.leaf && n.Blocks() == 1 {
			most = max(most, n.Count())
		}
	}
	if most != 405 || most > scanChunk {
		t.Errorf("a bulk-loaded one-block TPC-D data node holds up to %d rows, want 405, at most scanChunk %d", most, scanChunk)
	}
}

// TestLeafKernelName: LeafKernel names the kernel the leaf scans run.
func TestLeafKernelName(t *testing.T) {
	for _, kernel := range leafKernels() {
		useLeafKernel(t, kernel)
		if got := LeafKernel(); got != kernel {
			t.Errorf("LeafKernel() = %q under the %s kernel", got, kernel)
		}
	}
}
