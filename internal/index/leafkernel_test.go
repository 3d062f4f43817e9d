package index

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"

	"github.com/dcindex/dctree/internal/bitmap"
	"github.com/dcindex/dctree/internal/cube"
	"github.com/dcindex/dctree/internal/hierarchy"
)

// The leaf kernel's AVX2 passes against its Go loops: the same rows
// selected, in the same order, from the same input.

// selectCase is one pass of the leaf kernel over a chunk of flat rows: the
// code at off in each stride-byte row, cut by width and tested against mask.
// A first pass reads rows 0..k-1; a later one the k indexes in kept, in
// place.
type selectCase struct {
	chunk       []byte
	off, stride int
	width       uint32
	mask        bitmap.Dense
	k           int
	kept        []uint16 // nil: the first pass
}

// run runs the pass under the current kernel and returns the selection.
func (c selectCase) run() []uint16 {
	var sel [scanChunk]uint16
	if c.kept == nil {
		return slices.Clone(sel[:selectFlatAll(&sel, c.chunk[c.off:], c.k, c.stride, c.width, c.mask)])
	}
	copy(sel[:], c.kept)
	// Rows past k hold what an earlier pass left there: the pass must
	// neither read them nor let them through.
	for i := len(c.kept); i < scanChunk; i++ {
		sel[i] = 0xFFFF
	}
	return slices.Clone(sel[:selectFlatKept(&sel, c.chunk[c.off:], len(c.kept), c.stride, c.width, c.mask)])
}

// check runs the case under both kernels and fails unless they agree.
func (c selectCase) check(t *testing.T, name string) {
	t.Helper()
	was := leafAVX2
	leafAVX2 = false
	want := c.run()
	leafAVX2 = true
	got := c.run()
	leafAVX2 = was
	if !slices.Equal(got, want) {
		t.Fatalf("%s: avx2 selected %v, go %v", name, got, want)
	}
}

// randomChunk returns scanChunk rows of stride bytes, each holding at off a
// code below limit written in its width's bytes, every other byte random:
// what a row holds behind a code (the next code or a measure) is read by
// the 4-byte load and must be cut away by the width.
func randomChunk(rng *rand.Rand, stride, off int, width uint32, limit uint32) []byte {
	chunk := make([]byte, scanChunk*stride)
	rng.Read(chunk)
	for i := range scanChunk {
		o := i*stride + off
		raw := binary.LittleEndian.Uint32(chunk[o:])
		binary.LittleEndian.PutUint32(chunk[o:], raw&^width|uint32(rng.Int63n(int64(limit)))&width)
	}
	return chunk
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

// randomKept returns k distinct row indexes in order.
func randomKept(rng *rand.Rand, k int) []uint16 {
	kept := make([]uint16, 0, k)
	for _, i := range rng.Perm(scanChunk)[:k] {
		kept = append(kept, uint16(i))
	}
	slices.Sort(kept)
	return kept
}

// cutWidths are the widths a pass cuts codes to: a flat row's 1 to 4
// bytes, and a heap coordinate's hierarchy.MaxCode, whose level bits the
// cut clears.
var cutWidths = []uint32{widthMask(1), widthMask(2), widthMask(3), widthMask(4), hierarchy.MaxCode}

// TestSelectRowsMatchesGo holds the AVX2 passes to the Go loops on every
// stride from 4 (one 4-byte code) to 4·dims + 8·measures of four dimensions
// and three measures, at a random code offset the stride allows, every cut
// width, masks of 0, 1, 2 or 5 words in turn with codes up to 100 past their
// end, and every pass length 0 to 256 — under 8, and not a multiple of 8,
// included — both reading the index table and compacting in place.
func TestSelectRowsMatchesGo(t *testing.T) {
	if !avx2Supported {
		t.Skip("this CPU does not run the AVX2 leaf kernel")
	}
	rng := rand.New(rand.NewSource(45))
	const dims, measures = 4, 3
	maskWords := []int{0, 1, 2, 5}
	for stride := 4; stride <= 4*dims+8*measures; stride++ {
		for w, width := range cutWidths {
			words := maskWords[(stride+w)%len(maskWords)]
			c := selectCase{off: rng.Intn(stride - 3), stride: stride, width: width}
			c.chunk = randomChunk(rng, stride, c.off, width, uint32(64*words+100))
			c.mask = randomMask(rng, words, rng.Float64())
			for k := 0; k <= scanChunk; k++ {
				c.k, c.kept = k, nil
				c.check(t, "first pass")
				c.kept = randomKept(rng, k)
				c.check(t, "in place")
			}
		}
	}
}

// FuzzSelectRows is TestSelectRowsMatchesGo's differential on inputs the
// fuzzer chooses: the rows' bytes, the stride, offset and width, the mask's
// words, the pass length and the rows a later pass starts from.
func FuzzSelectRows(f *testing.F) {
	if !avx2Supported {
		f.Skip("this CPU does not run the AVX2 leaf kernel")
	}
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, []byte{0xAA, 0x55}, uint8(12), uint8(0), uint8(1), uint16(256), int64(1))
	f.Add([]byte{0xFF}, []byte{}, uint8(4), uint8(0), uint8(3), uint16(9), int64(2))
	f.Add([]byte{7, 0, 0, 0xF0}, []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, uint8(16), uint8(4), uint8(4), uint16(200), int64(3))
	f.Fuzz(func(t *testing.T, rows, mask []byte, stride, off, width uint8, k uint16, seed int64) {
		c := selectCase{stride: 4 + int(stride)%61, width: cutWidths[int(width)%len(cutWidths)], k: int(k) % (scanChunk + 1)}
		c.off = int(off) % (c.stride - 3)
		c.chunk = make([]byte, scanChunk*c.stride)
		for i := 0; len(rows) > 0 && i < len(c.chunk); i += len(rows) {
			copy(c.chunk[i:], rows)
		}
		c.mask = bitmap.Dense(make([]uint64, len(mask)/8))
		for w := range c.mask {
			c.mask[w] = binary.LittleEndian.Uint64(mask[8*w:])
		}
		c.check(t, "first pass")
		c.kept = randomKept(rand.New(rand.NewSource(seed)), c.k)
		c.check(t, "in place")
	})
}

// TestScanRowsAllocations holds the leaf kernel to zero allocations under
// either kernel, on both row carriers: the selection vector stays on the
// stack, which an escaping argument of the assembly would undo.
func TestScanRowsAllocations(t *testing.T) {
	forEachLeafKernel(t, func(t *testing.T) {
		const dims, nm = 3, 2
		rng := rand.New(rand.NewSource(46))
		leaf := NewNode(0, true, dims, nm)
		for range 300 {
			rec := cube.Record{Coords: make([]hierarchy.ID, dims), Measures: make([]float64, nm)}
			for d := range rec.Coords {
				rec.Coords[d] = hierarchy.MakeID(0, uint32(rng.Intn(500)))
			}
			leaf.appendRecord(rec)
		}
		qc := &queryCtx{}
		for d := range dims {
			qc.rows = append(qc.rows, rowMask{dim: d, mask: randomMask(rng, 8, 0.7)})
		}
		out := cube.NewAggVector(nm)
		for carrier, nv := range map[string]NodeView{"heap": {n: leaf}, "flat": {f: flatOf(1, leaf, dims, nm)}} {
			if allocs := testing.AllocsPerRun(20, func() { qc.scanRows(&nv, 0, out) }); allocs != 0 {
				t.Errorf("%s rows: %.0f allocations per scan, want 0", carrier, allocs)
			}
		}
	})
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
