//go:build linux

package index

import (
	"math/rand"
	"slices"
	"syscall"
	"testing"

	"github.com/dcindex/dctree/internal/cube"
	"github.com/dcindex/dctree/internal/hierarchy"
)

// TestScanEndsAtBufferEnd: a data node whose bytes end exactly where
// readable memory ends — the last byte of a mapped page, behind which a
// page no access may touch — is scanned by each leaf kernel without a load
// past it: the pad behind the rows holds every load of the last row, a
// code's 4 bytes and a measure's 8. The nodes are the narrowest rows, one
// 1-byte code and one 1-byte measure, whose last loads reach furthest into
// the pad, and wider ones; each scan selects and folds what the same node
// in a heap block does.
func TestScanEndsAtBufferEnd(t *testing.T) {
	page := syscall.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 2*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("no anonymous mapping: %v", err)
	}
	defer syscall.Munmap(mem)
	if err := syscall.Mprotect(mem[page:], syscall.PROT_NONE); err != nil {
		t.Skipf("no guard page: %v", err)
	}
	rng := rand.New(rand.NewSource(91))
	forEachLeafKernel(t, func(t *testing.T) {
		for _, c := range []struct{ dims, nm, rows int }{{1, 1, 1}, {1, 1, 9}, {1, 1, 600}, {3, 2, 77}} {
			n := NewNode(1, true, c.dims, c.nm)
			coords, units := make([]hierarchy.ID, c.dims), make([]int64, c.nm)
			for range c.rows {
				for d := range coords {
					coords[d] = hierarchy.MakeID(0, uint32(rng.Intn(200)))
				}
				for j := range units {
					units[j] = rng.Int63n(200) - 100
				}
				n.appendRecord(coords, units)
			}
			b := (&Index{}).Encode(n)
			if len(b) > page {
				t.Fatalf("%d rows take %d bytes, past a page", c.rows, len(b))
			}
			guarded := mem[page-len(b) : page : page]
			copy(guarded, b)
			f, err := MakeFlatNode(1, guarded, c.dims, c.nm)
			if err != nil {
				t.Fatal(err)
			}
			qc := &queryCtx{}
			for d := range c.dims {
				qc.rows = append(qc.rows, rowMask{dim: d, mask: randomMask(rng, 4, 0.6)})
			}
			got, want := make([]cube.Fixed, c.nm), make([]cube.Fixed, c.nm)
			rows, matched := qc.scanRows(&f, 0, got)
			wantRows, wantMatched := qc.scanRows(&n.flat, 0, want)
			if rows != wantRows || matched != wantMatched || !slices.Equal(got, want) {
				t.Fatalf("%d×%d columns, %d rows: scanned %d matched %d %v at the page's end, %d %d %v in a heap block",
					c.dims, c.nm, c.rows, rows, matched, got, wantRows, wantMatched, want)
			}
		}
	})
}
