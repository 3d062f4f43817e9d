package index

import "unsafe"

// avx2Supported reports whether this CPU and OS run the AVX2 leaf kernel:
// CPUID announces AVX, AVX2 and POPCNT, and XGETBV shows the OS saving the
// XMM and YMM registers across context switches (OSXSAVE first, without
// which XGETBV itself faults).
var avx2Supported = func() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const popcnt, osxsave, avx = 1 << 23, 1 << 27, 1 << 28
	if _, _, c, _ := cpuid(1, 0); c&(popcnt|osxsave|avx) != popcnt|osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, b, _, _ := cpuid(7, 0)
	return b&avx2 != 0
}()

// cpuid returns the registers CPUID sets for a leaf and subleaf.
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns XCR0, the register state the OS saves.
func xgetbv() (eax, edx uint32)

// compactTable is the kernel's permutation table: entry m moves the 16-bit
// lanes whose bit is set in the keep mask m to the front, in order.
var compactTable = func() (t [256][16]byte) {
	for m := range t {
		j := 0
		for lane := range 8 {
			if m>>lane&1 != 0 {
				t[m][2*j], t[m][2*j+1] = byte(2*lane), byte(2*lane+1)
				j++
			}
		}
		for ; j < 8; j++ {
			t[m][2*j], t[m][2*j+1] = 0x80, 0x80
		}
	}
	return t
}()

// selectAVX2 is the leaf kernel's AVX2 routine, in assembly
// (leafkernel_amd64.s): it runs every pass of the table over the n rows at
// rows, stride bytes apart, and leaves in sel the indexes of the rows that
// pass them all, in order, returning their number. A pass's code is the 4
// bytes at its off in a row, cut by its width, and a row passes when the
// pass's mask holds it. The first pass reads the row indexes from
// rowIndexes, each later one compacts sel in place; the write cursor never
// passes the read position. passes is never empty, and nothing the routine
// is passed escapes, which keeps scanRows' selection vector off the heap.
//
//go:noescape
func selectAVX2(sel *[scanChunk]uint16, n int, rows unsafe.Pointer, stride int, passes []leafPass) int
