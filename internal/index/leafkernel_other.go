//go:build !amd64

package index

import "unsafe"

// avx2Supported is false off amd64: the leaf kernel runs its Go loops.
const avx2Supported = false

// selectAVX2 is never called off amd64, where leafAVX2 stays false.
func selectAVX2(sel *[scanChunk]uint16, n int, rows unsafe.Pointer, stride int, passes []leafPass) int {
	panic("index: the AVX2 leaf kernel runs on amd64 only")
}
