//go:build !amd64

package index

import (
	"unsafe"

	"github.com/dcindex/dctree/internal/bitmap"
)

// avx2Supported is false off amd64: the leaf kernel runs its Go loops.
const avx2Supported = false

// selectAVX2 is never called off amd64, where leafAVX2 stays false.
func selectAVX2(sel, src *[scanChunk]uint16, n int, col unsafe.Pointer, stride int, width uint32, mask bitmap.Dense) int {
	panic("index: the AVX2 leaf kernel runs on amd64 only")
}
