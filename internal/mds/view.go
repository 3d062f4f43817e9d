package mds

import (
	"encoding/binary"
	"fmt"

	"github.com/dcindex/dctree/internal/hierarchy"
)

// Zero-copy access to encoded MDSs.
//
// The flat node layout of internal/core keeps every entry's MDS in its wire
// encoding and prunes directly over the bytes. ViewIter walks one encoded
// MDS without materializing DimSets or copying ID slices: the descent reads
// each dimension's level tag and tests its IDs against the query masks in
// place, at whatever level the entry is described.
//
// AppendDecode is the arena-backed sibling of Decode: it parses into
// caller-owned DimSet and ID slices so a node decoder can amortize one
// allocation across every entry of the node instead of paying one per
// dimension set.

// DimView is a read-only view of one dimension set inside an encoded MDS:
// the level tag plus the raw little-endian ID words, still in the buffer
// they were decoded from. The zero value is not meaningful.
type DimView struct {
	Level int
	ids   []byte // 4 bytes per ID, little-endian; empty for the ALL entry
}

// IsALL reports whether the dimension is unconstrained.
func (v DimView) IsALL() bool { return v.Level == hierarchy.LevelALL }

// Len returns the number of IDs (0 for the ALL entry, whose single ALL
// value is implicit).
func (v DimView) Len() int { return len(v.ids) / 4 }

// ID returns the i-th ID without bounds checking beyond the slice's own.
func (v DimView) ID(i int) hierarchy.ID {
	return hierarchy.ID(binary.LittleEndian.Uint32(v.ids[4*i:]))
}

// ViewIter is a sequential cursor over the dimension sets of one encoded
// MDS. Create it with NewViewIter and call Next exactly Dims times; any
// malformed input surfaces as Next returning ok=false, so callers fail
// closed without error plumbing per dimension.
type ViewIter struct {
	b    []byte
	off  int
	dims int
	i    int
}

// NewViewIter opens a cursor over an encoded MDS and returns its dimension
// count. The buffer must contain exactly one encoded MDS; Rem reports
// trailing bytes after the last dimension.
func NewViewIter(b []byte) (ViewIter, error) {
	if len(b) < 1 {
		return ViewIter{}, fmt.Errorf("mds: truncated header")
	}
	return ViewIter{b: b, off: 1, dims: int(b[0])}, nil
}

// Dims returns the encoded dimension count.
func (it *ViewIter) Dims() int { return it.dims }

// Next returns the next dimension set view. ok is false once all dimensions
// were consumed or the encoding is malformed (truncated, ALL entry with
// values, empty non-ALL value set) — indistinguishable by design; callers
// that must tell them apart compare the count of successful calls to Dims.
func (it *ViewIter) Next() (v DimView, ok bool) {
	if it.i >= it.dims || it.off >= len(it.b) {
		return DimView{}, false
	}
	level := int(it.b[it.off])
	it.off++
	count, n := binary.Uvarint(it.b[it.off:])
	if n <= 0 {
		return DimView{}, false
	}
	it.off += n
	if level == hierarchy.LevelALL {
		if count != 0 {
			return DimView{}, false
		}
		it.i++
		return DimView{Level: hierarchy.LevelALL}, true
	}
	if count == 0 || count > uint64(len(it.b)-it.off)/4 {
		return DimView{}, false
	}
	v = DimView{Level: level, ids: it.b[it.off : it.off+int(count)*4]}
	it.off += int(count) * 4
	it.i++
	return v, true
}

// AppendDecode parses an MDS from the front of buf like Decode, but carves
// the result out of the caller's arenas: dimension sets are appended to
// *dims and ID values to *ids, and the returned MDS (plus each DimSet.IDs)
// is a capacity-capped subslice of them. Arena growth reallocations leave
// previously returned subslices aliasing the old backing arrays, which stay
// valid because decoded values are never mutated. One node's worth of
// entries therefore decodes with O(1) slice allocations instead of O(dims)
// per entry.
func AppendDecode(buf []byte, dims *[]DimSet, ids *[]hierarchy.ID) (MDS, int, error) {
	if len(buf) < 1 {
		return nil, 0, fmt.Errorf("mds: truncated header")
	}
	nd := int(buf[0])
	off := 1
	dimStart := len(*dims)
	for i := 0; i < nd; i++ {
		if off >= len(buf) {
			return nil, 0, fmt.Errorf("mds: truncated level byte in dim %d", i)
		}
		level := int(buf[off])
		off++
		count, n := binary.Uvarint(buf[off:])
		if n <= 0 {
			return nil, 0, fmt.Errorf("mds: bad value count in dim %d", i)
		}
		off += n
		if level == hierarchy.LevelALL {
			if count != 0 {
				return nil, 0, fmt.Errorf("mds: ALL entry with %d values in dim %d", count, i)
			}
			*dims = append(*dims, AllDim())
			continue
		}
		if count == 0 {
			return nil, 0, fmt.Errorf("mds: empty value set in dim %d", i)
		}
		// Bound count by the remaining bytes in uint64 space: int(count)*4
		// would overflow for hostile counts near 2^62 and slip past the
		// check into an append that panics or over-allocates.
		if count > uint64(len(buf)-off)/4 {
			return nil, 0, fmt.Errorf("mds: truncated values in dim %d", i)
		}
		idStart := len(*ids)
		for j := 0; j < int(count); j++ {
			*ids = append(*ids, hierarchy.ID(binary.LittleEndian.Uint32(buf[off:])))
			off += 4
		}
		set := (*ids)[idStart:len(*ids):len(*ids)]
		*dims = append(*dims, DimSet{Level: level, IDs: set})
	}
	m := MDS((*dims)[dimStart:len(*dims):len(*dims)])
	return m, off, nil
}
