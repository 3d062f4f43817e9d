package mds

import (
	"encoding/binary"
	"fmt"

	"github.com/dcindex/dctree/internal/hierarchy"
)

// The on-page encoding of an MDS (used by internal/storage):
//
//	uint8            dimension count
//	per dimension:
//	  uint8          relevant level (hierarchy.LevelALL for the ALL entry)
//	  uvarint        value count
//	  per value:     uint32 little-endian packed ID
//
// The ALL entry is encoded with level tag LevelALL and zero values; the
// single implicit ALL ID is reconstructed on decode. MDSs are variable
// sized by design (§3.2: "an MDS has to store more information and it has
// variable size"); EncodedSize lets node layout code budget page space.

// EncodedSize returns the exact number of bytes AppendEncode will write.
func (m MDS) EncodedSize() int {
	n := 1
	var tmp [binary.MaxVarintLen64]byte
	for _, d := range m {
		count := len(d.IDs)
		if d.Level == hierarchy.LevelALL {
			count = 0 // ALL is encoded without its one value
		}
		n += 1 + binary.PutUvarint(tmp[:], uint64(count)) + 4*count
	}
	return n
}

// AppendEncode appends the binary encoding of the MDS to buf.
func (m MDS) AppendEncode(buf []byte) []byte {
	buf = append(buf, uint8(len(m)))
	for _, d := range m {
		ids := d.IDs
		if d.Level == hierarchy.LevelALL {
			ids = nil // ALL is encoded without its one value
		}
		buf = binary.AppendUvarint(append(buf, uint8(d.Level)), uint64(len(ids)))
		for _, id := range ids {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(id))
		}
	}
	return buf
}

// Decode parses an MDS from the front of buf and returns it together with
// the number of bytes consumed: AppendDecode into arenas of its own.
func Decode(buf []byte) (MDS, int, error) {
	var dims []DimSet
	var ids []hierarchy.ID
	return AppendDecode(buf, &dims, &ids)
}

// AppendDecode parses an MDS from the front of buf, carving the result out
// of the caller's arenas: dimension sets are appended to
// *dims and ID values, ALL's too, to *ids, and the returned MDS (plus each
// DimSet.IDs) is a capacity-capped subslice of them. Arena growth
// reallocations leave previously returned subslices aliasing the old
// backing arrays, which stay valid because a decoded set is only ever
// changed within its own region, never appended through. One node's worth
// of entries therefore decodes with O(1) slice allocations instead of
// O(dims) per entry, and a reused arena with none.
func AppendDecode(buf []byte, dims *[]DimSet, ids *[]hierarchy.ID) (MDS, int, error) {
	if len(buf) < 1 {
		return nil, 0, fmt.Errorf("mds: truncated header")
	}
	ds, vs := *dims, *ids // locals, so that the loops keep them in registers
	nd, off, dimStart := int(buf[0]), 1, len(ds)
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
		start := len(vs)
		switch {
		case level == hierarchy.LevelALL && count != 0:
			return nil, 0, fmt.Errorf("mds: ALL entry with %d values in dim %d", count, i)
		case level == hierarchy.LevelALL:
			vs = append(vs, hierarchy.ALL)
		case count == 0:
			return nil, 0, fmt.Errorf("mds: empty value set in dim %d", i)
		// Bound count by the remaining bytes in uint64 space: int(count)*4
		// would overflow for hostile counts near 2^62 and slip past the
		// check into an append that panics or over-allocates.
		case count > uint64(len(buf)-off)/4:
			return nil, 0, fmt.Errorf("mds: truncated values in dim %d", i)
		default:
			for range count {
				vs = append(vs, hierarchy.ID(binary.LittleEndian.Uint32(buf[off:])))
				off += 4
			}
		}
		ds = append(ds, DimSet{Level: level, IDs: vs[start:len(vs):len(vs)]})
	}
	*dims, *ids = ds, vs
	return MDS(ds[dimStart:len(ds):len(ds)]), off, nil
}
