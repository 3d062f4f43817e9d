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
		n++ // level byte
		if d.Level == hierarchy.LevelALL {
			n += binary.PutUvarint(tmp[:], 0)
			continue
		}
		n += binary.PutUvarint(tmp[:], uint64(len(d.IDs)))
		n += 4 * len(d.IDs)
	}
	return n
}

// AppendEncode appends the binary encoding of the MDS to buf.
func (m MDS) AppendEncode(buf []byte) []byte {
	buf = append(buf, uint8(len(m)))
	var tmp [binary.MaxVarintLen64]byte
	for _, d := range m {
		buf = append(buf, uint8(d.Level))
		if d.Level == hierarchy.LevelALL {
			buf = append(buf, tmp[:binary.PutUvarint(tmp[:], 0)]...)
			continue
		}
		buf = append(buf, tmp[:binary.PutUvarint(tmp[:], uint64(len(d.IDs)))]...)
		for _, id := range d.IDs {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(id))
		}
	}
	return buf
}

// Decode parses an MDS from the front of buf and returns it together with
// the number of bytes consumed.
func Decode(buf []byte) (MDS, int, error) {
	if len(buf) < 1 {
		return nil, 0, fmt.Errorf("mds: truncated header")
	}
	dims := int(buf[0])
	off := 1
	m := make(MDS, dims)
	for i := 0; i < dims; i++ {
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
			m[i] = AllDim()
			continue
		}
		if count == 0 {
			return nil, 0, fmt.Errorf("mds: empty value set in dim %d", i)
		}
		// Bound count by the remaining bytes in uint64 space: int(count)*4
		// would overflow for hostile counts near 2^62 and slip past the
		// check into a make() that panics.
		if count > uint64(len(buf)-off)/4 {
			return nil, 0, fmt.Errorf("mds: truncated values in dim %d", i)
		}
		ids := make([]hierarchy.ID, count)
		for j := range ids {
			ids[j] = hierarchy.ID(binary.LittleEndian.Uint32(buf[off:]))
			off += 4
		}
		m[i] = DimSet{Level: level, IDs: ids}
	}
	return m, off, nil
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
