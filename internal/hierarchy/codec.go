package hierarchy

import (
	"encoding/binary"
	"fmt"
)

// Binary encoding of a complete hierarchy (dimension dictionary), used when
// a DC-tree is persisted: the index is useless without its dictionaries, so
// they are stored in the tree's metadata blob.
//
// Layout:
//
//	uvarint  name length, name bytes
//	uvarint  level count
//	per level: uvarint level-name length, bytes
//	per level (leaf upward): uvarint value count; per value:
//	  uint32 parent ID, uvarint name length, name bytes
//
// Values are written in insertion (code) order, so decoding reassigns the
// identical IDs.

// AppendEncode appends the binary encoding of the hierarchy to buf.
func (h *Hierarchy) AppendEncode(buf []byte) []byte {
	buf = appendString(buf, h.name)
	buf = binary.AppendUvarint(buf, uint64(len(h.levelNames)))
	for _, ln := range h.levelNames {
		buf = appendString(buf, ln)
	}
	for level := 0; level < len(h.levelNames); level++ {
		ids := h.byLevel[level]
		buf = binary.AppendUvarint(buf, uint64(len(ids)))
		for _, id := range ids {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(h.parents[level][id.Code()]))
			buf = appendString(buf, h.valueNames[level][id.Code()])
		}
	}
	return buf
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// DecodeHierarchy parses a hierarchy from the front of buf, returning it and
// the number of bytes consumed.
func DecodeHierarchy(buf []byte) (*Hierarchy, int, error) {
	off := 0
	name, n, err := readString(buf[off:])
	if err != nil {
		return nil, 0, fmt.Errorf("hierarchy decode: name: %w", err)
	}
	off += n
	levels, n := binary.Uvarint(buf[off:])
	if n <= 0 || levels == 0 || levels > MaxLevel+1 {
		return nil, 0, fmt.Errorf("hierarchy decode: bad level count")
	}
	off += n
	levelNames := make([]string, levels)
	for i := range levelNames {
		levelNames[i], n, err = readString(buf[off:])
		if err != nil {
			return nil, 0, fmt.Errorf("hierarchy decode: level name %d: %w", i, err)
		}
		off += n
	}
	h, err := New(name, levelNames...)
	if err != nil {
		return nil, 0, err
	}
	for level := 0; level < int(levels); level++ {
		count, n := binary.Uvarint(buf[off:])
		if n <= 0 {
			return nil, 0, fmt.Errorf("hierarchy decode: value count at level %d", level)
		}
		off += n
		for i := uint64(0); i < count; i++ {
			if len(buf[off:]) < 4 {
				return nil, 0, fmt.Errorf("hierarchy decode: truncated parent at level %d", level)
			}
			parent := ID(binary.LittleEndian.Uint32(buf[off:]))
			off += 4
			vname, n, err := readString(buf[off:])
			if err != nil {
				return nil, 0, fmt.Errorf("hierarchy decode: value name: %w", err)
			}
			off += n
			// Parents live one level up and must already be decoded
			// (levels stream leaf-up, but parents reference upward) —
			// so defer wiring: register with raw parent and fix below.
			id, err := h.registerChildRaw(level, parent, vname)
			if err != nil {
				return nil, 0, err
			}
			if id.Code() != uint32(i) {
				return nil, 0, fmt.Errorf("hierarchy decode: non-dense code at level %d", level)
			}
		}
	}
	// Validate the parent links now that all levels are present; only then
	// may a parent code index (and size) the derived tables.
	if err := h.Validate(); err != nil {
		return nil, 0, fmt.Errorf("hierarchy decode: %w", err)
	}
	h.rebuild()
	return h, off, nil
}

// registerChildRaw is registerChild without the parent-existence implied by
// top-down registration; decoding streams levels leaf-up, so a value's
// parent ID is known before the parent value itself is materialized.
func (h *Hierarchy) registerChildRaw(level int, parent ID, name string) (ID, error) {
	key := scopedKey{parent, name}
	if _, ok := h.intern[level][key]; ok {
		return 0, fmt.Errorf("%w: duplicate %q at level %d", ErrInconsistent, name, level)
	}
	if len(h.byLevel[level]) > MaxCode {
		return 0, fmt.Errorf("%w: level %d of %q", ErrFull, level, h.name)
	}
	return h.add(level, key), nil
}

func readString(buf []byte) (string, int, error) {
	l, n := binary.Uvarint(buf)
	if n <= 0 {
		return "", 0, fmt.Errorf("bad length")
	}
	if uint64(len(buf)-n) < l {
		return "", 0, fmt.Errorf("truncated string")
	}
	return string(buf[n : n+int(l)]), n + int(l), nil
}
