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
//	  uvarint parent code one level up (none at the top level: ALL),
//	  uvarint bytes shared with the level's previous name,
//	  uvarint length of the rest, the rest's bytes
//
// Values are written in insertion (code) order, so decoding reassigns the
// identical IDs. The names of a level are front-coded: generated names
// repeat long prefixes ("Customer#000123", "1992-01-01"), and a name costs
// only the bytes that differ from the one before it.

// AppendEncode appends the binary encoding of the hierarchy to buf.
func (h *Hierarchy) AppendEncode(buf []byte) []byte {
	buf = appendString(buf, h.name)
	buf = binary.AppendUvarint(buf, uint64(len(h.levelNames)))
	for _, ln := range h.levelNames {
		buf = appendString(buf, ln)
	}
	for level, parents := range h.parents {
		buf = binary.AppendUvarint(buf, uint64(len(parents)))
		prev := ""
		for c, p := range parents {
			if level < h.TopLevel() {
				buf = binary.AppendUvarint(buf, uint64(p.Code()))
			}
			name := h.valueNames[level][c]
			shared := 0
			for shared < min(len(prev), len(name)) && prev[shared] == name[shared] {
				shared++
			}
			buf = binary.AppendUvarint(buf, uint64(shared))
			buf = appendString(buf, name[shared:])
			prev = name
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
	name, n, err := readBytes(buf[off:])
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
		ln, n, err := readBytes(buf[off:])
		if err != nil {
			return nil, 0, fmt.Errorf("hierarchy decode: level name %d: %w", i, err)
		}
		levelNames[i] = string(ln)
		off += n
	}
	h, err := New(string(name), levelNames...)
	if err != nil {
		return nil, 0, err
	}
	var vname []byte // the level's previous name, then the current one
	for level := 0; level < int(levels); level++ {
		count, n := binary.Uvarint(buf[off:])
		if n <= 0 {
			return nil, 0, fmt.Errorf("hierarchy decode: value count at level %d", level)
		}
		off += n
		vname = vname[:0]
		for i := uint64(0); i < count; i++ {
			// Parents live one level up and are decoded after their
			// children (levels stream leaf-up), so a parent is taken on
			// its code here and checked by Validate below.
			parent := ALL
			if level < h.TopLevel() {
				code, n := binary.Uvarint(buf[off:])
				if n <= 0 {
					return nil, 0, fmt.Errorf("hierarchy decode: truncated parent at level %d", level)
				}
				if code > MaxCode {
					return nil, 0, fmt.Errorf("hierarchy decode: parent code %d past %d at level %d", code, MaxCode, level)
				}
				off += n
				parent = MakeID(level+1, uint32(code))
			}
			shared, n := binary.Uvarint(buf[off:])
			if n <= 0 {
				return nil, 0, fmt.Errorf("hierarchy decode: truncated value name at level %d", level)
			}
			if shared > uint64(len(vname)) {
				return nil, 0, fmt.Errorf("hierarchy decode: %d bytes shared with a previous name of %d at level %d",
					shared, len(vname), level)
			}
			off += n
			rest, n, err := readBytes(buf[off:])
			if err != nil {
				return nil, 0, fmt.Errorf("hierarchy decode: value name: %w", err)
			}
			off += n
			vname = append(vname[:shared], rest...)
			if err := h.registerChildRaw(level, parent, string(vname)); err != nil {
				return nil, 0, err
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
func (h *Hierarchy) registerChildRaw(level int, parent ID, name string) error {
	key := scopedKey{parent, name}
	if _, ok := h.intern[level][key]; ok {
		return fmt.Errorf("%w: duplicate %q at level %d", ErrInconsistent, name, level)
	}
	if len(h.parents[level]) > MaxCode {
		return fmt.Errorf("%w: level %d of %q", ErrFull, level, h.name)
	}
	h.add(level, key)
	return nil
}

// readBytes reads a uvarint length and that many bytes, which alias buf.
func readBytes(buf []byte) ([]byte, int, error) {
	l, n := binary.Uvarint(buf)
	if n <= 0 {
		return nil, 0, fmt.Errorf("bad length")
	}
	if uint64(len(buf)-n) < l {
		return nil, 0, fmt.Errorf("truncated string")
	}
	return buf[n : n+int(l)], n + int(l), nil
}
