package hierarchy

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
)

// codecShapes are hierarchies whose names exercise the front coding: a name
// that is a prefix of the one before it (an empty rest), a name repeated
// under another parent (all of it shared), a shared prefix of 128 bytes or
// more (a two-byte uvarint), names that are not UTF-8, and a one-level
// hierarchy, whose values write no parent.
func codecShapes(t testing.TB) map[string]*Hierarchy {
	t.Helper()
	long := strings.Repeat("p", 130)
	shapes := map[string][][]string{
		"prefix-of-previous": {{"R", "c-10"}, {"R", "c-1"}, {"S", "c-1"}, {"S", "c-"}},
		"long-prefix":        {{"R", long + "a"}, {"R", long + "b"}, {"S", long}},
		"not-utf8":           {{"\xff", "\xfe\xff"}, {"\xff", "\xfe\xfe"}, {"\x80", "\xfe"}},
		"top-level-only":     {{"a"}, {"ab"}, {""}},
	}
	out := make(map[string]*Hierarchy, len(shapes))
	for name, paths := range shapes {
		levels := []string{"Leaf", "Top"}[:len(paths[0])]
		h, err := New(name, levels...)
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range paths {
			if _, err := h.Register(path...); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		out[name] = h
	}
	return out
}

// TestHierarchyCodecReencodes: decoding an encoding and encoding the result
// gives the same bytes, and every value keeps its ID, name and parent.
func TestHierarchyCodecReencodes(t *testing.T) {
	for name, h := range codecShapes(t) {
		enc := h.AppendEncode(nil)
		dec, n, err := DecodeHierarchy(enc)
		if err != nil || n != len(enc) {
			t.Fatalf("%s: decode consumed %d of %d bytes: %v", name, n, len(enc), err)
		}
		if again := dec.AppendEncode(nil); !bytes.Equal(again, enc) {
			t.Errorf("%s: re-encoding differs:\n%x\n%x", name, again, enc)
		}
		for level := range h.Depth() {
			ids, _ := h.ValuesAt(level)
			for _, id := range ids {
				want, _ := h.Path(id)
				if got, err := dec.Path(id); err != nil || got != want {
					t.Errorf("%s: %v decodes as %q (%v), want %q", name, id, got, err, want)
				}
			}
		}
	}
}

// encodeRaw writes a hierarchy named "H" of the given level names whose
// levels hold the given values, each as its uvarint words (the parent code
// where the level has one, the shared count, the rest's length) followed
// by the rest.
func encodeRaw(levels []string, values [][][]any) []byte {
	buf := appendString(nil, "H")
	buf = binary.AppendUvarint(buf, uint64(len(levels)))
	for _, l := range levels {
		buf = appendString(buf, l)
	}
	for _, level := range values {
		buf = binary.AppendUvarint(buf, uint64(len(level)))
		for _, v := range level {
			for _, w := range v {
				switch w := w.(type) {
				case int:
					buf = binary.AppendUvarint(buf, uint64(w))
				case string:
					buf = append(buf, w...)
				}
			}
		}
	}
	return buf
}

// TestHierarchyCodecRefusals: the decoder refuses a shared count past the
// previous name, a parent code past MaxCode, a parent code past its level,
// and a name repeated under one parent.
func TestHierarchyCodecRefusals(t *testing.T) {
	two := []string{"Leaf", "Top"}
	top := [][]any{{0, 1, "t"}}
	for name, c := range map[string]struct {
		buf  []byte
		want string // in the error
	}{
		"shared past previous": {encodeRaw([]string{"Top"}, [][][]any{{{0, 2, "ab"}, {3, 0}}}), "3 bytes shared"},
		"shared on first name": {encodeRaw([]string{"Top"}, [][][]any{{{1, 1, "a"}}}), "1 bytes shared"},
		"parent past MaxCode":  {encodeRaw(two, [][][]any{{{MaxCode + 1, 0, 1, "a"}}, top}), "parent code 268435456"},
		"parent past level":    {encodeRaw(two, [][][]any{{{1, 0, 1, "a"}}, top}), "not registered"},
		"duplicate name":       {encodeRaw(two, [][][]any{{{0, 0, 1, "a"}, {0, 1, 0}}, top}), "duplicate"},
	} {
		if _, _, err := DecodeHierarchy(c.buf); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err %v, want one naming %q", name, err, c.want)
		}
	}
	valid := encodeRaw(two, [][][]any{{{0, 0, 1, "a"}, {0, 1, 1, "b"}}, top})
	if _, n, err := DecodeHierarchy(valid); err != nil || n != len(valid) {
		t.Fatalf("the refusals' valid counterpart: %d of %d bytes, %v", n, len(valid), err)
	}
}
