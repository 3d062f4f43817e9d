package hierarchy

import (
	"bytes"
	"sort"
	"testing"
)

// FuzzDecodeHierarchy: arbitrary bytes must either fail or produce a
// hierarchy that passes Validate, lists every decoded value in exactly its
// father's child slice, and round-trips through the encoder.
func FuzzDecodeHierarchy(f *testing.F) {
	h, err := New("Customer", "Region", "Nation", "Customer")
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range [][]string{
		{"EMEA", "Germany", "c-1"},
		{"EMEA", "Germany", "c-2"},
		{"EMEA", "France", "c-3"},
		{"APAC", "Japan", "c-4"},
	} {
		if _, err := h.Register(path...); err != nil {
			f.Fatal(err)
		}
	}
	valid := h.AppendEncode(nil)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	// Negative-length regression seed: uvarint above MaxInt64.
	f.Add(append(bytes.Repeat([]byte{0xff}, 9), 0x01))
	// The front coding's edges: a name a prefix of the one before it, an
	// empty rest, a shared prefix of 128 bytes or more, bytes that are not
	// UTF-8, a top level with no parent, and a shared count past the
	// previous name.
	shapes := codecShapes(f)
	names := make([]string, 0, len(shapes))
	for name := range shapes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f.Add(shapes[name].AppendEncode(nil))
	}
	f.Add(encodeRaw([]string{"Top"}, [][][]any{{{0, 2, "ab"}, {3, 0}}}))

	f.Fuzz(func(t *testing.T, data []byte) {
		dec, n, err := DecodeHierarchy(data)
		if err != nil {
			return
		}
		if n < 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		if err := dec.Validate(); err != nil {
			t.Fatalf("decoded hierarchy fails validation: %v", err)
		}
		checkChildTable(t, dec)
		// Round-trip: re-encoding the decoded hierarchy and decoding again
		// must reproduce an identical encoding (IDs are assigned in stream
		// order, so the encoding is canonical).
		enc := dec.AppendEncode(nil)
		dec2, _, err := DecodeHierarchy(enc)
		if err != nil {
			t.Fatalf("re-decode of canonical encoding: %v", err)
		}
		if !bytes.Equal(enc, dec2.AppendEncode(nil)) {
			t.Fatal("canonical encoding not stable across a round trip")
		}
	})
}
