package core

import (
	"bytes"
	"math/rand"
	"testing"
)

// Fuzz targets for the decoders that consume untrusted on-disk bytes. The
// invariant under test is uniform: arbitrary input yields an error (usually
// ErrCorrupt), never a panic, never an unbounded allocation.

// fuzzNegativeLength is the regression seed for the metaReader.string
// overflow: a uvarint above MaxInt64 whose int conversion used to go
// negative and defeat the bounds check.
func fuzzNegativeLength() []byte {
	return append(bytes.Repeat([]byte{0xff}, 9), 0x01)
}

func FuzzDecodeWALRecord(f *testing.F) {
	seedTree := newTestTree(f, smallConfig())
	recs := genRecords(f, seedTree.Schema(), rand.New(rand.NewSource(1)), 3)
	for _, payload := range retiredWALRecords() {
		f.Add(payload)
	}
	f.Add(encodeWALRecord(walOpInsert, recs[1]))
	f.Add(encodeWALRecord(walOpDelete, recs[2]))
	f.Add(encodeDictDelta([]dictDelta{{dim: 0, id: recs[0].Coords[0], name: "x"}}))
	f.Add([]byte{})
	f.Add([]byte{walOpDictDelta})
	f.Add(append([]byte{walOpInsert}, fuzzNegativeLength()...))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Fresh dictionaries per iteration: dict deltas register values, so
		// state must not leak across inputs.
		schema := testSchema(t)
		if len(data) > 0 && data[0] == walOpDictDelta {
			_ = applyDictDelta(schema, data)
			return
		}
		op, rec, err := decodeWALRecord(schema, data)
		if err != nil {
			return
		}
		if op != walOpInsert && op != walOpDelete {
			t.Fatalf("decoded op %d not canonical", op)
		}
		// Whatever decodes must be a fully valid record for the schema.
		if err := schema.ValidateRecord(rec); err != nil {
			t.Fatalf("decoded record fails validation: %v", err)
		}
	})
}

func FuzzDecodeMeta(f *testing.F) {
	blob := flushedMetaBlob(f)
	f.Add(blob)
	f.Add(metaFlagsBlob(f, blob, blob[metaFlagsOffset(f, blob)]|2))
	f.Add(blob[:len(blob)/2])
	f.Add([]byte(metaMagic))
	f.Add(append([]byte(metaMagic), fuzzNegativeLength()...))
	f.Add([]byte{})
	for _, retired := range retiredMetaBlobs(f) {
		f.Add(retired)
	}
	f.Add(metaFlagsBlob(f, blob, 8))        // a flag bit no build wrote
	f.Add(metaDirCapacityBlob(f, blob, 24)) // the retired directory capacity, as once written

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := decodeMeta(data)
		if err != nil {
			return
		}
		// A blob that decodes must describe a self-consistent tree.
		if tr.schema == nil || tr.schema.Dims() < 1 || tr.schema.Measures() < 1 {
			t.Fatal("decoded tree has no schema")
		}
		if _, ok := tr.table[tr.ix.Root()]; !ok {
			t.Fatal("decoded tree root has no extent")
		}
	})
}
