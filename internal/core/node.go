package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/dcindex/dctree/internal/cube"
	"github.com/dcindex/dctree/internal/hierarchy"
	"github.com/dcindex/dctree/internal/mds"
)

// entry is one slot of a DC-tree node. In a directory node it references a
// child node; in a data node it holds one data record. Either way it
// carries the describing MDS and the materialized aggregate vector of
// everything below it (for a record: the record's own measures) — the
// paper's "the measure value ... will be stored together with the MDS in
// each node of the DC-tree" (§3.2).
type entry struct {
	MDS   mds.MDS
	Agg   cube.AggVector
	Child nodeID      // directory entries only
	Rec   cube.Record // data entries only
}

// node is the in-memory form of a DC-tree node. A node's own MDS is not
// stored in the node but in its parent's entry (the root's in the tree
// metadata); it always equals the cover of the node's entry MDSs.
type node struct {
	id      nodeID
	leaf    bool
	blocks  int // logical size in blocks; >1 marks a supernode
	entries []entry
}

// capacity returns the entry capacity of the node under cfg, accounting for
// supernode extents (§4.2: "directory node capacity multiplied by the
// number of blocks of the supernode").
func (n *node) capacity(cfg *Config) int {
	per := cfg.DirCapacity
	if n.leaf {
		per = cfg.LeafCapacity
	}
	return per * n.blocks
}

// overflowing reports whether the node exceeds its (super)capacity.
func (n *node) overflowing(cfg *Config) bool {
	return len(n.entries) > n.capacity(cfg)
}

// isSuper reports whether the node is a supernode.
func (n *node) isSuper() bool { return n.blocks > 1 }

// aggregate computes the node's aggregate vector from its entries.
func (n *node) aggregate(measures int) cube.AggVector {
	v := cube.NewAggVector(measures)
	for i := range n.entries {
		v.Merge(n.entries[i].Agg)
	}
	return v
}

// Node encoding (one extent per node):
//
//	uint8    flags (bit 0: leaf)
//	uvarint  blocks
//	uvarint  entry count
//	per entry:
//	  MDS (mds codec)
//	  per measure: float64 sum, varint count, float64 min, float64 max
//	  directory: uvarint child page id
//	  leaf:      uint32 coord per dimension, float64 per measure

const nodeFlagLeaf = 1

// appendEncode serializes the node.
func (n *node) appendEncode(buf []byte, dims, measures int) []byte {
	var flags byte
	if n.leaf {
		flags |= nodeFlagLeaf
	}
	buf = append(buf, flags)
	buf = binary.AppendUvarint(buf, uint64(n.blocks))
	buf = binary.AppendUvarint(buf, uint64(len(n.entries)))
	for i := range n.entries {
		e := &n.entries[i]
		buf = e.MDS.AppendEncode(buf)
		for _, a := range e.Agg {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(a.Sum))
			buf = binary.AppendVarint(buf, a.Count)
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(a.Min))
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(a.Max))
		}
		if n.leaf {
			for _, c := range e.Rec.Coords {
				buf = binary.LittleEndian.AppendUint32(buf, uint32(c))
			}
			for _, m := range e.Rec.Measures {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(m))
			}
		} else {
			buf = binary.AppendUvarint(buf, uint64(e.Child))
		}
	}
	return buf
}

// decodeNode parses a node payload (layout v2, the varint stream).
//
// Per-entry state is carved out of node-scoped arenas — one backing array
// each for aggregate vectors, record coordinates, record measures, and the
// MDS dimension sets and ID values — so a node of k entries decodes with
// O(1) slice allocations instead of O(k). Every carve is a capacity-capped
// subslice: when an arena grows and reallocates, earlier entries keep
// aliasing the old backing array, which stays correct because decoded
// values are only ever mutated in place within an entry's own disjoint
// region, never appended through.
func decodeNode(id nodeID, buf []byte, dims, measures int) (*node, error) {
	if len(buf) < 1 {
		return nil, fmt.Errorf("%w: empty node %d", ErrCorrupt, id)
	}
	n := &node{id: id, leaf: buf[0]&nodeFlagLeaf != 0}
	off := 1
	blocks, k := binary.Uvarint(buf[off:])
	if k <= 0 || blocks < 1 {
		return nil, fmt.Errorf("%w: node %d blocks", ErrCorrupt, id)
	}
	off += k
	n.blocks = int(blocks)
	count, k := binary.Uvarint(buf[off:])
	if k <= 0 {
		return nil, fmt.Errorf("%w: node %d entry count", ErrCorrupt, id)
	}
	// Arena sizing: a hostile count must not drive a huge upfront
	// allocation, so cap the pre-size by what the remaining bytes could
	// possibly hold (every entry takes ≥ 2 bytes even when empty).
	if count > uint64(len(buf)-off) {
		return nil, fmt.Errorf("%w: node %d entry count", ErrCorrupt, id)
	}
	off += k
	n.entries = make([]entry, count)
	aggArena := make(cube.AggVector, int(count)*measures)
	var dimArena []mds.DimSet
	var idArena []hierarchy.ID
	var coordArena []hierarchy.ID
	var measureArena []float64
	if n.leaf {
		coordArena = make([]hierarchy.ID, 0, int(count)*dims)
		measureArena = make([]float64, 0, int(count)*measures)
	}
	for i := range n.entries {
		e := &n.entries[i]
		m, k, err := mds.AppendDecode(buf[off:], &dimArena, &idArena)
		if err != nil {
			return nil, fmt.Errorf("%w: node %d entry %d mds: %v", ErrCorrupt, id, i, err)
		}
		off += k
		e.MDS = m
		e.Agg = aggArena[i*measures : (i+1)*measures : (i+1)*measures]
		for j := 0; j < measures; j++ {
			if len(buf[off:]) < 8 {
				return nil, fmt.Errorf("%w: node %d entry %d agg", ErrCorrupt, id, i)
			}
			e.Agg[j].Sum = math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
			off += 8
			c, k := binary.Varint(buf[off:])
			if k <= 0 {
				return nil, fmt.Errorf("%w: node %d entry %d agg count", ErrCorrupt, id, i)
			}
			off += k
			e.Agg[j].Count = c
			if len(buf[off:]) < 16 {
				return nil, fmt.Errorf("%w: node %d entry %d agg minmax", ErrCorrupt, id, i)
			}
			e.Agg[j].Min = math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
			off += 8
			e.Agg[j].Max = math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
			off += 8
		}
		if n.leaf {
			if len(buf[off:]) < 4*dims+8*measures {
				return nil, fmt.Errorf("%w: node %d entry %d record", ErrCorrupt, id, i)
			}
			cs := len(coordArena)
			for d := 0; d < dims; d++ {
				coordArena = append(coordArena, hierarchy.ID(binary.LittleEndian.Uint32(buf[off:])))
				off += 4
			}
			e.Rec.Coords = coordArena[cs:len(coordArena):len(coordArena)]
			ms := len(measureArena)
			for j := 0; j < measures; j++ {
				measureArena = append(measureArena, math.Float64frombits(binary.LittleEndian.Uint64(buf[off:])))
				off += 8
			}
			e.Rec.Measures = measureArena[ms:len(measureArena):len(measureArena)]
		} else {
			child, k := binary.Uvarint(buf[off:])
			if k <= 0 || child == 0 {
				return nil, fmt.Errorf("%w: node %d entry %d child", ErrCorrupt, id, i)
			}
			off += k
			e.Child = nodeID(child)
		}
	}
	if off != len(buf) {
		return nil, fmt.Errorf("%w: node %d has %d trailing bytes", ErrCorrupt, id, len(buf)-off)
	}
	return n, nil
}
