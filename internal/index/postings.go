package index

import (
	"math/bits"
	"slices"

	"github.com/dcindex/dctree/internal/hierarchy"
	"github.com/dcindex/dctree/internal/mds"
)

// postings is a heap directory's containment index, the per-level code →
// bitmap idea of Brisaboa et al. applied to one node's entries: per
// dimension, a small open-addressed table from a value to the mask of the
// entries whose set holds it. A value's ID carries its level, so one table
// serves every level a dimension's entries are described at. An entry
// contains a record in dimension d when its set is ALL or holds the
// record's ancestor at the set's level; the entries containing the record
// are the AND over dimensions of the ALL mask ORed with one lookup per
// level present.
//
// A mask is one word per 64 entries, so a supernode of any size is served.
// The table is an index over the entries, not a copy of them: it is built
// from the node's bytes by the first chooseSubtree or delete probe after
// they changed (Index.postings) and is never written to disk or read by a
// reader. Every site that changes an entry's MDS or the entry list calls
// Node.invalidatePostings; an aggregate update does not, nor a delete repair
// that drops no value. While valid, the
// table also answers the delete repair's questions: the coarsest level of a
// dimension's sets (memberLevels) and whether any set holds a value
// (underAny).
type postings struct {
	valid bool
	words int // mask words: one per 64 entries
	dims  []postingDim
	arena []uint64 // every dimension's ALL mask and table, carved by build
}

// postingDim is one dimension's table.
type postingDim struct {
	levels uint16   // bit l: some entry's set is at named level l
	all    []uint64 // the entries whose set is ALL
	// tab is open-addressed by a multiplicative hash, at most half full. A
	// slot is stride words: the value, then its mask, so that a lookup
	// reads one cache line. ALL, which no set below ALL holds, marks an
	// empty slot.
	tab    []uint64
	stride int
	used   int  // slots claimed
	shift  uint // 32 − log2(slots)
}

// postingScratch is the workspace of a build: seen counts one dimension's
// distinct values, and slots keeps every dimension's table size until the
// node's arena is carved.
type postingScratch struct {
	seen  postingDim
	slots []int
}

// minPostingSlots is the smallest table, for a dimension whose entries hold
// at most four values between them.
const minPostingSlots = 8

// emptySlot is the key of a slot no value has claimed.
const emptySlot = uint64(hierarchy.ALL)

// invalidatePostings marks a directory's postings stale. It is called
// wherever an entry's MDS or the entry list changes, not for the
// aggregate-only updates of every insert and delete path.
func (n *Node) invalidatePostings() {
	if n.post != nil {
		n.post.valid = false
	}
}

// postings returns n's postings, building them if n has none or they are
// stale. Only the write path — choose-subtree and the delete probe — calls
// it, under the exclusive hold.
func (ix *Index) postings(n *Node) *postings {
	if n.post == nil {
		n.post = new(postings)
	}
	if !n.post.valid {
		n.post.build(ix.ws.entryMDSs(n), ix.schema.Dims(), &ix.ws.post)
		ix.c.postingBuilds.Inc()
	}
	return n.post
}

// build fills the tables from the entries' MDSs, in the node's one arena,
// which it reuses while large enough. Entries share most of their values,
// so each dimension's values are first counted distinct, and its table is
// sized by that count, not by the sum of the entries' set sizes.
func (p *postings) build(entries []mds.MDS, dims int, ps *postingScratch) {
	words := (len(entries) + 63) / 64
	ps.slots = resize(ps.slots, dims)
	size := 0
	for d := range ps.slots {
		values := 0
		for i := range entries {
			if ds := &entries[i][d]; ds.Level != hierarchy.LevelALL {
				values += len(ds.IDs)
			}
		}
		seen := &ps.seen
		seen.tab = resize(seen.tab, postingSlots(values))
		seen.reset(1)
		for i := range entries {
			if ds := &entries[i][d]; ds.Level != hierarchy.LevelALL {
				for _, id := range ds.IDs {
					seen.insert(id)
				}
			}
		}
		ps.slots[d] = postingSlots(seen.used)
		size += words + ps.slots[d]*(1+words)
	}

	p.words = words
	p.dims = resize(p.dims, dims)
	p.arena = slices.Grow(p.arena[:0], size)[:size]
	off := 0
	for d := range p.dims {
		pd := &p.dims[d]
		pd.all = p.arena[off : off+words]
		off += words
		pd.tab = p.arena[off : off+ps.slots[d]*(1+words)]
		off += len(pd.tab)
		clear(pd.all)
		pd.reset(1 + words)
		for i := range entries {
			ds := &entries[i][d]
			if ds.Level == hierarchy.LevelALL {
				pd.all[i/64] |= 1 << (i % 64)
				continue
			}
			pd.levels |= 1 << ds.Level
			for _, id := range ds.IDs {
				pd.tab[pd.insert(id)+1+i/64] |= 1 << (i % 64)
			}
		}
	}
	p.valid = true
}

// postingSlots is the table size for the given number of distinct values:
// the smallest power of two at least twice it.
func postingSlots(values int) int {
	slots := minPostingSlots
	for slots < 2*values {
		slots <<= 1
	}
	return slots
}

// resize returns s at length n, reallocating only when its capacity is short.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// reset empties the table over its tab, in slots of stride words; the slot
// count must be a power of two.
func (pd *postingDim) reset(stride int) {
	pd.levels, pd.used, pd.stride = 0, 0, stride
	for s := 0; s < len(pd.tab); s += stride {
		pd.tab[s] = emptySlot
		clear(pd.tab[s+1 : s+stride])
	}
	pd.shift = uint(32 - bits.TrailingZeros(uint(len(pd.tab)/stride)))
}

// home is the offset of id's first slot: Fibonacci hashing, which spreads
// the consecutive codes of one level over the table.
func (pd *postingDim) home(id hierarchy.ID) int {
	return int(uint32(id)*0x9E3779B1>>pd.shift) * pd.stride
}

// next is the offset of the slot after the one at s, wrapping at the end.
func (pd *postingDim) next(s int) int {
	if s += pd.stride; s == len(pd.tab) {
		return 0
	}
	return s
}

// insert returns the offset of id's slot, claiming an empty one if id is
// not there.
func (pd *postingDim) insert(id hierarchy.ID) int {
	for s := pd.home(id); ; s = pd.next(s) {
		switch pd.tab[s] {
		case uint64(id):
			return s
		case emptySlot:
			pd.tab[s] = uint64(id)
			pd.used++
			return s
		}
	}
}

// coarsest returns the coarsest level of the dimension's sets: LevelALL if
// some entry's set is ALL, else the highest level bit (0 with no entries).
func (pd *postingDim) coarsest() int {
	for _, w := range pd.all {
		if w != 0 {
			return hierarchy.LevelALL
		}
	}
	return max(0, bits.Len16(pd.levels)-1)
}

// find returns the offset of id's slot, or -1 if no entry holds id.
func (pd *postingDim) find(id hierarchy.ID) int {
	for s := pd.home(id); ; s = pd.next(s) {
		switch pd.tab[s] {
		case uint64(id):
			return s
		case emptySlot:
			return -1
		}
	}
}

// containing loads into *acc the mask of the entries that contain the
// record whose ancestors are anc (recContext.anc), and returns it.
func (p *postings) containing(anc [][]hierarchy.ID, acc *[]uint64) []uint64 {
	out := resize(*acc, p.words)
	*acc = out
	for w := range out {
		out[w] = ^uint64(0)
	}
	var masks [hierarchy.MaxLevel + 1]int // offsets of the masks found
	for d := range p.dims {
		pd := &p.dims[d]
		k := 0
		for lv := pd.levels; lv != 0; lv &= lv - 1 {
			if s := pd.find(anc[d][bits.TrailingZeros16(lv)]); s >= 0 {
				masks[k] = s + 1
				k++
			}
		}
		left := uint64(0)
		for w := range out {
			m := pd.all[w]
			for _, s := range masks[:k] {
				m |= pd.tab[s+w]
			}
			out[w] &= m
			left |= out[w]
		}
		if left == 0 {
			break
		}
	}
	return out
}
