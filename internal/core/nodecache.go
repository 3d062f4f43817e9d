package core

import (
	"sync/atomic"

	"github.com/dcindex/dctree/internal/index"
)

// nodeCache holds the tree's resident nodes: every node a mutation created
// or faulted in through treeNodes.Get, until EvictCache drops the clean
// ones. Readers never write it — a query resolves a resident node here and
// frames every other one where it lies (treeNodes.View) — so it is written
// only under t.mu held exclusively and read under t.mu held either way, and
// needs no lock of its own.
//
// The dirty map carries a per-mark sequence number, not a boolean: a fuzzy
// checkpoint snapshots (id, seq) pairs under the tree lock, writes the
// captured payloads without it, and at install time clears a flag only if
// its sequence is unchanged — a node re-dirtied during the background write
// keeps its (newer) flag and is re-captured by the next checkpoint.
type nodeCache struct {
	nodes    map[nodeID]*index.Node
	dirty    map[nodeID]uint64
	dirtySeq uint64
	// dirtyCount mirrors len(dirty) for the checkpoint auto-trigger's
	// dirty-bytes estimate, which polls it without the tree lock.
	dirtyCount atomic.Int64
}

func newNodeCache() *nodeCache {
	return &nodeCache{
		nodes: make(map[nodeID]*index.Node),
		dirty: make(map[nodeID]uint64),
	}
}

// get returns the resident node or nil.
func (c *nodeCache) get(id nodeID) *index.Node { return c.nodes[id] }

// put makes a node resident.
func (c *nodeCache) put(n *index.Node) { c.nodes[n.ID()] = n }

// putNew inserts a freshly allocated node and marks it dirty.
func (c *nodeCache) putNew(n *index.Node) {
	c.put(n)
	c.markDirty(n.ID())
}

// markDirty flags a node for the next checkpoint. Every call advances the
// node's dirty sequence, so a checkpoint that captured an older sequence
// knows the node changed under it.
func (c *nodeCache) markDirty(id nodeID) {
	c.dirtySeq++
	if _, ok := c.dirty[id]; !ok {
		c.dirtyCount.Add(1)
	}
	c.dirty[id] = c.dirtySeq
}

// drop removes a node and its dirty flag.
func (c *nodeCache) drop(id nodeID) {
	delete(c.nodes, id)
	if _, ok := c.dirty[id]; ok {
		delete(c.dirty, id)
		c.dirtyCount.Add(-1)
	}
}

// dirtyEntry is one captured dirty flag: the node and the sequence of its
// latest mark at capture time.
type dirtyEntry struct {
	id  nodeID
	seq uint64
}

// dirtySnapshot captures the current dirty set with sequence numbers.
func (c *nodeCache) dirtySnapshot() []dirtyEntry {
	entries := make([]dirtyEntry, 0, len(c.dirty))
	for id, seq := range c.dirty {
		entries = append(entries, dirtyEntry{id: id, seq: seq})
	}
	return entries
}

// dirtyLen reports the number of nodes currently flagged dirty; it is the
// one method safe without the tree lock.
func (c *nodeCache) dirtyLen() int64 { return c.dirtyCount.Load() }

// clearDirtyIf removes a node's dirty flag only if its sequence still
// matches the captured one. It reports whether the flag was cleared; false
// means the node was re-dirtied (or dropped) after the capture and stays
// flagged for the next checkpoint.
func (c *nodeCache) clearDirtyIf(id nodeID, seq uint64) bool {
	if cur, ok := c.dirty[id]; !ok || cur != seq {
		return false
	}
	delete(c.dirty, id)
	c.dirtyCount.Add(-1)
	return true
}

// evictClean drops every node that is not dirty. Dirty nodes carry
// un-persisted state, so they stay resident until the next Flush.
func (c *nodeCache) evictClean() {
	for id := range c.nodes {
		if _, dirty := c.dirty[id]; !dirty {
			delete(c.nodes, id)
		}
	}
}

// len reports the number of resident nodes.
func (c *nodeCache) len() int { return len(c.nodes) }
