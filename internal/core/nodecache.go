package core

import (
	"sync"
	"sync/atomic"

	"github.com/dcindex/dctree/internal/index"
)

// The node cache is sharded so that concurrent query workers resolving
// cache hits never contend on a single lock: a hit takes only one shard
// RLock, which scales with cores. 2^cacheShardBits shards keep the modulo a
// mask; 16 shards comfortably exceed the worker counts the parallel descent
// runs at while keeping the per-tree footprint trivial. Node IDs are
// sequential, so they are spread over shards with a Fibonacci multiplicative
// hash rather than by their low bits.
const (
	cacheShardBits = 4
	cacheShards    = 1 << cacheShardBits
)

// cacheShard is one lock domain of the node cache. nodes holds the resident
// nodes, dirty the IDs awaiting the next checkpoint, and inflight the
// singleflight table: at most one goroutine faults a given node from the
// store while every concurrent requester waits on its done channel instead
// of decoding the same extent again.
//
// The dirty map carries a per-mark sequence number, not a boolean: a fuzzy
// checkpoint snapshots (id, seq) pairs under the tree lock, writes the
// captured payloads without it, and at install time clears a flag only if
// its sequence is unchanged — a node re-dirtied during the background write
// keeps its (newer) flag and is re-captured by the next checkpoint.
type cacheShard struct {
	mu       sync.RWMutex
	nodes    map[nodeID]*index.Node
	dirty    map[nodeID]uint64
	inflight map[nodeID]*nodeFault
}

// nodeFault is one in-progress fault; n and err are published before done
// is closed.
type nodeFault struct {
	done chan struct{}
	n    *index.Node
	err  error
}

// nodeCache is the tree's sharded in-memory node cache.
type nodeCache struct {
	shards [cacheShards]cacheShard
	// dirtySeq numbers every markDirty/putNew; dirtyCount tracks the
	// number of flagged nodes for the checkpoint auto-trigger's dirty-bytes
	// estimate without scanning the shards.
	dirtySeq   atomic.Uint64
	dirtyCount atomic.Int64
}

func newNodeCache() *nodeCache {
	c := &nodeCache{}
	for i := range c.shards {
		c.shards[i].nodes = make(map[nodeID]*index.Node)
		c.shards[i].dirty = make(map[nodeID]uint64)
	}
	return c
}

// shard maps a node ID to its shard.
func (c *nodeCache) shard(id nodeID) *cacheShard {
	return &c.shards[(uint64(id)*0x9E3779B97F4A7C15)>>(64-cacheShardBits)]
}

// get returns the cached node or nil, taking only the shard read lock.
func (c *nodeCache) get(id nodeID) *index.Node {
	sh := c.shard(id)
	sh.mu.RLock()
	n := sh.nodes[id]
	sh.mu.RUnlock()
	return n
}

// putNew inserts a freshly allocated node and marks it dirty.
func (c *nodeCache) putNew(n *index.Node) {
	id, seq := n.ID(), c.dirtySeq.Add(1)
	sh := c.shard(id)
	sh.mu.Lock()
	sh.nodes[id] = n
	if _, ok := sh.dirty[id]; !ok {
		c.dirtyCount.Add(1)
	}
	sh.dirty[id] = seq
	sh.mu.Unlock()
}

// markDirty flags a node for the next checkpoint. Every call advances the
// node's dirty sequence, so a checkpoint that captured an older sequence
// knows the node changed under it.
func (c *nodeCache) markDirty(id nodeID) {
	seq := c.dirtySeq.Add(1)
	sh := c.shard(id)
	sh.mu.Lock()
	if _, ok := sh.dirty[id]; !ok {
		c.dirtyCount.Add(1)
	}
	sh.dirty[id] = seq
	sh.mu.Unlock()
}

// drop removes a node and its dirty flag.
func (c *nodeCache) drop(id nodeID) {
	sh := c.shard(id)
	sh.mu.Lock()
	delete(sh.nodes, id)
	if _, ok := sh.dirty[id]; ok {
		delete(sh.dirty, id)
		c.dirtyCount.Add(-1)
	}
	sh.mu.Unlock()
}

// dirtyEntry is one captured dirty flag: the node and the sequence of its
// latest mark at capture time.
type dirtyEntry struct {
	id  nodeID
	seq uint64
}

// dirtySnapshot captures the current dirty set with sequence numbers.
func (c *nodeCache) dirtySnapshot() []dirtyEntry {
	var entries []dirtyEntry
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		for id, seq := range sh.dirty {
			entries = append(entries, dirtyEntry{id: id, seq: seq})
		}
		sh.mu.RUnlock()
	}
	return entries
}

// dirtyIDs snapshots the IDs currently flagged dirty.
func (c *nodeCache) dirtyIDs() []nodeID {
	entries := c.dirtySnapshot()
	ids := make([]nodeID, len(entries))
	for i, e := range entries {
		ids[i] = e.id
	}
	return ids
}

// dirtyLen reports the number of nodes currently flagged dirty.
func (c *nodeCache) dirtyLen() int64 { return c.dirtyCount.Load() }

// clearDirtyIf removes a node's dirty flag only if its sequence still
// matches the captured one. It reports whether the flag was cleared; false
// means the node was re-dirtied (or dropped) after the capture and stays
// flagged for the next checkpoint.
func (c *nodeCache) clearDirtyIf(id nodeID, seq uint64) bool {
	sh := c.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	cur, ok := sh.dirty[id]
	if !ok || cur != seq {
		return false
	}
	delete(sh.dirty, id)
	c.dirtyCount.Add(-1)
	return true
}

// clearDirty removes the dirty flags of flushed nodes unconditionally.
func (c *nodeCache) clearDirty(ids []nodeID) {
	for _, id := range ids {
		sh := c.shard(id)
		sh.mu.Lock()
		if _, ok := sh.dirty[id]; ok {
			delete(sh.dirty, id)
			c.dirtyCount.Add(-1)
		}
		sh.mu.Unlock()
	}
}

// evictClean drops every node that is not dirty. Dirty nodes carry
// un-persisted state, so they stay resident until the next Flush.
func (c *nodeCache) evictClean() {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for id := range sh.nodes {
			if _, dirty := sh.dirty[id]; !dirty {
				delete(sh.nodes, id)
			}
		}
		sh.mu.Unlock()
	}
}

// len reports the number of resident nodes.
func (c *nodeCache) len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		n += len(sh.nodes)
		sh.mu.RUnlock()
	}
	return n
}

// fault resolves a cache miss with singleflight semantics: the first
// requester loads and decodes the extent, every concurrent requester for the
// same node blocks on the leader's done channel and shares the result.
// load runs without any shard lock held. shared reports whether this call
// piggybacked on another goroutine's load.
func (c *nodeCache) fault(id nodeID, load func() (*index.Node, error)) (n *index.Node, shared bool, err error) {
	sh := c.shard(id)
	sh.mu.Lock()
	if n := sh.nodes[id]; n != nil {
		sh.mu.Unlock()
		return n, true, nil
	}
	if f := sh.inflight[id]; f != nil {
		sh.mu.Unlock()
		<-f.done
		return f.n, true, f.err
	}
	f := &nodeFault{done: make(chan struct{})}
	if sh.inflight == nil {
		sh.inflight = make(map[nodeID]*nodeFault)
	}
	sh.inflight[id] = f
	sh.mu.Unlock()

	n, err = load()
	sh.mu.Lock()
	delete(sh.inflight, id)
	if err == nil {
		// A writer may have installed (or re-created) the node meanwhile;
		// keep the resident copy.
		if prev := sh.nodes[id]; prev != nil {
			n = prev
		} else {
			sh.nodes[id] = n
		}
	}
	sh.mu.Unlock()
	f.n, f.err = n, err
	close(f.done)
	return n, false, err
}
