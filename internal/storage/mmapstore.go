package storage

import (
	"fmt"
	"hash/crc32"
	"os"
	"sync"
	"sync/atomic"
)

// Memory-mapped zero-copy extent views.
//
// Checkpointed node extents are immutable until the translation table stops
// referencing them (shadow paging: a checkpoint always writes dirty nodes
// to freshly allocated extents), which makes them safe to serve directly
// out of a read-only, shared mapping of the store file: the OS page cache
// becomes the node cache and a cold node access costs a few bounds checks
// instead of a copy out of the file.
//
// The region manager below maps the file once and grows the mapping lazily:
// a view request beyond the mapped length (the file grew since the last
// map) remaps to the current file size, counting one remap per growth
// episode rather than per view. Superseded mappings are retired, not
// unmapped, until Close — so a view handed out before a remap stays valid
// for as long as the caller holds it. Callers must bound view lifetimes by
// the same rule that makes views safe at all: hold the tree read lock (live
// queries) or an extent pin (MVCC versions), so the viewed extent cannot be
// freed, reallocated and rewritten underneath the view.
//
// Payload checksums are verified once per extent: the first view CRCs the
// mapped payload and records the page in a verified bitmap; later views are
// pure pointer math. A rewrite of the page (extent reuse after a free)
// invalidates its bit.
//
// Those later views take no lock. The region publishes its current mapping
// and verified bitmap as one pointer (mmapState), and a view whose page bit
// is set and whose extent header parses inside the published mapping is
// served from it directly; everything else — the first view and its CRC, a
// remap, the fallback, corruption — takes the locked path. Every change to
// the pair happens under the region lock and republishes it: invalidate
// clears its bit in the published bitmap, a growing bitmap is copied and
// republished, and disabling or closing the region withdraws the pointer
// before anything is unmapped. A view racing Close is invalid, as any view
// outlasting its store is: the store must outlive every reader of it.
//
// Each view is counted once, in ViewStats.Views; Stats derives the view's
// Read and Hit from that counter rather than adding them per view.

// ViewStats counts zero-copy view traffic on a store.
type ViewStats struct {
	// Views counts extent views served zero-copy from the mapping (for
	// MemStore, from the in-memory extent).
	Views int64
	// Remaps counts mapping growths (the file outgrew the mapped length).
	Remaps int64
	// Fallbacks counts ViewExtent calls served by a plain checked read
	// because mmap is unsupported, disabled, or could not cover the extent.
	Fallbacks int64
}

// ExtentViewer is implemented by stores that can serve extent payloads as
// stable read-only views without copying. The returned slice must not be
// modified and stays valid only while the extent is live (not freed and
// reallocated); callers enforce that with locks or pins.
type ExtentViewer interface {
	ViewExtent(id PageID) (data []byte, blocks int, err error)
	ViewStats() ViewStats
}

// viewStatsCounters is the atomic internal form of ViewStats.
type viewStatsCounters struct {
	views, remaps, fallbacks atomic.Int64
}

func (c *viewStatsCounters) snapshot() ViewStats {
	return ViewStats{
		Views:     c.views.Load(),
		Remaps:    c.remaps.Load(),
		Fallbacks: c.fallbacks.Load(),
	}
}

// mmapRegion manages the read-only mapping of one PagedStore file.
type mmapRegion struct {
	mu        sync.RWMutex
	f         *os.File
	blockSize int
	enabled   bool // off: unsupported platform or map failure
	cur       []byte
	retired   [][]byte        // superseded mappings, kept until close for outstanding views
	verified  []atomic.Uint64 // bitmap of pages whose payload CRC was already checked; written under mu
	gen       uint64          // bumped by invalidate; suppresses stale verified-bit writes
	// pub is what the lock-free path reads: the current mapping and
	// verified bitmap while the region is enabled, nil otherwise. Every
	// change to cur, verified's backing array or enabled republishes it
	// under mu.
	pub   atomic.Pointer[mmapState]
	stats viewStatsCounters
}

// mmapState is one published {mapping, verified bitmap} pair.
type mmapState struct {
	b        []byte
	verified []atomic.Uint64
}

func (m *mmapRegion) init(f *os.File, blockSize int) {
	m.f = f
	m.blockSize = blockSize
	m.enabled = mmapSupported
}

// publishLocked republishes the region's state for the lock-free path.
// Caller holds m.mu exclusively.
func (m *mmapRegion) publishLocked() {
	if !m.enabled || m.cur == nil {
		m.pub.Store(nil)
		return
	}
	m.pub.Store(&mmapState{b: m.cur, verified: m.verified})
}

// invalidate drops the page's verified bit: its extent was rewritten, so
// the cached CRC verdict no longer describes the bytes in the mapping. The
// bit is cleared in the published bitmap itself, so a lock-free view that
// starts after invalidate returns takes the locked path and re-verifies.
func (m *mmapRegion) invalidate(id PageID) {
	m.mu.Lock()
	m.gen++
	if w := int(id / 64); w < len(m.verified) {
		m.verified[w].Store(m.verified[w].Load() &^ (1 << (id % 64)))
	}
	m.mu.Unlock()
}

// close unmaps everything; outstanding views become invalid, which is fine
// because the store they came from is closed too. The lock-free path is
// withdrawn before anything is unmapped.
func (m *mmapRegion) close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.enabled = false
	m.publishLocked()
	if m.cur != nil {
		_ = munmapFile(m.cur)
		m.cur = nil
	}
	for _, b := range m.retired {
		_ = munmapFile(b)
	}
	m.retired = nil
	m.verified = nil
}

// remap grows the mapping to the current file size if that covers need.
// Caller must not hold m.mu.
func (m *mmapRegion) remap(need int64) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.enabled {
		return false
	}
	if int64(len(m.cur)) >= need {
		return true // another goroutine remapped meanwhile
	}
	st, err := m.f.Stat()
	if err != nil || st.Size() < need || st.Size() > int64(int(^uint(0)>>1)) {
		return false
	}
	nb, err := mmapFile(m.f, int(st.Size()))
	if err != nil {
		// Map failures (address space, platform quirks) latch the region
		// off; the plain-read path serves everything from here on.
		m.enabled = false
		m.publishLocked()
		return false
	}
	if m.cur != nil {
		m.retired = append(m.retired, m.cur)
		m.stats.remaps.Add(1)
	}
	m.cur = nb
	m.publishLocked()
	return true
}

// locate finds extent id's payload in mapping b. need > 0 is the mapped
// length the extent needs when b ends before it; err is a header that does
// not check out.
func (m *mmapRegion) locate(b []byte, id PageID) (data []byte, blocks int, crc uint32, need int64, err error) {
	off := int64(id) * int64(m.blockSize)
	if int64(len(b)) < off+ExtentHeaderSize {
		return nil, 0, 0, off + ExtentHeaderSize, nil
	}
	blocks, length, crc, err := parseExtentHeader(b[off:], id, m.blockSize)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	end := off + ExtentHeaderSize + int64(length)
	if int64(len(b)) < end {
		return nil, 0, 0, end, nil
	}
	return b[off+ExtentHeaderSize : end : end], blocks, crc, 0, nil
}

// verifiedView is the lock-free path: the extent's payload out of the
// published mapping when its CRC was already verified and it lies inside
// the mapping. ok=false sends the caller to view, which handles everything
// else — first view, remap, fallback and corruption.
func (m *mmapRegion) verifiedView(id PageID) (data []byte, blocks int, ok bool) {
	st := m.pub.Load()
	if st == nil {
		return nil, 0, false
	}
	if w := id / 64; w >= PageID(len(st.verified)) || st.verified[w].Load()&(1<<(id%64)) == 0 {
		return nil, 0, false
	}
	data, blocks, _, need, err := m.locate(st.b, id)
	return data, blocks, need == 0 && err == nil
}

// view serves one extent from the mapping under the region lock, checking
// its CRC unless its verified bit is set. ok=false means "not servable
// here, use the plain-read fallback"; ok=true with err!=nil is a hard
// integrity failure (corrupt header or checksum mismatch) that a file read
// would reproduce, so it is returned instead of retried.
func (m *mmapRegion) view(id PageID) (data []byte, blocks int, err error, ok bool) {
	for attempt := 0; ; attempt++ {
		m.mu.RLock()
		if !m.enabled {
			m.mu.RUnlock()
			return nil, 0, nil, false
		}
		var want uint32
		var need int64
		data, blocks, want, need, err = m.locate(m.cur, id)
		if err != nil {
			m.mu.RUnlock()
			return nil, 0, err, true
		}
		if need > 0 {
			m.mu.RUnlock()
			if attempt > 0 || !m.remap(need) {
				return nil, 0, nil, false
			}
			continue
		}
		w := int(id / 64)
		verified := w < len(m.verified) && m.verified[w].Load()&(1<<(id%64)) != 0
		gen := m.gen
		m.mu.RUnlock()

		if !verified {
			if got := crc32.Checksum(data, castagnoli); got != want {
				return nil, 0, fmt.Errorf("%w: extent %d crc 0x%08x, want 0x%08x", ErrChecksum, id, got, want), true
			}
			m.mu.Lock()
			// Only cache the verdict if no write invalidated anything since
			// the CRC ran; a concurrent rewrite must not be masked.
			if m.gen == gen {
				if w >= len(m.verified) {
					// A lock-free view that loaded the old array may still
					// see a bit a later invalidate clears only here; it is
					// viewing an extent being rewritten, which the caller's
					// hold or pin rules out.
					grown := make([]atomic.Uint64, max(w+1, 2*len(m.verified)))
					for i := range m.verified {
						grown[i].Store(m.verified[i].Load())
					}
					m.verified = grown
					m.publishLocked()
				}
				m.verified[w].Store(m.verified[w].Load() | 1<<(id%64))
			}
			m.mu.Unlock()
		}
		return data, blocks, nil, true
	}
}

// ViewExtent implements ExtentViewer: a zero-copy, CRC-verified-once view
// of an extent's payload out of the file mapping. An extent already
// verified is served without a lock (verifiedView); the first view of an
// extent, a view past the mapped length and every failure take the locked
// path. When the mapping cannot serve the extent (unsupported platform,
// disabled, map failure, or the extent lies beyond a file the mapping
// cannot grow over) it falls back to a plain checked read — same bytes,
// same verification, one copy.
//
// The returned slice must be treated as read-only and must not outlive the
// caller's guarantee that the extent stays live (tree read lock or extent
// pin): a freed and reallocated extent is rewritten in place. The store
// must outlive the call: a view racing Close may read a mapping Close
// unmaps.
func (s *PagedStore) ViewExtent(id PageID) ([]byte, int, error) {
	if id == NilPage {
		return nil, 0, fmt.Errorf("%w: nil page", ErrNotFound)
	}
	if err := s.checkOpen(); err != nil {
		return nil, 0, err
	}
	data, blocks, ok := s.mm.verifiedView(id)
	if !ok {
		var err error
		if data, blocks, err, ok = s.mm.view(id); !ok {
			s.mm.stats.fallbacks.Add(1)
			return s.Read(id)
		}
		if err != nil {
			return nil, 0, err
		}
	}
	// A mapped view is a read served from memory: Stats derives its Read
	// and its Hit from the view counter, so the ledger (Reads == Hits +
	// Misses) covers the zero-copy path at one counter per view.
	s.mm.stats.views.Add(1)
	s.stats.bytesRead.Add(int64(len(data)))
	return data, blocks, nil
}

// ViewStats implements ExtentViewer.
func (s *PagedStore) ViewStats() ViewStats { return s.mm.stats.snapshot() }

// ViewExtent implements ExtentViewer for MemStore: the extent's backing
// slice itself, zero-copy. Safe because MemStore never recycles PageIDs and
// node extents are written exactly once (shadow paging), so a view taken
// under the tree read lock or an extent pin never sees a rewrite.
func (s *MemStore) ViewExtent(id PageID) ([]byte, int, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, 0, ErrClosed
	}
	e, ok := s.extents[id]
	if !ok {
		return nil, 0, fmt.Errorf("%w: %d", ErrNotFound, id)
	}
	s.viewStats.views.Add(1) // one Read and one Hit (statsCounters)
	s.stats.bytesRead.Add(int64(len(e.data)))
	return e.data, e.blocks, nil
}

// ViewStats implements ExtentViewer.
func (s *MemStore) ViewStats() ViewStats { return s.viewStats.snapshot() }
