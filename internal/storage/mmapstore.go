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
// instead of a buffer-pool copy.
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
	enabled   bool // off: unsupported platform, SetMmapViews(false), or map failure
	cur       []byte
	retired   [][]byte // superseded mappings, kept until close for outstanding views
	verified  []uint64 // bitmap of pages whose payload CRC was already checked
	gen       uint64   // bumped by invalidate; suppresses stale verified-bit writes
	stats     viewStatsCounters
}

func (m *mmapRegion) init(f *os.File, blockSize int) {
	m.f = f
	m.blockSize = blockSize
	m.enabled = mmapSupported
}

// setEnabled toggles the mapped path (tests and operational fallback). The
// plain-read path serves every view while disabled.
func (m *mmapRegion) setEnabled(on bool) {
	m.mu.Lock()
	m.enabled = on && mmapSupported
	m.mu.Unlock()
}

// invalidate drops the page's verified bit: its extent was rewritten, so
// the cached CRC verdict no longer describes the bytes in the mapping.
func (m *mmapRegion) invalidate(id PageID) {
	m.mu.Lock()
	m.gen++
	if w := int(id / 64); w < len(m.verified) {
		m.verified[w] &^= 1 << (id % 64)
	}
	m.mu.Unlock()
}

// close unmaps everything; outstanding views become invalid, which is fine
// because the store they came from is closed too.
func (m *mmapRegion) close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.enabled = false
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
		return false
	}
	if m.cur != nil {
		m.retired = append(m.retired, m.cur)
		m.stats.remaps.Add(1)
	}
	m.cur = nb
	return true
}

// view serves one extent from the mapping. ok=false means "not servable
// here, use the plain-read fallback"; ok=true with err!=nil is a hard
// integrity failure (corrupt header or checksum mismatch) that a file read
// would reproduce, so it is returned instead of retried.
func (m *mmapRegion) view(id PageID) (data []byte, blocks int, err error, ok bool) {
	off := int64(id) * int64(m.blockSize)
	for attempt := 0; ; attempt++ {
		m.mu.RLock()
		if !m.enabled {
			m.mu.RUnlock()
			return nil, 0, nil, false
		}
		b := m.cur
		if int64(len(b)) < off+ExtentHeaderSize {
			m.mu.RUnlock()
			if attempt > 0 || !m.remap(off+ExtentHeaderSize) {
				return nil, 0, nil, false
			}
			continue
		}
		var length int
		var want uint32
		blocks, length, want, err = parseExtentHeader(b[off:], id, m.blockSize)
		if err != nil {
			m.mu.RUnlock()
			return nil, 0, err, true
		}
		end := off + ExtentHeaderSize + int64(length)
		if int64(len(b)) < end {
			m.mu.RUnlock()
			if attempt > 0 || !m.remap(end) {
				return nil, 0, nil, false
			}
			continue
		}
		w := int(id / 64)
		verified := w < len(m.verified) && m.verified[w]&(1<<(id%64)) != 0
		gen := m.gen
		m.mu.RUnlock()

		data = b[off+ExtentHeaderSize : end : end]
		if !verified {
			if got := crc32.Checksum(data, castagnoli); got != want {
				return nil, 0, fmt.Errorf("%w: extent %d crc 0x%08x, want 0x%08x", ErrChecksum, id, got, want), true
			}
			m.mu.Lock()
			// Only cache the verdict if no write invalidated anything since
			// the CRC ran; a concurrent rewrite must not be masked.
			if m.gen == gen {
				if w >= len(m.verified) {
					grown := make([]uint64, w+1)
					copy(grown, m.verified)
					m.verified = grown
				}
				m.verified[w] |= 1 << (id % 64)
			}
			m.mu.Unlock()
		}
		m.stats.views.Add(1)
		return data, blocks, nil, true
	}
}

// ViewExtent implements ExtentViewer: a zero-copy, CRC-verified-once view
// of an extent's payload out of the file mapping. When the mapping cannot
// serve the extent (unsupported platform, disabled, map failure, or the
// extent lies beyond a file the mapping cannot grow over) it falls back to
// a plain checked read — same bytes, same verification, one copy.
//
// The returned slice must be treated as read-only and must not outlive the
// caller's guarantee that the extent stays live (tree read lock or extent
// pin): a freed and reallocated extent is rewritten in place.
func (s *PagedStore) ViewExtent(id PageID) ([]byte, int, error) {
	if id == NilPage {
		return nil, 0, fmt.Errorf("%w: nil page", ErrNotFound)
	}
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return nil, 0, ErrClosed
	}
	if data, blocks, err, ok := s.mm.view(id); ok {
		// A mapped view is a logical read served without a backing-file
		// fault — account it as a buffer-pool hit so the store's read
		// ledger (Reads == Hits + Misses) covers the zero-copy path too.
		if err == nil {
			s.stats.reads.Add(1)
			s.stats.hits.Add(1)
			s.stats.bytesRead.Add(int64(len(data)))
		}
		return data, blocks, err
	}
	s.mm.stats.fallbacks.Add(1)
	data, blocks, err := s.readExtent(id)
	if err == nil {
		s.stats.reads.Add(1)
		s.stats.misses.Add(1)
		s.stats.bytesRead.Add(int64(len(data)))
	}
	return data, blocks, err
}

// ViewStats implements ExtentViewer.
func (s *PagedStore) ViewStats() ViewStats { return s.mm.stats.snapshot() }

// SetMmapViews toggles the memory-mapped view path at runtime. Disabling it
// routes every ViewExtent through the plain-read fallback (used by tests
// and as an operational escape hatch); enabling it is a no-op on platforms
// without mmap support.
func (s *PagedStore) SetMmapViews(on bool) { s.mm.setEnabled(on) }

// VerifyExtentView force-verifies one extent through the mapped view path:
// unlike ViewExtent it never consults the verified bitmap, so it checks the
// bytes as they are mapped right now (dctool verify -mmap). Falls back to
// the plain file read when the mapping cannot serve the extent.
func (s *PagedStore) VerifyExtentView(id PageID) (blocks int, mapped bool, err error) {
	if id == NilPage {
		return 0, false, fmt.Errorf("%w: nil page", ErrNotFound)
	}
	s.mm.mu.RLock()
	enabled := s.mm.enabled
	s.mm.mu.RUnlock()
	if enabled {
		// Invalidate clears the verified bit, forcing view() to re-CRC.
		s.mm.invalidate(id)
		if _, blocks, err, ok := s.mm.view(id); ok {
			return blocks, true, err
		}
	}
	_, blocks, err = s.readExtent(id)
	return blocks, false, err
}

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
	s.viewStats.views.Add(1)
	s.stats.reads.Add(1)
	s.stats.hits.Add(1)
	s.stats.bytesRead.Add(int64(len(e.data)))
	return e.data, e.blocks, nil
}

// ViewStats implements ExtentViewer.
func (s *MemStore) ViewStats() ViewStats { return s.viewStats.snapshot() }
