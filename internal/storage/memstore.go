package storage

import (
	"fmt"
	"sync"
)

// MemStore is an in-memory Store. It keeps full I/O accounting so that
// experiments can compare logical block traffic between index structures
// even when running without a disk, matching the paper's setup of measuring
// CPU-bound query times with a memory-resident index.
//
// MemStore is safe for concurrent use: queries fault nodes under the
// tree's shared read lock while a background checkpoint allocates and
// writes shadow extents, so reads take a shared lock and mutations an
// exclusive one.
type MemStore struct {
	mu        sync.RWMutex
	blockSize int
	next      PageID
	extents   map[PageID]memExtent
	meta      []byte
	stats     statsCounters
	viewStats viewStatsCounters
	closed    bool
}

type memExtent struct {
	blocks int
	data   []byte
}

// NewMemStore creates an in-memory store with the given block size.
func NewMemStore(blockSize int) *MemStore {
	if blockSize < ExtentHeaderSize*2 {
		panic(fmt.Sprintf("storage: block size %d too small", blockSize))
	}
	return &MemStore{
		blockSize: blockSize,
		next:      1,
		extents:   make(map[PageID]memExtent),
	}
}

// BlockSize implements Store.
func (s *MemStore) BlockSize() int { return s.blockSize }

// Alloc implements Store.
func (s *MemStore) Alloc(blocks int) (PageID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return NilPage, ErrClosed
	}
	if blocks < 1 {
		return NilPage, ErrBadExtent
	}
	id := s.next
	s.next += PageID(blocks)
	s.extents[id] = memExtent{blocks: blocks}
	s.stats.allocs.Add(1)
	return id, nil
}

// Write implements Store.
func (s *MemStore) Write(id PageID, blocks int, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	e, ok := s.extents[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNotFound, id)
	}
	if e.blocks != blocks {
		return fmt.Errorf("%w: extent %d has %d blocks, got %d", ErrBadExtent, id, e.blocks, blocks)
	}
	if len(data) > ExtentCapacity(s.blockSize, blocks) {
		return fmt.Errorf("%w: %d bytes into %d blocks of %d", ErrTooLarge, len(data), blocks, s.blockSize)
	}
	e.data = append(e.data[:0], data...)
	s.extents[id] = e
	s.stats.writes.Add(1)
	s.stats.bytesWritten.Add(int64(len(data)))
	return nil
}

// Read implements Store.
func (s *MemStore) Read(id PageID) ([]byte, int, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, 0, ErrClosed
	}
	e, ok := s.extents[id]
	if !ok {
		return nil, 0, fmt.Errorf("%w: %d", ErrNotFound, id)
	}
	s.stats.reads.Add(1)
	s.stats.hits.Add(1)
	s.stats.bytesRead.Add(int64(len(e.data)))
	return e.data, e.blocks, nil
}

// Free implements Store.
func (s *MemStore) Free(id PageID, blocks int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	e, ok := s.extents[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrDoubleFree, id)
	}
	if e.blocks != blocks {
		return fmt.Errorf("%w: extent %d has %d blocks, got %d", ErrBadExtent, id, e.blocks, blocks)
	}
	delete(s.extents, id)
	s.stats.frees.Add(1)
	return nil
}

// SetMeta implements Store.
func (s *MemStore) SetMeta(data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	s.meta = append(s.meta[:0], data...)
	return nil
}

// GetMeta implements Store.
func (s *MemStore) GetMeta() ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}
	if s.meta == nil {
		return nil, ErrNoMeta
	}
	return append([]byte(nil), s.meta...), nil
}

// Stats implements Store.
func (s *MemStore) Stats() Stats { return s.stats.snapshot(s.viewStats.views.Load()) }

// ResetStats implements Store.
func (s *MemStore) ResetStats() { s.stats.reset(s.viewStats.views.Load()) }

// Sync implements Store (no-op).
func (s *MemStore) Sync() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	return nil
}

// Close implements Store.
func (s *MemStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	s.closed = true
	s.extents = nil
	return nil
}

// ExtentCount returns the number of live extents (for tests and fsck).
func (s *MemStore) ExtentCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.extents)
}
