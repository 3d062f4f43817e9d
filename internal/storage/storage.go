// Package storage provides the block-oriented node stores underneath the
// DC-tree and the X-tree baseline.
//
// Both index structures are disk-based designs: nodes occupy one block of a
// fixed size, except supernodes, which occupy a multiple of the block size
// (X-tree §2 / DC-tree §4.2). The stores therefore manage *extents* — runs
// of consecutive blocks addressed by the PageID of their first block — and
// account every logical I/O, so experiments can report block reads/writes
// alongside wall-clock time.
//
// Two implementations are provided: MemStore (in-memory, used by the
// performance experiments, which measure CPU time like the paper) and
// PagedStore (file-backed, used for persistence; its zero-copy views out
// of a mapping of the file make the OS page cache the node cache, and a
// Read is a checked read of the file). Both serve raw bytes; node encoding
// lives with the index structures.
package storage

import (
	"errors"
	"sync/atomic"
)

// PageID addresses an extent by its first block. 0 is the nil PageID.
type PageID uint64

// NilPage is the zero PageID; no extent is ever allocated at 0.
const NilPage PageID = 0

// Errors returned by stores.
var (
	ErrNotFound   = errors.New("storage: no extent at page id")
	ErrTooLarge   = errors.New("storage: payload exceeds extent capacity")
	ErrBadExtent  = errors.New("storage: extent size must be at least one block")
	ErrClosed     = errors.New("storage: store is closed")
	ErrCorrupt    = errors.New("storage: corrupt store file")
	ErrNoMeta     = errors.New("storage: no metadata stored")
	ErrOverlap    = errors.New("storage: extent overlaps an existing allocation")
	ErrDoubleFree = errors.New("storage: extent already free")
	// ErrChecksum marks data whose stored CRC32C does not match its
	// contents: a torn write, bit rot, or outside modification. The store
	// fails closed — no payload is returned — rather than decode garbage.
	ErrChecksum = errors.New("storage: checksum mismatch")
	// ErrUnsupportedFormat marks a file, log or metadata blob written in a
	// recognised but retired on-disk format generation (DCSTORE1, DCWAL001,
	// DCMETA01–08, path-spelling WAL records, compressed WAL frames). Nothing
	// is decoded from it; the data was intact, it is just not read any more.
	ErrUnsupportedFormat = errors.New("storage: unsupported (retired) on-disk format")
)

// Stats counts logical I/O operations. Reads and Writes count extents
// touched at the store interface. Every read is a Hit or a Miss: Hits are
// served from memory (a MemStore extent or a mapped view), Misses are
// read from the file.
type Stats struct {
	Reads        int64
	Writes       int64
	Allocs       int64
	Frees        int64
	Hits         int64
	Misses       int64
	BytesRead    int64
	BytesWritten int64
}

// Sub returns the delta s - t, for measuring an operation window.
func (s Stats) Sub(t Stats) Stats {
	return Stats{
		Reads:        s.Reads - t.Reads,
		Writes:       s.Writes - t.Writes,
		Allocs:       s.Allocs - t.Allocs,
		Frees:        s.Frees - t.Frees,
		Hits:         s.Hits - t.Hits,
		Misses:       s.Misses - t.Misses,
		BytesRead:    s.BytesRead - t.BytesRead,
		BytesWritten: s.BytesWritten - t.BytesWritten,
	}
}

// statsCounters is the stores' internal, atomically updated form of Stats:
// concurrent readers (the DC-tree runs queries under a shared read lock,
// so several goroutines may fault nodes at once) and metrics snapshots
// never race with each other or with updates.
//
// A view (ExtentViewer) is a Read and a Hit, but neither is counted per
// view: the store's view counter is the one count, and snapshot derives
// both from it, less viewBase, the view count at the last reset.
type statsCounters struct {
	reads, writes, allocs, frees atomic.Int64
	hits, misses                 atomic.Int64
	bytesRead, bytesWritten      atomic.Int64
	viewBase                     atomic.Int64
}

// snapshot materializes the counters as a Stats value; views is the
// store's view counter.
func (c *statsCounters) snapshot(views int64) Stats {
	viewed := views - c.viewBase.Load()
	return Stats{
		Reads:        c.reads.Load() + viewed,
		Writes:       c.writes.Load(),
		Allocs:       c.allocs.Load(),
		Frees:        c.frees.Load(),
		Hits:         c.hits.Load() + viewed,
		Misses:       c.misses.Load(),
		BytesRead:    c.bytesRead.Load(),
		BytesWritten: c.bytesWritten.Load(),
	}
}

// reset zeroes every counter; views is the store's view counter.
func (c *statsCounters) reset(views int64) {
	c.viewBase.Store(views)
	c.reads.Store(0)
	c.writes.Store(0)
	c.allocs.Store(0)
	c.frees.Store(0)
	c.hits.Store(0)
	c.misses.Store(0)
	c.bytesRead.Store(0)
	c.bytesWritten.Store(0)
}

// Store is a block-extent store.
//
// Implementations are not required to be safe for concurrent use; the index
// structures serialize access through their own locks.
type Store interface {
	// BlockSize returns the block size in bytes.
	BlockSize() int

	// Alloc reserves an extent of the given number of consecutive blocks
	// and returns its PageID.
	Alloc(blocks int) (PageID, error)

	// Write replaces the payload of an extent. The payload must fit the
	// extent: len(data) ≤ blocks*BlockSize() - ExtentHeaderSize.
	Write(id PageID, blocks int, data []byte) error

	// Read returns the payload of an extent and its size in blocks.
	// The returned slice must not be modified by the caller.
	Read(id PageID) (data []byte, blocks int, err error)

	// Free releases an extent.
	Free(id PageID, blocks int) error

	// SetMeta stores an uninterpreted metadata blob (index root pointer,
	// schema, dictionaries); GetMeta returns the last stored blob.
	SetMeta(data []byte) error
	GetMeta() ([]byte, error)

	// Stats returns a snapshot of the I/O counters.
	Stats() Stats

	// ResetStats zeroes the I/O counters.
	ResetStats()

	// Sync flushes buffered state to stable storage, if any.
	Sync() error

	// Close releases resources. A closed store rejects all operations.
	Close() error
}

// ExtentHeaderSize is the per-extent bookkeeping overhead (block count,
// payload length, and CRC32C of the payload) that PagedStore writes at the
// front of each extent. All stores reserve it so capacity math is identical
// across backends.
const ExtentHeaderSize = 12

// ExtentCapacity returns the payload capacity of an extent of n blocks.
func ExtentCapacity(blockSize, blocks int) int {
	return blockSize*blocks - ExtentHeaderSize
}

// BlocksFor returns the number of blocks needed to hold a payload.
func BlocksFor(blockSize, payload int) int {
	n := (payload + ExtentHeaderSize + blockSize - 1) / blockSize
	if n < 1 {
		n = 1
	}
	return n
}
