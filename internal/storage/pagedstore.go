package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"sync/atomic"
)

// PagedStore is a file-backed Store. It keeps no buffer pool of its own:
// ViewExtent serves extents zero-copy out of a mapping of the file, so the
// OS page cache is the cache, and Read is one checked file read.
//
// File layout (magic "DCSTORE2"):
//
//	block 0:            header (magic, block size, next page, meta/freelist
//	                    extent pointers, CRC32C of the preceding fields)
//	block n (n ≥ 1):    extents; each extent starts with a 12-byte header
//	                    (block count with the checksum flag in the high bit,
//	                    payload length, CRC32C of the payload) followed by
//	                    the payload
//
// Every extent payload — node encodings, the metadata blob, the freelist —
// is covered by a CRC32C (Castagnoli) verified on every file read; a
// mismatch surfaces as ErrChecksum instead of a garbage decode. The
// pre-checksum format (magic "DCSTORE1") is refused with
// ErrUnsupportedFormat.
//
// The freelist and the user metadata blob are themselves stored as extents
// and re-written on Sync/Close. Views served from the mapping count as
// Hits; reads from the file count as Misses.
//
// PagedStore is safe for concurrent use. Reads and views never take the
// store mutex: the closed check is an atomic flag, and the file read runs
// on os.File.ReadAt, which is safe for concurrent callers.
type PagedStore struct {
	mu          sync.Mutex // guards everything below except stats, closed and f
	f           *os.File
	blockSize   int
	next        PageID
	free        map[int][]PageID // blocks -> extent ids, LIFO per size class
	metaID      PageID
	metaBlk     int
	freeID      PageID
	freeBlk     int
	pendingFree []extentSpan
	stats       statsCounters
	closed      atomic.Bool // set by Close under mu; read without it by checkOpen
	dirtyHdr    bool        // an extent was allocated or freed since the header on disk was written
	mm          mmapRegion  // zero-copy extent views (mmapstore.go)
}

// extentSpan identifies an extent scheduled for release after the next
// durable header write.
type extentSpan struct {
	id     PageID
	blocks int
}

const (
	pagedMagic    = "DCSTORE2"
	headerFields  = 8 + 4 + 8 + 8 + 4 + 8 + 4
	headerSize    = headerFields + 4 // + CRC32C of the preceding fields
	minPagedBlock = 64

	// extentFlagCRC is the high bit of an extent header's block-count word:
	// "a CRC32C of the payload follows at offset 8". Every extent sets it
	// (block counts are far below 2^31), so a clear flag is damage.
	extentFlagCRC    = 1 << 31
	extentChecksumAt = 8 // CRC32C offset within the extent header
)

// castagnoli is the CRC32C polynomial table used for all page checksums
// (the same polynomial storage engines use for torn-page detection; it has
// hardware support on current CPUs).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// OpenPagedStore opens (or creates) a file-backed store. blockSize is only
// used at creation time; reopening validates it against the file header.
// The third parameter is ignored: it sized a buffer pool the store no
// longer has, and stays only for existing callers.
func OpenPagedStore(path string, blockSize int, _ int) (*PagedStore, error) {
	if blockSize < minPagedBlock {
		return nil, fmt.Errorf("%w: block size %d below minimum %d", ErrBadExtent, blockSize, minPagedBlock)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	s := &PagedStore{
		f:         f,
		blockSize: blockSize,
		next:      1,
		free:      make(map[int][]PageID),
	}
	s.mm.init(f, blockSize)
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if st.Size() == 0 {
		if err := s.writeHeader(); err != nil {
			f.Close()
			return nil, err
		}
		return s, nil
	}
	if err := s.readHeader(); err != nil {
		f.Close()
		return nil, err
	}
	if err := s.loadFreelist(); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// writeHeader writes the file header: the fields followed by their CRC32C.
func (s *PagedStore) writeHeader() error {
	buf := make([]byte, headerSize)
	copy(buf, pagedMagic)
	binary.LittleEndian.PutUint32(buf[8:], uint32(s.blockSize))
	binary.LittleEndian.PutUint64(buf[12:], uint64(s.next))
	binary.LittleEndian.PutUint64(buf[20:], uint64(s.metaID))
	binary.LittleEndian.PutUint32(buf[28:], uint32(s.metaBlk))
	binary.LittleEndian.PutUint64(buf[32:], uint64(s.freeID))
	binary.LittleEndian.PutUint32(buf[40:], uint32(s.freeBlk))
	binary.LittleEndian.PutUint32(buf[headerFields:], crc32.Checksum(buf[:headerFields], castagnoli))
	if _, err := s.f.WriteAt(buf, 0); err != nil {
		return err
	}
	s.dirtyHdr = false
	return nil
}

func (s *PagedStore) readHeader() error {
	buf := make([]byte, headerSize)
	n, err := io.ReadFull(io.NewSectionReader(s.f, 0, headerSize), buf)
	switch {
	case n >= 8 && string(buf[:8]) == "DCSTORE1":
		return fmt.Errorf("%w: store file magic DCSTORE1 (pre-checksum image)", ErrUnsupportedFormat)
	case err != nil:
		return fmt.Errorf("%w: short header: %v", ErrCorrupt, err)
	case string(buf[:8]) != pagedMagic:
		return fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	want := binary.LittleEndian.Uint32(buf[headerFields:])
	if got := crc32.Checksum(buf[:headerFields], castagnoli); got != want {
		return fmt.Errorf("%w: store header crc 0x%08x, want 0x%08x", ErrChecksum, got, want)
	}
	bs := int(binary.LittleEndian.Uint32(buf[8:]))
	if bs != s.blockSize {
		return fmt.Errorf("%w: file block size %d, opened with %d", ErrCorrupt, bs, s.blockSize)
	}
	s.next = PageID(binary.LittleEndian.Uint64(buf[12:]))
	s.metaID = PageID(binary.LittleEndian.Uint64(buf[20:]))
	s.metaBlk = int(binary.LittleEndian.Uint32(buf[28:]))
	s.freeID = PageID(binary.LittleEndian.Uint64(buf[32:]))
	s.freeBlk = int(binary.LittleEndian.Uint32(buf[40:]))
	return nil
}

// BlockSize implements Store.
func (s *PagedStore) BlockSize() int { return s.blockSize }

// Alloc implements Store.
func (s *PagedStore) Alloc(blocks int) (PageID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.allocLocked(blocks)
}

func (s *PagedStore) allocLocked(blocks int) (PageID, error) {
	if s.closed.Load() {
		return NilPage, ErrClosed
	}
	if blocks < 1 {
		return NilPage, ErrBadExtent
	}
	s.stats.allocs.Add(1)
	s.dirtyHdr = true
	if ids := s.free[blocks]; len(ids) > 0 {
		id := ids[len(ids)-1]
		s.free[blocks] = ids[:len(ids)-1]
		return id, nil
	}
	id := s.next
	s.next += PageID(blocks)
	return id, nil
}

// Write implements Store.
func (s *PagedStore) Write(id PageID, blocks int, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return ErrClosed
	}
	if id == NilPage || blocks < 1 {
		return ErrBadExtent
	}
	if len(data) > ExtentCapacity(s.blockSize, blocks) {
		return fmt.Errorf("%w: %d bytes into %d blocks of %d", ErrTooLarge, len(data), blocks, s.blockSize)
	}
	s.stats.writes.Add(1)
	s.stats.bytesWritten.Add(int64(len(data)))
	return s.writeExtent(id, blocks, data)
}

// writeExtent writes an extent: the block-count word carries the checksum
// flag, and the payload's CRC32C sits between the length and the payload.
func (s *PagedStore) writeExtent(id PageID, blocks int, data []byte) error {
	buf := make([]byte, ExtentHeaderSize+len(data))
	binary.LittleEndian.PutUint32(buf[0:], uint32(blocks)|extentFlagCRC)
	binary.LittleEndian.PutUint32(buf[4:], uint32(len(data)))
	binary.LittleEndian.PutUint32(buf[extentChecksumAt:], crc32.Checksum(data, castagnoli))
	copy(buf[ExtentHeaderSize:], data)
	if _, err := s.f.WriteAt(buf, int64(id)*int64(s.blockSize)); err != nil {
		return err
	}
	// The mapping shares pages with the file, so the new bytes are already
	// visible there; only the cached CRC verdict for this page is stale.
	s.mm.invalidate(id)
	return nil
}

// checkOpen returns ErrClosed once the store is closed. It takes no lock:
// the read path's only use of the store mutex was this flag.
func (s *PagedStore) checkOpen() error {
	if s.closed.Load() {
		return ErrClosed
	}
	return nil
}

// Read implements Store with one checked read of the file: what it returns
// is what is on disk, and damage there is ErrChecksum or ErrCorrupt.
// Concurrent Reads overlap; none holds the store mutex past the closed
// check.
func (s *PagedStore) Read(id PageID) ([]byte, int, error) {
	if id == NilPage {
		return nil, 0, fmt.Errorf("%w: nil page", ErrNotFound)
	}
	if err := s.checkOpen(); err != nil {
		return nil, 0, err
	}
	data, blocks, err := s.readExtent(id)
	if err != nil {
		return nil, 0, err
	}
	s.stats.reads.Add(1)
	s.stats.misses.Add(1)
	s.stats.bytesRead.Add(int64(len(data)))
	return data, blocks, nil
}

// parseExtentHeader decodes an extent's 12-byte header — block count with
// the checksum flag in the high bit, payload length, CRC32C of the payload
// — for both read paths (file and mapping). A clear checksum flag, a zero
// block count or a length beyond the extent's capacity is ErrCorrupt: the
// payload is never located from a header that does not check out.
func parseExtentHeader(hdr []byte, id PageID, blockSize int) (blocks, length int, crc uint32, err error) {
	word := binary.LittleEndian.Uint32(hdr[0:])
	blocks = int(word &^ uint32(extentFlagCRC))
	length64 := int64(binary.LittleEndian.Uint32(hdr[4:]))
	if word&extentFlagCRC == 0 || blocks < 1 || length64 > int64(blockSize)*int64(blocks)-ExtentHeaderSize {
		return 0, 0, 0, fmt.Errorf("%w: extent %d header word=0x%08x len=%d", ErrCorrupt, id, word, length64)
	}
	return blocks, int(length64), binary.LittleEndian.Uint32(hdr[extentChecksumAt:]), nil
}

// readExtent faults an extent from the file and verifies its payload
// against the stored CRC32C, failing with ErrChecksum on mismatch.
func (s *PagedStore) readExtent(id PageID) ([]byte, int, error) {
	off := int64(id) * int64(s.blockSize)
	hdr := make([]byte, ExtentHeaderSize)
	if _, err := s.f.ReadAt(hdr, off); err != nil {
		return nil, 0, fmt.Errorf("%w: extent %d: %v", ErrNotFound, id, err)
	}
	blocks, length, want, err := parseExtentHeader(hdr, id, s.blockSize)
	if err != nil {
		return nil, 0, err
	}
	data := make([]byte, length)
	if _, err := s.f.ReadAt(data, off+ExtentHeaderSize); err != nil {
		return nil, 0, fmt.Errorf("%w: extent %d body: %v", ErrCorrupt, id, err)
	}
	if got := crc32.Checksum(data, castagnoli); got != want {
		return nil, 0, fmt.Errorf("%w: extent %d crc 0x%08x, want 0x%08x", ErrChecksum, id, got, want)
	}
	return data, blocks, nil
}

// Free implements Store.
func (s *PagedStore) Free(id PageID, blocks int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.freeLocked(id, blocks)
}

func (s *PagedStore) freeLocked(id PageID, blocks int) error {
	if s.closed.Load() {
		return ErrClosed
	}
	if id == NilPage || blocks < 1 {
		return ErrBadExtent
	}
	for _, f := range s.free[blocks] {
		if f == id {
			return fmt.Errorf("%w: %d", ErrDoubleFree, id)
		}
	}
	s.free[blocks] = append(s.free[blocks], id)
	s.dirtyHdr = true
	s.stats.frees.Add(1)
	return nil
}

// SetMeta implements Store. The metadata blob is double-buffered: it is
// always written to a fresh extent, and the previous extent is released
// only after the next Sync has durably pointed the header at the new one
// — so a crash anywhere in between still reopens with the old metadata.
func (s *PagedStore) SetMeta(data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return ErrClosed
	}
	blocks := BlocksFor(s.blockSize, len(data))
	id, err := s.allocLocked(blocks)
	if err != nil {
		return err
	}
	if err := s.writeExtent(id, blocks, data); err != nil {
		return err
	}
	if s.metaID != NilPage {
		s.pendingFree = append(s.pendingFree, extentSpan{id: s.metaID, blocks: s.metaBlk})
	}
	s.metaID, s.metaBlk = id, blocks
	return nil
}

// GetMeta implements Store.
func (s *PagedStore) GetMeta() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return nil, ErrClosed
	}
	if s.metaID == NilPage {
		return nil, ErrNoMeta
	}
	data, _, err := s.readExtent(s.metaID)
	return data, err
}

// Stats implements Store.
func (s *PagedStore) Stats() Stats { return s.stats.snapshot(s.mm.stats.views.Load()) }

// ResetStats implements Store.
func (s *PagedStore) ResetStats() { s.stats.reset(s.mm.stats.views.Load()) }

// Sync implements Store: persists the freelist and header, fsyncs, and
// only then releases extents whose replacement the header now references.
func (s *PagedStore) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.syncLocked()
}

func (s *PagedStore) syncLocked() error {
	if s.closed.Load() {
		return ErrClosed
	}
	// Nothing allocated, freed or re-pointed since the header on disk was
	// written: there is no freelist or header to write, and a file that was
	// only opened, read and closed stays byte for byte what it was.
	if !s.dirtyHdr {
		return s.f.Sync()
	}
	if err := s.storeFreelist(); err != nil {
		return err
	}
	if err := s.writeHeader(); err != nil {
		return err
	}
	if err := s.f.Sync(); err != nil {
		return err
	}
	for _, span := range s.pendingFree {
		if err := s.freeLocked(span.id, span.blocks); err != nil {
			return err
		}
	}
	s.pendingFree = nil
	return nil
}

// Close implements Store.
func (s *PagedStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return ErrClosed
	}
	if err := s.syncLocked(); err != nil {
		s.mm.close()
		s.f.Close()
		s.closed.Store(true)
		return err
	}
	s.closed.Store(true)
	s.mm.close()
	return s.f.Close()
}

// encodeFreelist serializes a free map as a count followed by (id, blocks)
// uvarint pairs.
func encodeFreelist(free map[int][]PageID) []byte {
	var buf []byte
	n := 0
	for _, ids := range free {
		n += len(ids)
	}
	buf = binary.AppendUvarint(buf, uint64(n))
	for blocks, ids := range free {
		for _, id := range ids {
			buf = binary.AppendUvarint(buf, uint64(id))
			buf = binary.AppendUvarint(buf, uint64(blocks))
		}
	}
	return buf
}

// storeFreelist serializes the freelist into its own extent. Like the
// metadata blob, the list is double-buffered: it is always written to a
// fresh extent and the previous one is released only after the next durable
// header write, so a write torn by a crash can never corrupt the freelist
// the current on-disk header references.
func (s *PagedStore) storeFreelist() error {
	old := extentSpan{id: s.freeID, blocks: s.freeBlk}
	// Size the extent with the current map, allocate (which may pop a free
	// entry — shrinking the list, so the bound still holds), then serialize
	// the final state.
	blocks := BlocksFor(s.blockSize, len(encodeFreelist(s.free)))
	id, err := s.allocLocked(blocks)
	if err != nil {
		return err
	}
	if err := s.writeExtent(id, blocks, encodeFreelist(s.free)); err != nil {
		return err
	}
	s.freeID, s.freeBlk = id, blocks
	if old.id != NilPage {
		s.pendingFree = append(s.pendingFree, old)
	}
	return nil
}

func (s *PagedStore) loadFreelist() error {
	if s.freeID == NilPage {
		return nil
	}
	data, _, err := s.readExtent(s.freeID)
	if err != nil {
		return err
	}
	n, off := binary.Uvarint(data)
	if off <= 0 {
		return fmt.Errorf("%w: freelist count", ErrCorrupt)
	}
	pos := off
	for i := uint64(0); i < n; i++ {
		id, k := binary.Uvarint(data[pos:])
		if k <= 0 {
			return fmt.Errorf("%w: freelist entry %d", ErrCorrupt, i)
		}
		pos += k
		blocks, k2 := binary.Uvarint(data[pos:])
		if k2 <= 0 {
			return fmt.Errorf("%w: freelist entry %d size", ErrCorrupt, i)
		}
		pos += k2
		s.free[int(blocks)] = append(s.free[int(blocks)], PageID(id))
	}
	return nil
}
