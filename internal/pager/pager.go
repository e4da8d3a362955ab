// Package pager provides the disk substrate for the pictorial database:
// a file of fixed-size pages plus an LRU buffer pool. The
// relation heaps and the catalog store their records in pager pages.
//
// Durability (page format magic "PICTDB02"): every page reserves
// an 8-byte trailer — a 4-byte marker plus a CRC-32C over the payload
// and marker — stamped when the page is logged and verified on Fetch,
// so torn or bit-rotted pages surface as typed ErrChecksum failures
// instead of silently wrong query results. Every pager that writes
// commits through its write-ahead log (wal.go); only a checkpoint and
// recovery write the page file, and both sync the data pages *before*
// writing and syncing the next of the header's two alternating
// generation-stamped slots on page 0, so a crash at any point leaves
// either the old or the new header valid, never a header describing
// unsynced pages. A pager without a log is a reader: Allocate, Free and
// Commit refuse with ErrNoWAL. There is one format: a file written by
// the pre-checksum v1 format ("PICTDB01"), or upgraded from it and
// therefore only partially checksummed, is refused with
// ErrUnsupportedFormat and left untouched.
//
// Concurrency: the pool is one page map and one LRU list under one
// mutex. Reads go through the file mapping (view.go) and writes through
// the write gate, so the pool serves the write side and is not split to
// spread readers' traffic. Allocate and Free also serialize on the
// file-header lock, taken before the pool's.
package pager

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
)

// PageSize is the size of every page in bytes. 4096 matches a common
// logical disk block, the unit the paper sizes R-tree nodes to fill.
const PageSize = 4096

// TrailerSize is the number of bytes at the end of every page reserved
// for the integrity trailer: a 4-byte marker followed by a 4-byte
// CRC-32C over Data[0:PageSize-4].
const TrailerSize = 8

// PayloadSize is the portion of a page available to callers. Page
// users (heaps, tree nodes, free-list links) must confine their data
// to Data[0:PayloadSize] so the trailer can be stamped.
const PayloadSize = PageSize - TrailerSize

// pageMarker identifies a stamped trailer; a page read back without it
// fails verification.
const pageMarker uint32 = 0xD0C5A9E1

// PageID identifies a page within a file. Page 0 is the file header
// and is never handed out by Allocate.
type PageID uint32

// InvalidPage is the zero PageID; it never refers to an allocatable page.
const InvalidPage PageID = 0

// ErrClosed is returned by operations on a closed pager.
var ErrClosed = errors.New("pager: closed")

// ErrReadOnly is returned by mutating operations on a read-only pager.
var ErrReadOnly = errors.New("pager: read-only")

// ErrPageRange is returned when a PageID is outside the file.
var ErrPageRange = errors.New("pager: page id out of range")

// ErrTruncated is returned when a page inside the header's page count
// cannot be read in full — the file is shorter than the header claims.
// It wraps ErrPageRange so existing range checks keep matching.
var ErrTruncated = fmt.Errorf("%w: file truncated", ErrPageRange)

// ErrChecksum is returned when a page's trailer CRC does not match its
// contents, or a page carries no trailer at all.
var ErrChecksum = errors.New("pager: checksum mismatch")

// ErrBadMagic is returned when the file header does not carry a pictdb
// magic.
var ErrBadMagic = errors.New("pager: bad magic")

// ErrUnsupportedFormat is returned for a file or record written in a
// format this engine no longer reads: a v1 ("PICTDB01") page file, a
// file whose header does not promise a checksum trailer on every page,
// or (from the catalog loader) a V1 catalog record. The file is never
// modified.
var ErrUnsupportedFormat = errors.New("pager: unsupported format")

// ErrPoolExhausted is returned when a page must be brought into a full
// buffer pool every page of which is pinned.
var ErrPoolExhausted = errors.New("pager: buffer pool exhausted")

// Page is an in-memory image of one disk page.
type Page struct {
	ID    PageID
	Data  [PageSize]byte
	dirty bool
	pins  int
	// prev/next link the page into the pool's LRU list when unpinned.
	prev, next *Page
}

// MarkDirty records that the page image differs from its logged or
// on-disk one: the next commit logs it, and until then it is never
// evicted. Call it while holding a pin; a page must have at most one
// concurrent writer.
func (p *Page) MarkDirty() { p.dirty = true }

// magic opens every header slot. unsupportedMagic is the v1 format's,
// recognised only to refuse it by name.
var (
	magic            = [8]byte{'P', 'I', 'C', 'T', 'D', 'B', '0', '2'}
	unsupportedMagic = [8]byte{'P', 'I', 'C', 'T', 'D', 'B', '0', '1'}
)

// flagFullSums is header flag bit 0: every page carries a trailer. It
// is always written set; a header with it clear describes a file
// upgraded from v1 and is refused.
const flagFullSums = 1 << 0

// Header slot layout. Page 0 holds two 32-byte slots (A at offset 0,
// B at offset 32); write-back alternates between them so a torn header
// write destroys at most the slot being written:
//
//	bytes 0..7   magic "PICTDB02"
//	bytes 8..11  number of pages in the file (including header)
//	bytes 12..15 head of the free-page list (0 = none)
//	byte  16     flags (bit 0: every page carries a trailer)
//	bytes 17..19 reserved (zero)
//	bytes 20..27 generation counter
//	bytes 28..31 CRC-32C over bytes 0..27
const headerSlotSize = 32

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// stampTrailer writes the marker and CRC into the page image.
func stampTrailer(data []byte) {
	binary.LittleEndian.PutUint32(data[PageSize-TrailerSize:], pageMarker)
	sum := crc32.Checksum(data[:PageSize-4], castagnoli)
	binary.LittleEndian.PutUint32(data[PageSize-4:], sum)
}

// trailerMarker reads the marker field of the page image.
func trailerMarker(data []byte) uint32 {
	return binary.LittleEndian.Uint32(data[PageSize-TrailerSize:])
}

// verifyTrailer checks the CRC of a marker-bearing page image.
func verifyTrailer(data []byte) error {
	want := binary.LittleEndian.Uint32(data[PageSize-4:])
	got := crc32.Checksum(data[:PageSize-4], castagnoli)
	if got != want {
		return fmt.Errorf("%w: stored %#08x, computed %#08x", ErrChecksum, want, got)
	}
	return nil
}

// Backend abstracts the byte store so the pager can run on a real
// file, fully in memory, or behind a fault-injecting wrapper.
// Implementations must support concurrent ReadAt/WriteAt (os.File
// does; MemBackend locks internally) and must return
// io.ErrUnexpectedEOF (or io.EOF at exact end) for short reads.
type Backend interface {
	io.ReaderAt
	io.WriterAt
	Truncate(size int64) error
	Sync() error
	Close() error
}

// MemBackend is an in-memory Backend. A mutex makes concurrent
// ReadAt/WriteAt safe despite buffer growth.
type MemBackend struct {
	mu  sync.RWMutex
	buf []byte
}

// NewMemBackend creates a memory backend initialized with a copy of
// data (nil for an empty store) — the seam the crash-point harness
// uses to reopen a database from a crash image of its bytes.
func NewMemBackend(data []byte) *MemBackend {
	m := &MemBackend{}
	if len(data) > 0 {
		m.buf = append([]byte(nil), data...)
	}
	return m
}

// Bytes returns a copy of the current backing bytes.
func (m *MemBackend) Bytes() []byte {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return append([]byte(nil), m.buf...)
}

func (m *MemBackend) ReadAt(p []byte, off int64) (int, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if off >= int64(len(m.buf)) {
		return 0, io.EOF
	}
	n := copy(p, m.buf[off:])
	if n < len(p) {
		// A partial read is not a clean EOF: the caller asked for bytes
		// the store does not have.
		return n, io.ErrUnexpectedEOF
	}
	return n, nil
}

func (m *MemBackend) WriteAt(p []byte, off int64) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if end := off + int64(len(p)); end > int64(len(m.buf)) {
		// Grow as append does, so a store written page after page past its
		// end (a write-back in page order, a log's appends) is not copied
		// whole for every page.
		m.buf = append(m.buf, make([]byte, end-int64(len(m.buf)))...)
	}
	return copy(m.buf[off:], p), nil
}

func (m *MemBackend) Truncate(size int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if size <= int64(len(m.buf)) {
		m.buf = m.buf[:size]
		return nil
	}
	grown := make([]byte, size)
	copy(grown, m.buf)
	m.buf = grown
	return nil
}

func (m *MemBackend) Sync() error  { return nil }
func (m *MemBackend) Close() error { return nil }

// Stats reports buffer-pool behaviour: the counters one watches when
// comparing packed against unpacked trees on disk.
type Stats struct {
	Hits      uint64 // page found in the pool
	Misses    uint64 // page read from the backend
	Evictions uint64 // pages evicted to make room
	Allocs    uint64 // pages allocated
	Frees     uint64 // pages freed
	MmapPins  uint64 // pages read straight from the mmap, no frame and no lock
}

// Pager manages a page file through a fixed-capacity LRU buffer pool.
// It is safe for concurrent use.
type Pager struct {
	backend  Backend
	path     string // for error messages
	closed   atomic.Bool
	readOnly atomic.Bool

	// pmu guards the buffer pool: its page map, the LRU list of its
	// unpinned pages (most recent first), the pages' pin counts and the
	// pool's counters.
	pmu      sync.Mutex
	capacity int
	pages    map[PageID]*Page
	lruHead  *Page
	lruTail  *Page
	stats    Stats // Hits/Misses/Evictions only

	// hmu guards the file header state (page count, free list,
	// generation) and serializes Allocate/Free. Lock order: hmu before
	// pmu. numPages is atomic so Fetch can range-check without touching
	// hmu; it is only written under hmu.
	hmu      sync.Mutex
	numPages atomic.Uint32 // pages in file including header
	freeHead PageID
	gen      uint64
	hdrSlot  int // slot holding the current on-disk header (0 or 1)
	allocs   uint64
	frees    uint64

	// Zero-copy read path (view.go): the file mapping, stored only by
	// EnableMmap and Close, the verified- and residency bitmaps, and the
	// count of pages served from the mapping.
	mapping  atomic.Pointer[mapping]
	verified pageBits // on-disk image passed its CRC this generation
	resident pageBits // page has a frame in the pool; written under pmu
	mmapPins atomic.Uint64

	// Write-ahead log (wal.go): non-nil once EnableWAL/EnableWALBackend
	// attached a log (OpenMem attaches an in-memory one); nil makes the
	// pager a reader. Commit is group commit, and reads prefer the newest
	// WAL frame over the (possibly stale) page file. writeGate brackets
	// multi-page mutations (BeginWrite/EndWrite), one at a time, and the
	// commit leader captures page images under it too, so a batch never
	// contains half a mutation.
	wal       atomic.Pointer[walState]
	writeGate sync.Mutex
}

// Open opens (or creates) a page file at path with a buffer pool of
// poolPages pages. poolPages must be at least 1. The pager is a reader
// until EnableWAL or EnableWALBackend attaches a log.
func Open(path string, poolPages int) (*Pager, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("pager: open %s: %w", path, err)
	}
	p, err := newPager(f, poolPages, path)
	if err != nil {
		f.Close()
		return nil, err
	}
	return p, nil
}

// OpenMem creates a purely in-memory pager, useful for tests and for
// indexes that never need to persist. Its log is in memory too, so it
// commits as every other pager does.
func OpenMem(poolPages int) *Pager {
	p, err := newPager(NewMemBackend(nil), poolPages, "(mem)")
	if err == nil {
		err = p.EnableWALBackend(NewMemBackend(nil))
	}
	if err != nil {
		// Memory backends cannot fail to initialize.
		panic(err)
	}
	return p
}

// OpenBackend opens a pager over an arbitrary Backend — the seam the
// fault-injection and crash-point harnesses use to run the full stack
// over torn, failing, or captured storage. Like Open's, the pager is a
// reader until a log is attached.
func OpenBackend(b Backend, poolPages int) (*Pager, error) {
	return newPager(b, poolPages, "(backend)")
}

// parseHeaderSlot validates one 32-byte header slot, returning its
// fields when the magic and CRC check out.
func parseHeaderSlot(slot []byte) (numPages uint32, freeHead PageID, flags byte, gen uint64, ok bool) {
	if [8]byte(slot[0:8]) != magic {
		return 0, 0, 0, 0, false
	}
	want := binary.LittleEndian.Uint32(slot[28:32])
	if crc32.Checksum(slot[:28], castagnoli) != want {
		return 0, 0, 0, 0, false
	}
	return binary.LittleEndian.Uint32(slot[8:12]),
		PageID(binary.LittleEndian.Uint32(slot[12:16])),
		slot[16],
		binary.LittleEndian.Uint64(slot[20:28]),
		true
}

// encodeHeaderSlot serializes one header slot into buf[:headerSlotSize].
func encodeHeaderSlot(buf []byte, numPages uint32, freeHead PageID, gen uint64) {
	copy(buf[0:8], magic[:])
	binary.LittleEndian.PutUint32(buf[8:12], numPages)
	binary.LittleEndian.PutUint32(buf[12:16], uint32(freeHead))
	buf[16] = flagFullSums
	binary.LittleEndian.PutUint64(buf[20:28], gen)
	binary.LittleEndian.PutUint32(buf[28:32], crc32.Checksum(buf[:28], castagnoli))
}

// OpenHook, when non-nil, is called with every pager newPager builds.
// Test binaries set it in TestMain to audit the pagers their tests open
// (internal/leakcheck); nothing else sets it.
var OpenHook func(*Pager)

func newPager(b Backend, poolPages int, path string) (*Pager, error) {
	if poolPages < 1 {
		return nil, fmt.Errorf("pager: pool must hold at least 1 page, got %d", poolPages)
	}
	p := &Pager{
		backend:  b,
		path:     path,
		capacity: poolPages,
		pages:    make(map[PageID]*Page, poolPages),
	}
	var hdr [PageSize]byte
	n, err := b.ReadAt(hdr[:], 0)
	switch {
	case (err == io.EOF || err == io.ErrUnexpectedEOF) && n == 0:
		// Fresh file: write the first header into slot A.
		p.numPages.Store(1)
		p.freeHead = InvalidPage
		p.hdrSlot = 1 // first writeHeader targets slot 0
		if err := p.writeHeader(1, InvalidPage); err != nil {
			return nil, err
		}
	case err != nil && err != io.EOF && err != io.ErrUnexpectedEOF:
		return nil, fmt.Errorf("pager: read header: %w", err)
	default:
		// A short read leaves hdr zero-padded; slot parsing and the
		// magic checks below classify whatever bytes are present. (The
		// header region is the first two slots — a fresh file's page 0
		// may be shorter than a full page until data pages extend it.)
		// Prefer the valid slot with the highest generation.
		best := -1
		var bestNum uint32
		var bestFree PageID
		var bestFlags byte
		var bestGen uint64
		for slot := 0; slot < 2; slot++ {
			num, free, flags, gen, ok := parseHeaderSlot(hdr[slot*headerSlotSize : (slot+1)*headerSlotSize])
			if ok && (best == -1 || gen > bestGen) {
				best, bestNum, bestFree, bestFlags, bestGen = slot, num, free, flags, gen
			}
		}
		switch {
		case best >= 0 && bestFlags&flagFullSums == 0:
			return nil, fmt.Errorf("pager: %s: %w: partially checksummed file (upgraded from v1)", path, ErrUnsupportedFormat)
		case best >= 0 && (bestNum == 0 || uint32(bestFree) >= bestNum):
			// The slot's CRC vouches for its bytes, not for their sense.
			return nil, fmt.Errorf("pager: %s: header: free head %d with %d page(s): %w", path, bestFree, bestNum, ErrPageRange)
		case best >= 0:
			p.numPages.Store(bestNum)
			p.freeHead = bestFree
			p.gen = bestGen
			p.hdrSlot = best
		case [8]byte(hdr[0:8]) == unsupportedMagic:
			return nil, fmt.Errorf("pager: %s: %w: v1 page file (magic %q)", path, ErrUnsupportedFormat, hdr[0:8])
		case [8]byte(hdr[0:8]) == magic:
			// Right magic but no slot validates: a torn or corrupted header.
			return nil, fmt.Errorf("pager: %s: header: %w (no valid header slot)", path, ErrChecksum)
		default:
			return nil, fmt.Errorf("pager: %s: %w: expected %q, got %q: not a pictdb page file",
				path, ErrBadMagic, magic[:], hdr[0:8])
		}
	}
	if OpenHook != nil {
		OpenHook(p)
	}
	return p, nil
}

// writeHeader serializes a header with the given page count and free
// head into the inactive slot, flipping the active slot only when the
// write succeeds. Write-back passes the *committed* values, not whatever
// uncommitted allocations are in flight, and orders the call after the
// data pages it describes have been synced.
func (p *Pager) writeHeader(numPages uint32, freeHead PageID) error {
	p.hmu.Lock()
	defer p.hmu.Unlock()
	slot := 1 - p.hdrSlot
	var buf [headerSlotSize]byte
	encodeHeaderSlot(buf[:], numPages, freeHead, p.gen+1)
	if _, err := p.backend.WriteAt(buf[:], int64(slot)*headerSlotSize); err != nil {
		return fmt.Errorf("pager: write header: %w", err)
	}
	p.gen++
	p.hdrSlot = slot
	return nil
}

// NumPages returns the number of pages in the file, header included.
func (p *Pager) NumPages() int { return int(p.numPages.Load()) }

// Path returns the file path (or a placeholder for non-file backends).
func (p *Pager) Path() string { return p.path }

// SetReadOnly toggles read-only mode: Allocate, Free and Commit fail
// with ErrReadOnly, and Close skips its final commit. Used to serve
// queries from a file that failed verification without risking further
// damage. A failed fsync sets it too (failStop).
func (p *Pager) SetReadOnly(ro bool) { p.readOnly.Store(ro) }

// ReadOnly reports whether the pager refuses writes.
func (p *Pager) ReadOnly() bool { return p.readOnly.Load() }

// Closed reports whether the pager has been closed.
func (p *Pager) Closed() bool { return p.closed.Load() }

// Outstanding reports what the pager still lends out: the readers and
// views holding a file mapping, and the pool pages pinned by Fetch,
// Allocate or a reader. Both are zero once every pin is released.
func (p *Pager) Outstanding() (readers int64, pins int) {
	p.pmu.Lock()
	for _, pg := range p.pages {
		if pg.pins > 0 {
			pins++
		}
	}
	p.pmu.Unlock()
	return p.mappedReaders(), pins
}

// Stats returns a snapshot of the pool counters.
func (p *Pager) Stats() Stats {
	p.pmu.Lock()
	s := p.stats
	p.pmu.Unlock()
	p.hmu.Lock()
	s.Allocs = p.allocs
	s.Frees = p.frees
	p.hmu.Unlock()
	s.MmapPins = p.mmapPins.Load()
	return s
}

// Resident returns how many pages the pool holds now. With a file
// mapping that is the write side's working set (view.go), not the pages
// read.
func (p *Pager) Resident() int {
	p.pmu.Lock()
	defer p.pmu.Unlock()
	return len(p.pages)
}

// ResetStats zeroes the pool counters (between experiment phases).
func (p *Pager) ResetStats() {
	p.pmu.Lock()
	p.stats = Stats{}
	p.pmu.Unlock()
	p.hmu.Lock()
	p.allocs, p.frees = 0, 0
	p.hmu.Unlock()
	p.mmapPins.Store(0)
}

// writable returns why the pager refuses a write, nil when it takes one.
func (p *Pager) writable() error {
	switch {
	case p.closed.Load():
		return ErrClosed
	case p.readOnly.Load():
		return ErrReadOnly
	case p.wal.Load() == nil:
		return ErrNoWAL
	}
	return nil
}

// Allocate returns a pinned, zeroed page, reusing a freed page when one
// is available and extending the file otherwise. Callers must Unpin it.
// The grown page count is logged by the next Commit, with the page.
func (p *Pager) Allocate() (*Page, error) {
	if err := p.writable(); err != nil {
		return nil, err
	}
	p.hmu.Lock()
	defer p.hmu.Unlock()
	if p.freeHead != InvalidPage {
		// Pop the free list; its next pointer lives in the page bytes.
		pg, err := p.fetch(p.freeHead)
		if err != nil {
			return nil, err
		}
		next := PageID(binary.LittleEndian.Uint32(pg.Data[0:4]))
		if next != InvalidPage && uint32(next) >= p.numPages.Load() {
			p.Unpin(pg)
			return nil, fmt.Errorf("pager: free list next pointer %d on page %d: %w", next, pg.ID, ErrPageRange)
		}
		p.freeHead = next
		pg.Data = [PageSize]byte{}
		pg.MarkDirty()
		p.verified.clear(pg.ID) // the on-disk image is now stale
		p.allocs++
		return pg, nil
	}
	id := PageID(p.numPages.Load())
	p.numPages.Add(1)
	p.pmu.Lock()
	pg, err := p.install(id, false)
	p.pmu.Unlock()
	if err != nil {
		// Roll the reservation back so a failed allocation (pool
		// exhausted) doesn't leak a file page.
		p.numPages.Add(^uint32(0))
		return nil, err
	}
	p.allocs++
	pg.MarkDirty()
	return pg, nil
}

// Free returns a page to the free list. The page must not be pinned.
// The shrunk free list is logged by the next Commit.
func (p *Pager) Free(id PageID) error {
	if err := p.writable(); err != nil {
		return err
	}
	p.hmu.Lock()
	defer p.hmu.Unlock()
	if id == InvalidPage || uint32(id) >= p.numPages.Load() {
		return fmt.Errorf("%w: %d", ErrPageRange, id)
	}
	pg, err := p.fetch(id)
	if err != nil {
		return err
	}
	p.pmu.Lock()
	pinned := pg.pins > 1
	p.pmu.Unlock()
	if pinned {
		p.Unpin(pg)
		return fmt.Errorf("pager: freeing pinned page %d", id)
	}
	binary.LittleEndian.PutUint32(pg.Data[0:4], uint32(p.freeHead))
	pg.MarkDirty()
	p.freeHead = id
	p.frees++
	p.Unpin(pg)
	return nil
}

// FreePages walks the free list, validating that every link stays in
// range and acyclic, and returns the free page ids in list order. Each
// visited page passes through Fetch and is therefore
// checksum-verified.
func (p *Pager) FreePages() ([]PageID, error) {
	if p.closed.Load() {
		return nil, ErrClosed
	}
	p.hmu.Lock()
	head := p.freeHead
	p.hmu.Unlock()
	seen := make(map[PageID]bool)
	var out []PageID
	for id := head; id != InvalidPage; {
		if seen[id] {
			return out, fmt.Errorf("pager: free list cycle at page %d", id)
		}
		seen[id] = true
		pg, err := p.Fetch(id)
		if err != nil {
			return out, fmt.Errorf("pager: free list at page %d: %w", id, err)
		}
		out = append(out, id)
		next := PageID(binary.LittleEndian.Uint32(pg.Data[0:4]))
		p.Unpin(pg)
		if next != InvalidPage && uint32(next) >= p.numPages.Load() {
			return out, fmt.Errorf("pager: free list next pointer %d on page %d: %w", next, id, ErrPageRange)
		}
		id = next
	}
	return out, nil
}

// Fetch returns the page with the given id, pinned. Callers must Unpin.
func (p *Pager) Fetch(id PageID) (*Page, error) {
	if p.closed.Load() {
		return nil, ErrClosed
	}
	if id == InvalidPage || uint32(id) >= p.numPages.Load() {
		return nil, fmt.Errorf("%w: %d", ErrPageRange, id)
	}
	return p.fetch(id)
}

// fetch returns page id pinned, from the pool or read into it.
func (p *Pager) fetch(id PageID) (*Page, error) {
	p.pmu.Lock()
	defer p.pmu.Unlock()
	if pg, ok := p.pages[id]; ok {
		p.pinResident(pg)
		return pg, nil
	}
	p.stats.Misses++
	return p.install(id, true)
}

// install evicts as needed and installs page id, reading its contents
// from the newest WAL frame or the backend (verifying frame CRC or page
// trailer respectively) when read is true. Caller holds pmu.
//
// Eviction never steals: a dirty page reaches the page file only through
// its log and a checkpoint, so eviction skips dirty victims and drops a
// clean one without a write (its newest image is a WAL frame or the page
// file), and the last frame it drops holds the new page, zeroed when read
// is false. A full pool whose unpinned pages are all dirty overcommits
// until the next commit logs them, and shrinks back as later installs
// find clean victims. A full pool every page of which is pinned refuses
// with ErrPoolExhausted.
func (p *Pager) install(id PageID, read bool) (*Page, error) {
	w := p.wal.Load()
	var pg *Page
	for len(p.pages) >= p.capacity {
		victim := p.lruTail
		if victim == nil {
			return nil, fmt.Errorf("pager: page %d: %w: all %d pages pinned", id, ErrPoolExhausted, len(p.pages))
		}
		for victim != nil && victim.dirty {
			victim = victim.prev
		}
		if victim == nil {
			break
		}
		p.evict(victim)
		pg = victim
	}
	switch {
	case pg == nil:
		pg = new(Page)
	case !read:
		pg.Data = [PageSize]byte{}
	}
	pg.ID, pg.pins = id, 1
	if read {
		for w != nil {
			f, ok := w.latestFrame(id)
			if !ok {
				break // no frame: the page file holds the newest image
			}
			// The newest image lives in the WAL, not the page file. The
			// frame CRC vouches for it; the verified-bitmap only tracks
			// page-file images, so leave it untouched.
			err := w.readFrameImage(f, id, pg.Data[:])
			if err == nil {
				p.admit(pg)
				return pg, nil
			}
			// A checkpoint may have retired the index and truncated the
			// log between our index lookup and the read; if the frame is
			// gone, the backfilled page file now holds the image — retry
			// against the index. A stable frame that still fails is
			// genuine corruption.
			if f2, ok2 := w.latestFrame(id); ok2 && f2 == f {
				return nil, err
			}
		}
		n, err := p.backend.ReadAt(pg.Data[:], int64(id)*PageSize)
		switch {
		case err == io.EOF || err == io.ErrUnexpectedEOF:
			// The page is inside the header's page count but the store
			// ends before it: the file was truncated.
			return nil, fmt.Errorf("pager: read page %d: %w", id, ErrTruncated)
		case err != nil:
			return nil, fmt.Errorf("pager: read page %d: %w", id, err)
		case n < PageSize:
			return nil, fmt.Errorf("pager: read page %d: %w", id, ErrTruncated)
		}
		if err := p.verifyBytes(id, pg.Data[:]); err != nil {
			return nil, err
		}
	}
	p.admit(pg)
	return pg, nil
}

// admit enters a freshly built, pinned page into the pool. The
// residency bit goes up here, under pmu and before the page is handed
// to anyone who could dirty it, so a reader that finds the bit clear
// knows the pool holds nothing newer than the file. Caller holds pmu.
func (p *Pager) admit(pg *Page) {
	p.pages[pg.ID] = pg
	p.resident.set(pg.ID)
}

// evict drops an unpinned, clean page from the pool. Caller holds pmu.
func (p *Pager) evict(victim *Page) {
	p.lruRemove(victim)
	delete(p.pages, victim.ID)
	p.resident.clear(victim.ID)
	p.stats.Evictions++
}

// pinResident takes a pin on a page already in the pool, counting it as
// a pool hit. Caller holds pmu.
func (p *Pager) pinResident(pg *Page) {
	p.stats.Hits++
	if pg.pins == 0 {
		p.lruRemove(pg)
	}
	pg.pins++
}

// Unpin releases a pin taken by Fetch or Allocate. Unpinned pages
// become eligible for eviction.
func (p *Pager) Unpin(pg *Page) {
	p.pmu.Lock()
	defer p.pmu.Unlock()
	if pg.pins <= 0 {
		panic(fmt.Sprintf("pager: unpin of unpinned page %d", pg.ID))
	}
	pg.pins--
	if pg.pins == 0 {
		p.lruPush(pg)
	}
}

// lruPush inserts pg at the head (most recently used). Caller holds pmu.
func (p *Pager) lruPush(pg *Page) {
	pg.prev = nil
	pg.next = p.lruHead
	if p.lruHead != nil {
		p.lruHead.prev = pg
	}
	p.lruHead = pg
	if p.lruTail == nil {
		p.lruTail = pg
	}
}

// lruRemove unlinks pg from the LRU list. Caller holds pmu.
func (p *Pager) lruRemove(pg *Page) {
	if pg.prev != nil {
		pg.prev.next = pg.next
	} else if p.lruHead == pg {
		p.lruHead = pg.next
	}
	if pg.next != nil {
		pg.next.prev = pg.prev
	} else if p.lruTail == pg {
		p.lruTail = pg.prev
	}
	pg.prev, pg.next = nil, nil
}

// failStop makes the pager read-only after a failed fsync and returns
// err wrapped with ErrReadOnly as well. The pages the sync was to harden
// are already marked clean, so a retried commit would write nothing and
// acknowledge them, durable or not; refusing every later write is the
// answer that never lies. Reopening recovers the last acknowledged
// commit.
func (p *Pager) failStop(err error) error {
	p.readOnly.Store(true)
	return fmt.Errorf("%w (the pager is read-only from here on: %w)", err, ErrReadOnly)
}

// Commit is the durability barrier: it appends every dirty page and a
// commit record to the log and acknowledges once one (group) fsync has
// hardened them; the page file catches up at the next checkpoint. A
// pager without a log refuses with ErrNoWAL.
func (p *Pager) Commit() error {
	if err := p.writable(); err != nil {
		return err
	}
	return p.commitWAL(p.wal.Load())
}

// dirtyPages returns every dirty pool page, in page order.
func (p *Pager) dirtyPages() []*Page {
	var out []*Page
	p.pmu.Lock()
	for _, pg := range p.pages {
		if pg.dirty {
			out = append(out, pg)
		}
	}
	p.pmu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Close commits, checkpoints and closes the pager (read-only pagers just
// release the backends; a pager without a log refuses with ErrNoWAL if a
// page was dirtied, and closes all the same). Further operations fail
// with ErrClosed. Close refuses — and the pager stays open — while
// zero-copy views are still pinned, because unmapping would leave them
// dangling. Past that point the pager is closed whatever happens: a
// failed final commit or checkpoint is returned, and the backends are
// released all the same.
func (p *Pager) Close() error {
	if p.closed.Load() {
		return nil
	}
	if err := p.closeMapping(); err != nil {
		return err
	}
	if p.closed.Swap(true) {
		return nil
	}
	w := p.wal.Load()
	var err error
	switch {
	case p.readOnly.Load():
	case w != nil:
		err = p.closeWAL(w)
	default:
		if n := len(p.dirtyPages()); n > 0 {
			err = fmt.Errorf("pager: close: %d page(s) changed without a log: %w", n, ErrNoWAL)
		}
	}
	if w != nil {
		if cerr := w.backend.Close(); err == nil {
			err = cerr
		}
	}
	if cerr := p.backend.Close(); err == nil {
		err = cerr
	}
	return err
}
