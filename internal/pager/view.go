package pager

// Zero-copy read path. Reads go through the file mapping; the buffer
// pool is the write side's.
//
//   - With an active mmap (EnableMmap on a file-backed pager), a read of
//     a page that is neither resident in the pool nor carried by a WAL
//     frame returns bytes that point straight into the mapping — no
//     read(2), no frame copy, no allocation, no lock. A read-only walk
//     therefore installs nothing: the pool holds the frames of pages
//     being written (fetched, allocated, dirty or not yet evicted), of
//     pages whose newest image is a WAL frame, and of the pages past the
//     mapping's bound, which a checkpoint raises after its write-back.
//   - A page resident in the pool (possibly dirty, i.e. newer than
//     disk) is always served from its frame, and a page with a WAL frame
//     through the pool's WAL-aware read, so readers never observe stale
//     bytes. Residency is one bit per page (Pager.resident), so the
//     common "not resident" answer costs one atomic load and no pool
//     lock.
//   - Without a mapping (other platforms, the pictdb_nommap build,
//     memory, fault-injecting and crash-capture backends, an address
//     space that cannot hold the reservation) every read takes the pool
//     path: the bytes alias the pooled frame and hold its pin.
//
// Checksums are verified once per page generation: a verified-bitmap
// records pages whose on-disk image already passed CRC-32C, so
// repeated reads (and pool re-reads after eviction) skip the checksum.
// Write-back clears the page's bit, because the next read must verify
// what actually reached the medium.
//
// Lifetime rules (see DESIGN.md "Zero-copy read path"):
//
//   - A Reader (BeginRead … End) is one batch of reads. It holds one
//     reference on the mapping for the whole batch and at most one pool
//     pin at a time: the bytes Page returns are valid until the next
//     Page or End, whichever comes first. Do not retain them after.
//   - A View (Pin … Unpin) is a batch of one: same routine, same rules.
//   - Reads are read-only; writers go through Fetch + MarkDirty.
//   - Do not write a page (MarkDirty) while holding its bytes.
//   - End / Unpin exactly once; a second one panics.
//   - Close fails while any reader or view is outstanding, instead of
//     unmapping memory out from under it.
//   - A Reader is used by one goroutine.

import (
	"errors"
	"fmt"
	"math"
	"os"
	"sync/atomic"
)

// ErrMmapUnsupported is returned by EnableMmap when the platform,
// build, or backend cannot support a read-only file mapping. Callers
// fall back to the pool path; reads work either way.
var ErrMmapUnsupported = errors.New("pager: mmap unsupported")

// Reader is one batch of read-only page reads: BeginRead, any number of
// Page calls, End. The zero Reader is invalid.
type Reader struct {
	p  *Pager
	m  *mapping // the mapping reference held until End; nil without a mapping
	pg *Page    // pool frame behind the bytes last returned, nil if they came from the mapping
	// fromMap counts the pages served from the mapping; End adds it to
	// Stats.MmapPins in one step, so a batch does not write the shared
	// counter once per page.
	fromMap uint64
}

// BeginRead starts a batch of reads. Callers must End it exactly once,
// on every path.
func (p *Pager) BeginRead() Reader {
	return Reader{p: p, m: p.acquireMapping()}
}

// Page returns the bytes of page id, valid until the next Page or End
// and never to be written through. With the page absent from the pool,
// free of WAL frames and inside the mapping they point into the mapping;
// otherwise they alias the pooled frame, whose pin the reader holds.
func (r *Reader) Page(id PageID) ([]byte, error) {
	p := r.p
	r.unpinFrame()
	if p.closed.Load() {
		return nil, ErrClosed
	}
	if id == InvalidPage || uint32(id) >= p.numPages.Load() {
		return nil, fmt.Errorf("%w: %d", ErrPageRange, id)
	}
	if m := r.m; m != nil && uint32(id) < m.pages.Load() {
		// Pool first: a resident page may be dirty, i.e. newer than the
		// bytes under the mapping. The bit is set before an installed page
		// is handed to anyone who could dirty it, so "clear" means the
		// file (or a WAL frame, asked next) holds the newest image. A
		// writer installing the page between this test and the read is
		// excluded by the callers' own locks (a relation's heap lock),
		// as it must be for the bytes to stay put while they are read.
		if p.resident.get(id) {
			p.pmu.Lock()
			if pg, ok := p.pages[id]; ok {
				p.pinResident(pg)
				p.pmu.Unlock()
				r.pg = pg
				return pg.Data[:], nil
			}
			p.pmu.Unlock()
		}
		// A page whose newest image lives in a WAL frame is stale under
		// the mapping: it goes through the pool, whose read path resolves
		// WAL frames.
		if w := p.wal.Load(); w == nil || !w.hasFrame(id) {
			b := m.page(id)
			if err := p.verifyBytes(id, b); err != nil {
				return nil, err
			}
			r.fromMap++
			return b, nil
		}
	}
	pg, err := p.fetch(id)
	if err != nil {
		return nil, err
	}
	r.pg = pg
	return pg.Data[:], nil
}

// unpinFrame releases the pool pin behind the bytes last returned.
func (r *Reader) unpinFrame() {
	if r.pg != nil {
		r.p.Unpin(r.pg)
		r.pg = nil
	}
}

// End releases the batch. Calling it twice (or on a zero Reader)
// panics: released bytes may be unmapped or evicted, so a second
// release always indicates a lifetime bug in the caller.
func (r *Reader) End() {
	if r.p == nil {
		panic("pager: End of an ended or zero Reader (or Unpin of a released View)")
	}
	r.unpinFrame()
	if r.fromMap > 0 {
		r.p.mmapPins.Add(r.fromMap)
	}
	if r.m != nil {
		r.m.release()
	}
	*r = Reader{}
}

// View is a pinned, read-only window onto one page: a Reader that has
// read exactly one page. The zero View is invalid.
type View struct {
	id   PageID
	data []byte
	r    Reader
}

// Pin returns a read-only view of page id (see Reader.Page for where
// its bytes live). Callers must Unpin exactly once.
func (p *Pager) Pin(id PageID) (View, error) {
	r := p.BeginRead()
	data, err := r.Page(id)
	if err != nil {
		r.End()
		return View{}, err
	}
	return View{id: id, data: data, r: r}, nil
}

// ID returns the viewed page's id.
func (v *View) ID() PageID { return v.id }

// Data returns the page bytes. The slice is valid only until Unpin and
// must not be written through.
func (v *View) Data() []byte { return v.data }

// Unpin releases the view. Calling it twice (or on a zero View)
// panics, as Reader.End does.
func (v *View) Unpin() {
	v.r.End()
	v.data = nil
}

// mapping is the one read-only mmap of the backing file, made over a
// fixed reservation of mapReserve bytes when EnableMmap is called and
// unmapped by Close; a file that grows never outgrows it, so it is never
// replaced. Pages [0, pages) are whole on disk and counted by the header
// and are served from data; anything beyond (allocated after the last
// checkpoint, or past the reservation) falls back to the pool. Only a
// checkpoint's fold raises pages, after its write-back, so touching the
// reservation past the file's end (a SIGBUS) is never reachable.
//
// refs counts the readers holding the mapping. Close claims it by
// swapping 0 for mappingDead, so it unmaps only when nobody holds it. A
// reader takes its reference first and checks afterwards: a count that
// comes back negative means the claim won, and the reader backs out
// without having touched data and reads through the pool; a positive
// count makes Close refuse until the release. Unmapped memory is
// therefore never reachable.
type mapping struct {
	data  []byte
	pages atomic.Uint32
	refs  atomic.Int64
}

// mapReserve is the size of the mapping: the pages the residency bits
// track, so every mapped page has a residency bit.
const mapReserve = trackedPages * PageSize

// mappingDead is the refs value of an unmapped mapping: far enough
// below zero that no run of failed acquires brings it back up.
const mappingDead = math.MinInt64 / 2

// acquireMapping takes a reference on the mapping, nil when there is
// none or Close has claimed it.
func (p *Pager) acquireMapping() *mapping {
	m := p.mapping.Load()
	if m == nil {
		return nil
	}
	if m.refs.Add(1) > 0 {
		return m
	}
	m.refs.Add(-1) // claimed by Close
	return nil
}

// release drops one reference.
func (m *mapping) release() {
	if m.refs.Add(-1) < 0 {
		panic("pager: mmap reference released twice")
	}
}

func (m *mapping) page(id PageID) []byte {
	off := int64(id) * PageSize
	return m.data[off : off+PageSize : off+PageSize]
}

// raise lifts the bound to the whole pages of f on disk, at most
// counted (the header's page count) and the reservation. Caller is
// EnableMmap before concurrent use, or a checkpoint under commitMu.
func (m *mapping) raise(f *os.File, counted uint32) error {
	fi, err := f.Stat()
	if err != nil {
		return fmt.Errorf("pager: mmap stat: %w", err)
	}
	if n := uint32(min(fi.Size()/PageSize, int64(counted), trackedPages)); n > m.pages.Load() {
		m.pages.Store(n)
	}
	return nil
}

// EnableMmap maps the backing file read-only over the reservation and
// routes Pin through it. It fails with ErrMmapUnsupported when the
// build lacks mmap, the backend is not a plain file (memory,
// fault-injecting and crash-capture backends keep the pool path, which
// preserves their interception of every read) or the address space
// cannot hold the reservation. Safe to call once, before concurrent use.
func (p *Pager) EnableMmap() error {
	if p.closed.Load() {
		return ErrClosed
	}
	if !mmapSupported || math.MaxInt < mapReserve {
		return ErrMmapUnsupported
	}
	f, ok := p.backend.(*os.File)
	if !ok {
		return fmt.Errorf("%w: backend %T is not a file", ErrMmapUnsupported, p.backend)
	}
	b, err := mmapFile(f, mapReserve)
	if err != nil {
		return fmt.Errorf("%w: %w", ErrMmapUnsupported, err)
	}
	m := &mapping{data: b}
	if err := m.raise(f, p.numPages.Load()); err != nil {
		_ = munmapFile(b)
		return err
	}
	p.mapping.Store(m)
	return nil
}

// MmapActive reports whether Pin currently serves pages from a file
// mapping.
func (p *Pager) MmapActive() bool { return p.mapping.Load() != nil }

// mappedReaders counts the readers and views holding the mapping.
func (p *Pager) mappedReaders() int64 {
	if m := p.mapping.Load(); m != nil {
		return max(m.refs.Load(), 0)
	}
	return 0
}

// closeMapping claims the mapping and unmaps it. It refuses while any
// reader or view holds it — unmapping would turn its bytes into
// dangling pointers — naming the leak instead, and the pager stays
// usable.
func (p *Pager) closeMapping() error {
	m := p.mapping.Load()
	if m == nil {
		return nil
	}
	if !m.refs.CompareAndSwap(0, mappingDead) {
		n := m.refs.Load()
		if n < 0 {
			return nil // a concurrent Close claimed it
		}
		// At least one reader held it at the claim, even if it has left.
		return fmt.Errorf("pager: close with %d pinned mmap view(s) or reader(s) outstanding", max(n, 1))
	}
	p.mapping.Store(nil)
	if err := munmapFile(m.data); err != nil {
		return fmt.Errorf("pager: munmap: %w", err)
	}
	return nil
}

// pageBits is a lock-free bitmap over page ids. It is built of
// fixed-size chunks allocated when a bit in them is first set and never
// moved or freed afterwards, so no set bit is ever lost to growth: the
// residency bitmap depends on that (a lost bit there is a stale read);
// the verified-bitmap merely profits. Pages at or past trackedPages
// have no bit: get answers false and callers choose the safe reading
// of that (resident → ask the pool; verified → check again), so the
// bound costs time, never correctness — and a damaged header's page
// count cannot drive an allocation at open.
type pageBits struct {
	chunks [trackedPages / chunkPages]atomic.Pointer[bitChunk]
}

const (
	chunkPages   = 1 << 15 // 4 KiB of bits per 128 MiB of file
	trackedPages = 1 << 24 // 64 GiB of file
)

type bitChunk [chunkPages / 32]atomic.Uint32

// word returns the word holding id's bit, nil if its chunk does not
// exist (and alloc is false) or id is untracked.
func (b *pageBits) word(id PageID, alloc bool) *atomic.Uint32 {
	if uint32(id) >= trackedPages {
		return nil
	}
	slot := &b.chunks[uint32(id)/chunkPages]
	c := slot.Load()
	if c == nil {
		if !alloc {
			return nil
		}
		if c = new(bitChunk); !slot.CompareAndSwap(nil, c) {
			c = slot.Load()
		}
	}
	return &c[uint32(id)%chunkPages/32]
}

// bit is id's bit within its word.
func bit(id PageID) uint32 { return 1 << (uint32(id) % 32) }

func (b *pageBits) get(id PageID) bool {
	w := b.word(id, false)
	return w != nil && w.Load()&bit(id) != 0
}

func (b *pageBits) set(id PageID) {
	if w := b.word(id, true); w != nil {
		for { // CAS loop: atomic.Uint32.Or needs go1.23, module floor is 1.22
			old := w.Load()
			if old&bit(id) != 0 || w.CompareAndSwap(old, old|bit(id)) {
				return
			}
		}
	}
}

func (b *pageBits) clear(id PageID) {
	if w := b.word(id, false); w != nil {
		for {
			old := w.Load()
			if old&bit(id) == 0 || w.CompareAndSwap(old, old&^bit(id)) {
				return
			}
		}
	}
}

// verifyBytes checks a page image (pool frame or mapped bytes) against
// its trailer, consulting and maintaining the verified-bitmap so each
// on-disk generation of a page pays for at most one CRC on whichever
// path reads it first. Write-back (checkpoint or recovery) and reuse of a
// freed page clear the bit, because only a future read can vouch for
// what reached the medium.
func (p *Pager) verifyBytes(id PageID, data []byte) error {
	if p.verified.get(id) {
		return nil
	}
	if trailerMarker(data) != pageMarker {
		return fmt.Errorf("pager: page %d: missing checksum trailer: %w", id, ErrChecksum)
	}
	if err := verifyTrailer(data); err != nil {
		return fmt.Errorf("pager: page %d: %w", id, err)
	}
	p.verified.set(id)
	return nil
}
