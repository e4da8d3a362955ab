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
//     mapped region until the next remap.
//   - A page resident in the pool (possibly dirty, i.e. newer than
//     disk) is always served from its frame, and a page with a WAL frame
//     through the pool's WAL-aware read, so readers never observe stale
//     bytes. Residency is one bit per page (Pager.resident), so the
//     common "not resident" answer costs one atomic load and no pool
//     lock.
//   - Without a mapping (other platforms, the pictdb_nommap build,
//     memory, fault-injecting and crash-capture backends) every read takes
//     the pool path: the bytes alias the pooled frame and hold its pin.
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
	"slices"
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
	if m := r.m; m != nil && uint32(id) < m.pages {
		// Pool first: a resident page may be dirty, i.e. newer than the
		// bytes under the mapping. The bit is set before an installed page
		// is handed to anyone who could dirty it, so "clear" means the
		// file (or a WAL frame, asked next) holds the newest image. A
		// writer installing the page between this test and the read is
		// excluded by the callers' own locks (a relation's heap lock),
		// as it must be for the bytes to stay put while they are read.
		if uint32(id) >= trackedPages || p.resident.get(id) {
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

// mapping is one read-only mmap of the backing file. Pages [0, pages)
// are served from data; anything beyond (allocated after the map was
// made) falls back to the pool until a checkpoint remaps.
//
// refs counts the readers holding the mapping. A mapping that has been
// replaced (or is being closed) is retired, and a retired mapping is
// unmapped by whoever finds its count at zero: the sweep claims it by
// swapping 0 for mappingDead, so exactly one party unmaps and only when
// nobody holds it. A reader takes its reference first and checks
// afterwards: a count that comes back negative means the claim won, the
// reader backs out without having touched data and retries on the
// current mapping; a positive count blocks every later claim until the
// release. Unmapped memory is therefore never reachable.
type mapping struct {
	data    []byte
	pages   uint32
	refs    atomic.Int64
	retired atomic.Bool
}

// mappingDead is the refs value of an unmapped mapping: far enough
// below zero that no run of failed acquires brings it back up.
const mappingDead = math.MinInt64 / 2

// acquireMapping takes a reference on the current mapping, nil when
// there is none.
func (p *Pager) acquireMapping() *mapping {
	for {
		m := p.mapping.Load()
		if m == nil {
			return nil
		}
		if m.refs.Add(1) > 0 {
			if !m.retired.Load() {
				return m
			}
			// Replaced since it was loaded: usable, but a reader that
			// moves on lets the old mapping go as soon as those already
			// inside have left.
			m.release()
			continue
		}
		m.refs.Add(-1) // claimed by the sweep; p.mapping has moved on
	}
}

// release drops one reference, unmapping a retired mapping it leaves
// unheld.
func (m *mapping) release() {
	n := m.refs.Add(-1)
	if n < 0 {
		panic("pager: mmap reference released twice")
	}
	if n == 0 && m.retired.Load() {
		// Best-effort, like the remap that retired it: a failed munmap
		// leaks address space, nothing else.
		_ = m.sweep()
	}
}

// retire marks m replaced and unmaps it if no reader holds it; otherwise
// the last release does. The retired flag is set before the count is
// examined and release examines them in the opposite order, so one of
// the two always sees the mapping both retired and unheld.
func (m *mapping) retire() error {
	m.retired.Store(true)
	return m.sweep()
}

// sweep unmaps m if it can claim it (see mapping).
func (m *mapping) sweep() error {
	if !m.refs.CompareAndSwap(0, mappingDead) {
		return nil
	}
	data := m.data
	m.data = nil
	if err := munmapFile(data); err != nil {
		return fmt.Errorf("pager: munmap: %w", err)
	}
	return nil
}

// dead reports whether m has been unmapped (a failed acquire may sit
// on top of mappingDead for a moment, hence the inequality).
func (m *mapping) dead() bool { return m.refs.Load() < 0 }

// heldReaders counts the readers and views holding any of maps.
func heldReaders(maps []*mapping) int64 {
	var n int64
	for _, m := range maps {
		n += max(m.refs.Load(), 0)
	}
	return n
}

func (m *mapping) page(id PageID) []byte {
	off := int64(id) * PageSize
	return m.data[off : off+PageSize : off+PageSize]
}

// EnableMmap maps the backing file read-only and routes Pin through
// it. It fails with ErrMmapUnsupported when the build lacks mmap or
// the backend is not a plain file (memory, fault-injecting and
// crash-capture backends keep the pool path, which preserves their
// interception of every read). Safe to call once, before concurrent
// use.
func (p *Pager) EnableMmap() error {
	if p.closed.Load() {
		return ErrClosed
	}
	if !mmapSupported {
		return ErrMmapUnsupported
	}
	f, ok := p.backend.(*os.File)
	if !ok {
		return fmt.Errorf("%w: backend %T is not a file", ErrMmapUnsupported, p.backend)
	}
	p.hmu.Lock()
	defer p.hmu.Unlock()
	return p.remapLocked(f)
}

// MmapActive reports whether Pin currently serves pages from a file
// mapping.
func (p *Pager) MmapActive() bool { return p.mapping.Load() != nil }

// remapLocked (re)maps the file over whole pages present on disk. The
// previous mapping, if any, is retired: readers inside it keep their
// bytes, and it is unmapped when the last of them leaves (at once when
// there is none), so a file that grows holds one mapping plus those
// still being read, not one per growth. Caller holds hmu.
func (p *Pager) remapLocked(f *os.File) error {
	fi, err := f.Stat()
	if err != nil {
		return fmt.Errorf("pager: mmap stat: %w", err)
	}
	pages := uint32(fi.Size() / PageSize)
	if n := p.numPages.Load(); pages > n {
		pages = n
	}
	if pages == 0 {
		return fmt.Errorf("%w: file has no full pages", ErrMmapUnsupported)
	}
	b, err := mmapFile(f, int64(pages)*PageSize)
	if err != nil {
		return fmt.Errorf("pager: mmap: %w", err)
	}
	// Forget the retired mappings that have been unmapped since.
	p.retired = slices.DeleteFunc(p.retired, (*mapping).dead)
	if old := p.mapping.Swap(&mapping{data: b, pages: pages}); old != nil {
		// A failed munmap leaks address space; the new mapping serves.
		_ = old.retire()
		if !old.dead() {
			p.retired = append(p.retired, old)
		}
	}
	return nil
}

// tryRemap extends the mapping after the file has grown (called at the
// end of a successful checkpoint). Best-effort: failures leave the old
// mapping serving its pages and the pool serving the rest.
func (p *Pager) tryRemap() {
	m := p.mapping.Load()
	if m == nil {
		return
	}
	f, ok := p.backend.(*os.File)
	if !ok {
		return
	}
	p.hmu.Lock()
	defer p.hmu.Unlock()
	if p.numPages.Load() > m.pages {
		_ = p.remapLocked(f)
	}
}

// mappings returns the current mapping and the retired ones not yet
// known to be unmapped.
func (p *Pager) mappings() []*mapping {
	p.hmu.Lock()
	defer p.hmu.Unlock()
	maps := slices.Clone(p.retired)
	if m := p.mapping.Load(); m != nil {
		maps = append(maps, m)
	}
	return maps
}

// closeMapping unmaps the current and retired mappings. It refuses
// while any reader or view is outstanding — unmapping would turn its
// bytes into dangling pointers — naming the leak instead, and the pager
// stays usable.
func (p *Pager) closeMapping() error {
	maps := p.mappings()
	if n := heldReaders(maps); n > 0 {
		return fmt.Errorf("pager: close with %d pinned mmap view(s) or reader(s) outstanding", n)
	}
	p.mapping.Store(nil)
	p.hmu.Lock()
	p.retired = nil
	p.hmu.Unlock()
	var first error
	for _, m := range maps {
		// A reader that slipped in since the count keeps its mapping
		// until it leaves (retire only unmaps an unheld one).
		if err := m.retire(); err != nil && first == nil {
			first = err
		}
	}
	return first
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
