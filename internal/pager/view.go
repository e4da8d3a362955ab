package pager

// Zero-copy read path. Pin hands callers a stable read-only []byte
// view of one page instead of copying it into a pool frame:
//
//   - With an active mmap (EnableMmap on a file-backed pager), a view
//     of a pool-absent page points straight into the mapping — no
//     read(2), no frame copy, no allocation. Pages resident in the
//     pool (possibly dirty, i.e. newer than disk) are always served
//     from their frame so readers never observe stale bytes.
//   - Without a mapping, Pin degrades to the pool path: the view
//     aliases the pooled frame and holds its pin.
//
// Checksums are verified once per page generation: a verified-bitmap
// records pages whose on-disk image already passed CRC-32C, so
// repeated pins (and pool re-reads after eviction) skip the checksum.
// Write-back clears the page's bit, because the next read must verify
// what actually reached the medium.
//
// Pin lifetime rules (see DESIGN.md "Zero-copy read path"):
//
//   - A view is valid until its Unpin. Do not retain the []byte after.
//   - Views are read-only; writers go through Fetch + MarkDirty.
//   - Do not write a page (MarkDirty/flush) while holding a view of it.
//   - Unpin exactly once; a second Unpin panics.
//   - Close fails while mmap views are outstanding, instead of
//     unmapping memory out from under them.

import (
	"errors"
	"fmt"
	"os"
	"sync/atomic"
)

// ErrMmapUnsupported is returned by EnableMmap when the platform,
// build, or backend cannot support a read-only file mapping. Callers
// fall back to the pool path; Pin works either way.
var ErrMmapUnsupported = errors.New("pager: mmap unsupported")

// View is a pinned, read-only window onto one page. The zero View is
// invalid.
type View struct {
	id   PageID
	data []byte
	pg   *Page    // non-nil when served from the buffer pool
	m    *mapping // non-nil when served from the mmap
	p    *Pager
}

// ID returns the viewed page's id.
func (v *View) ID() PageID { return v.id }

// Data returns the page bytes. The slice is valid only until Unpin and
// must not be written through.
func (v *View) Data() []byte { return v.data }

// Unpin releases the view. Calling it twice (or on a zero View)
// panics: a released view's bytes may be remapped or evicted, so a
// second release always indicates a lifetime bug in the caller.
func (v *View) Unpin() {
	switch {
	case v.pg != nil:
		v.p.Unpin(v.pg)
	case v.m != nil:
		v.m.unpin()
	default:
		panic("pager: Unpin of released or zero View")
	}
	v.pg, v.m, v.data = nil, nil, nil
}

// mapping is one read-only mmap of the backing file. Pages [0, pages)
// are served from data; anything beyond (allocated after the map was
// made) falls back to the pool until a Commit remaps.
type mapping struct {
	data  []byte
	pages uint32
	pins  atomic.Int64
	freed atomic.Bool
}

func (m *mapping) pin(id PageID) []byte {
	if m.freed.Load() {
		panic(fmt.Sprintf("pager: Pin of page %d on an unmapped file", id))
	}
	m.pins.Add(1)
	off := int64(id) * PageSize
	return m.data[off : off+PageSize : off+PageSize]
}

func (m *mapping) unpin() {
	if m.pins.Add(-1) < 0 {
		panic("pager: mmap view unpinned twice")
	}
}

// EnableMmap maps the backing file read-only and routes Pin through
// it. It fails with ErrMmapUnsupported when the build lacks mmap or
// the backend is not a plain file (memory, fault-injecting and
// snapshot backends keep the pool path, which preserves their
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
// previous mapping, if any, is retired rather than unmapped, so views
// pinned through it stay valid; Close unmaps everything once no pins
// remain. Caller holds hmu.
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
	if old := p.mapping.Swap(&mapping{data: b, pages: pages}); old != nil {
		p.retired = append(p.retired, old)
	}
	return nil
}

// tryRemap extends the mapping after the file has grown (called at the
// end of a successful Commit). Best-effort: failures leave the old
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

// closeMapping unmaps the current and retired mappings. It refuses
// while any view is still pinned — unmapping would turn those views
// into dangling pointers — naming the leak instead.
func (p *Pager) closeMapping() error {
	m := p.mapping.Load()
	if m == nil {
		return nil
	}
	p.hmu.Lock()
	maps := append([]*mapping{m}, p.retired...)
	p.hmu.Unlock()
	var pinned int64
	for _, mm := range maps {
		pinned += mm.pins.Load()
	}
	if pinned > 0 {
		return fmt.Errorf("pager: close with %d pinned mmap view(s) outstanding", pinned)
	}
	p.mapping.Store(nil)
	p.hmu.Lock()
	p.retired = nil
	p.hmu.Unlock()
	for _, mm := range maps {
		mm.freed.Store(true)
		if err := munmapFile(mm.data); err != nil {
			return fmt.Errorf("pager: munmap: %w", err)
		}
	}
	return nil
}

// Pin returns a read-only view of page id. With an active mapping and
// the page absent from the pool, the view is zero-copy (bytes point
// into the mapping); otherwise it aliases the pooled frame, holding
// its pin. Callers must Unpin exactly once.
func (p *Pager) Pin(id PageID) (View, error) {
	if p.closed.Load() {
		return View{}, ErrClosed
	}
	if id == InvalidPage || uint32(id) >= p.numPages.Load() {
		return View{}, fmt.Errorf("%w: %d", ErrPageRange, id)
	}
	if w := p.wal.Load(); w != nil && w.hasFrame(id) {
		// The newest image of this page lives in a WAL frame, so the
		// bytes under the mapping are stale: serve it through the pool,
		// whose read path resolves WAL frames.
		pg, err := p.fetchShard(id)
		if err != nil {
			return View{}, err
		}
		return View{id: id, data: pg.Data[:], pg: pg, p: p}, nil
	}
	if m := p.mapping.Load(); m != nil && uint32(id) < m.pages {
		// Pool first: a resident page may be dirty, i.e. newer than the
		// bytes under the mapping.
		sh := p.shardFor(id)
		sh.mu.Lock()
		if pg, ok := sh.pages[id]; ok {
			sh.pinResident(pg)
			sh.mu.Unlock()
			return View{id: id, data: pg.Data[:], pg: pg, p: p}, nil
		}
		sh.mu.Unlock()
		b := m.pin(id)
		if err := p.verifyBytes(id, b); err != nil {
			m.unpin()
			return View{}, err
		}
		p.mmapPins.Add(1)
		return View{id: id, data: b, m: m, p: p}, nil
	}
	pg, err := p.fetchShard(id)
	if err != nil {
		return View{}, err
	}
	return View{id: id, data: pg.Data[:], pg: pg, p: p}, nil
}

// verifiedSet is a grow-only bitmap of pages whose on-disk image has
// already passed CRC verification this generation. Readers access it
// lock-free through an atomic pointer; growth copies under hmu. A bit
// lost to a concurrent grow only costs one redundant re-verify.
type verifiedSet struct {
	bits []atomic.Uint32
}

func newVerifiedSet(pages uint32) *verifiedSet {
	return &verifiedSet{bits: make([]atomic.Uint32, (pages+31)/32+1)}
}

// pageVerified reports whether id's on-disk image is known-good.
func (p *Pager) pageVerified(id PageID) bool {
	vs := p.verified.Load()
	if vs == nil {
		return false
	}
	w := uint32(id) / 32
	if int(w) >= len(vs.bits) {
		return false
	}
	return vs.bits[w].Load()&(1<<(uint32(id)%32)) != 0
}

// markVerified records that id's on-disk image passed verification.
func (p *Pager) markVerified(id PageID) {
	vs := p.verified.Load()
	if vs == nil {
		return
	}
	w := uint32(id) / 32
	if int(w) >= len(vs.bits) {
		return // a grow will re-verify; correctness is unaffected
	}
	for { // CAS loop: atomic.Uint32.Or needs go1.23, module floor is 1.22
		old := vs.bits[w].Load()
		if vs.bits[w].CompareAndSwap(old, old|1<<(uint32(id)%32)) {
			return
		}
	}
}

// clearVerified forgets id's verification — called when new bytes are
// written back, because only a future read can vouch for what reached
// the medium.
func (p *Pager) clearVerified(id PageID) {
	vs := p.verified.Load()
	if vs == nil {
		return
	}
	w := uint32(id) / 32
	if int(w) >= len(vs.bits) {
		return
	}
	for {
		old := vs.bits[w].Load()
		if vs.bits[w].CompareAndSwap(old, old&^uint32(1<<(uint32(id)%32))) {
			return
		}
	}
}

// maxVerifiedPages bounds the bitmap (64 GiB of file, 2 MiB of bits).
// A page past it pays its CRC on every pool miss, so the bound costs
// time, never correctness — and a damaged header's page count cannot
// drive a gigabyte allocation at open.
const maxVerifiedPages = 1 << 24

// growVerified ensures the bitmap covers pages [0, pages), up to
// maxVerifiedPages. Caller holds hmu (Allocate path).
func (p *Pager) growVerified(pages uint32) {
	if pages > maxVerifiedPages {
		pages = maxVerifiedPages
	}
	vs := p.verified.Load()
	need := int(pages+31)/32 + 1
	if vs != nil && len(vs.bits) >= need {
		return
	}
	grown := &verifiedSet{bits: make([]atomic.Uint32, need*2)}
	if vs != nil {
		for i := range vs.bits {
			grown.bits[i].Store(vs.bits[i].Load())
		}
	}
	p.verified.Store(grown)
}

// verifyBytes checks a page image (pool frame or mmap view) against
// its trailer, consulting and maintaining the verified-bitmap so each
// on-disk generation of a page pays for at most one CRC.
func (p *Pager) verifyBytes(id PageID, data []byte) error {
	if p.pageVerified(id) {
		return nil
	}
	if trailerMarker(data) != pageMarker {
		return fmt.Errorf("pager: page %d: missing checksum trailer: %w", id, ErrChecksum)
	}
	if err := verifyTrailer(data); err != nil {
		return fmt.Errorf("pager: page %d: %w", id, err)
	}
	p.markVerified(id)
	return nil
}
