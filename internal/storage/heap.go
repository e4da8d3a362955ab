// Package storage implements slotted-page heap files over the pager:
// the tuple store of the pictorial database. R-tree leaf entries and
// B-tree index entries point at tuples through TupleIDs — the paper's
// "tuple-identifier is a pointer to a data object".
package storage

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"repro/internal/pager"
)

// TupleID locates one tuple: the page that holds it, its slot within
// the page, and the store of its relation whose heap the page is in. A
// heap hands out ids with Store 0 and never reads it; a relation of
// several stores sets it. The zero TupleID is invalid.
type TupleID struct {
	Page  pager.PageID
	Slot  uint16
	Store uint8
}

// IsValid reports whether the id could refer to a stored tuple.
func (id TupleID) IsValid() bool { return id.Page != pager.InvalidPage }

// Int64 packs the TupleID into an int64 so it can ride in an R-tree
// leaf entry's data pointer: store<<48 | page<<16 | slot, which is
// page<<16 | slot for Store 0.
func (id TupleID) Int64() int64 {
	return int64(uint64(id.Store)<<48 | uint64(id.Page)<<16 | uint64(id.Slot))
}

// TupleIDFromInt64 unpacks an id created by Int64.
func TupleIDFromInt64(v int64) TupleID {
	return TupleID{Page: pager.PageID(uint32(v >> 16)), Slot: uint16(v), Store: uint8(v >> 48)}
}

// Compare orders ids by (store, page, slot) — the order of their Int64
// encodings, and within a store the order a heap scan delivers.
func (id TupleID) Compare(o TupleID) int {
	return cmp.Compare(id.Int64(), o.Int64())
}

// String formats the id as "page:slot", or "store/page:slot" for a
// store other than 0.
func (id TupleID) String() string {
	if id.Store != 0 {
		return fmt.Sprintf("%d/%d:%d", id.Store, id.Page, id.Slot)
	}
	return fmt.Sprintf("%d:%d", id.Page, id.Slot)
}

// ErrNotFound is returned when a TupleID does not refer to a live tuple.
var ErrNotFound = errors.New("storage: tuple not found")

// ErrTooLarge is returned when a record cannot fit in a page.
var ErrTooLarge = errors.New("storage: record larger than page capacity")

// ErrCorrupt is returned when a page's slotted structure is invalid —
// the typed error the durability suite expects instead of a panic or
// silently wrong bytes.
var ErrCorrupt = errors.New("storage: corrupt heap page")

// Slotted page layout:
//
//	offset 0:  uint16 slotCount
//	offset 2:  uint16 freeStart   (end of slot directory growth area)
//	offset 4:  uint16 freeEnd     (start of record data area, grows down)
//	offset 6:  uint32 nextPage    (heap page chain)
//	offset 10: slot directory: per slot uint16 offset, uint16 length
//	           (offset 0xFFFF marks a dead slot)
//	...
//	records packed from the end of the usable payload downwards (the
//	pager reserves a checksum trailer past pager.PayloadSize; pages
//	written by pre-checksum builds may pack records all the way to
//	pager.PageSize and stay readable).
const (
	headerSize   = 10
	slotSize     = 4
	deadOffset   = 0xFFFF
	offSlotCount = 0
	offFreeEnd   = 4
	offNextPage  = 6
)

// MaxRecordSize is the largest record a single page can hold.
const MaxRecordSize = pager.PayloadSize - headerSize - slotSize

// slotted reads a slotted-page image wherever its bytes live: a
// mutable pool frame (pageView) or the read-only bytes of the pager's
// zero-copy read path (every read-only Heap method). It never writes.
type slotted []byte

func (s slotted) slotCount() int { return int(binary.LittleEndian.Uint16(s[offSlotCount:])) }
func (s slotted) freeEnd() int   { return int(binary.LittleEndian.Uint16(s[offFreeEnd:])) }
func (s slotted) nextPage() pager.PageID {
	return pager.PageID(binary.LittleEndian.Uint32(s[offNextPage:]))
}

func (s slotted) slot(i int) (offset, length int) {
	base := headerSize + i*slotSize
	return int(binary.LittleEndian.Uint16(s[base:])),
		int(binary.LittleEndian.Uint16(s[base+2:]))
}

// check validates the slotted structure of one page image: directory
// and free pointers in bounds, every live slot's record inside the
// page and below the free space. It returns an error wrapping
// ErrCorrupt.
func (s slotted) check() error {
	sc := s.slotCount()
	dirEnd := headerSize + sc*slotSize
	fe := s.freeEnd()
	if dirEnd > pager.PageSize {
		return fmt.Errorf("%w: slot directory (%d slots) exceeds page", ErrCorrupt, sc)
	}
	if fe < dirEnd || fe > pager.PageSize {
		return fmt.Errorf("%w: free end %d outside [%d,%d]", ErrCorrupt, fe, dirEnd, pager.PageSize)
	}
	for i := 0; i < sc; i++ {
		off, length := s.slot(i)
		if off == deadOffset {
			continue
		}
		if off < fe || off+length > pager.PageSize {
			return fmt.Errorf("%w: slot %d record [%d,%d) outside data area [%d,%d)", ErrCorrupt, i, off, off+length, fe, pager.PageSize)
		}
	}
	return nil
}

// record returns the record id names on this image of id.Page, nil for
// a dead slot. A slot past the end of the directory was never handed
// out: ErrNotFound.
func (s slotted) record(id TupleID) ([]byte, error) {
	if int(id.Slot) >= s.slotCount() {
		return nil, fmt.Errorf("%w: %v", ErrNotFound, id)
	}
	off, length := s.slot(int(id.Slot))
	if off == deadOffset {
		return nil, nil
	}
	if off < headerSize || off+length > pager.PageSize {
		return nil, fmt.Errorf("page %d: %w: slot %d record [%d,%d) outside page", id.Page, ErrCorrupt, id.Slot, off, off+length)
	}
	return s[off : off+length], nil
}

// pageView is the write side's handle on a slotted page: a pool frame
// fetched because it is about to be written.
type pageView struct {
	pg *pager.Page
}

func (v pageView) bytes() slotted { return slotted(v.pg.Data[:]) }

func (v pageView) slotCount() int { return v.bytes().slotCount() }
func (v pageView) setSlotCount(n int) {
	binary.LittleEndian.PutUint16(v.pg.Data[offSlotCount:], uint16(n))
}
func (v pageView) freeEnd() int { return v.bytes().freeEnd() }
func (v pageView) setFreeEnd(n int) {
	binary.LittleEndian.PutUint16(v.pg.Data[offFreeEnd:], uint16(n))
}
func (v pageView) nextPage() pager.PageID { return v.bytes().nextPage() }
func (v pageView) setNextPage(id pager.PageID) {
	binary.LittleEndian.PutUint32(v.pg.Data[offNextPage:], uint32(id))
}

func (v pageView) slot(i int) (offset, length int) { return v.bytes().slot(i) }

func (v pageView) setSlot(i, offset, length int) {
	base := headerSize + i*slotSize
	binary.LittleEndian.PutUint16(v.pg.Data[base:], uint16(offset))
	binary.LittleEndian.PutUint16(v.pg.Data[base+2:], uint16(length))
}

// init prepares an empty slotted page, leaving the pager's checksum
// trailer zone untouched.
func (v pageView) init() {
	v.setSlotCount(0)
	v.setFreeEnd(pager.PayloadSize)
	v.setNextPage(pager.InvalidPage)
}

// freeSpace returns the bytes available for one more record plus its
// slot entry.
func (v pageView) freeSpace() int {
	dirEnd := headerSize + v.slotCount()*slotSize
	return v.freeEnd() - dirEnd
}

// insert places rec in a new slot at the end of the directory,
// returning it: a dead slot is never handed out again, so a TupleID
// names one record for the life of the file. The caller must have
// checked freeSpace.
func (v pageView) insert(rec []byte) int {
	slot := v.slotCount()
	v.setSlotCount(slot + 1)
	start := v.freeEnd() - len(rec)
	copy(v.pg.Data[start:], rec)
	v.setFreeEnd(start)
	v.setSlot(slot, start, len(rec))
	v.pg.MarkDirty()
	return slot
}

// Heap is a chain of slotted pages storing variable-length records.
type Heap struct {
	p     *pager.Pager
	first pager.PageID
	last  pager.PageID
	count int
}

// Create returns a new empty heap in p. It touches no page: the heap
// takes its first page with its first record, so the PageID it returns
// is InvalidPage. Store FirstPage to reopen the heap.
func Create(p *pager.Pager) (*Heap, pager.PageID, error) {
	return &Heap{p: p}, pager.InvalidPage, nil
}

// Open reattaches to a heap whose first page is first (InvalidPage: an
// empty heap). The record count is recomputed by walking the chain, every
// page's slotted structure checked first: a corrupt page, a cycle or an
// out-of-range link fails with an error wrapping ErrCorrupt.
func Open(p *pager.Pager, first pager.PageID) (*Heap, error) {
	h := &Heap{p: p, first: first, last: first}
	err := h.chain(func(id pager.PageID, s slotted) error {
		if err := s.check(); err != nil {
			return fmt.Errorf("heap page %d: %w", id, err)
		}
		for i := 0; i < s.slotCount(); i++ {
			if off, _ := s.slot(i); off != deadOffset {
				h.count++
			}
		}
		h.last = id
		return nil
	})
	if err != nil {
		return nil, err
	}
	return h, nil
}

// FirstPage returns the PageID of the heap's first page, InvalidPage
// until its first Insert.
func (h *Heap) FirstPage() pager.PageID { return h.first }

// Len returns the number of live records.
func (h *Heap) Len() int { return h.count }

// Insert appends a record and returns its TupleID. A full last page
// gets a fresh page chained after it, and a heap with no page yet takes
// its first one here.
func (h *Heap) Insert(rec []byte) (TupleID, error) {
	if len(rec) > MaxRecordSize {
		return TupleID{}, fmt.Errorf("%w: %d > %d", ErrTooLarge, len(rec), MaxRecordSize)
	}
	var pg *pager.Page
	if h.last != pager.InvalidPage {
		var err error
		if pg, err = h.p.Fetch(h.last); err != nil {
			return TupleID{}, err
		}
	}
	if pg == nil || (pageView{pg}).freeSpace() < len(rec)+slotSize {
		npg, err := h.p.Allocate()
		if err != nil {
			if pg != nil {
				h.p.Unpin(pg)
			}
			return TupleID{}, err
		}
		pageView{npg}.init()
		if pg == nil {
			h.first = npg.ID
		} else {
			pageView{pg}.setNextPage(npg.ID)
			pg.MarkDirty()
			h.p.Unpin(pg)
		}
		h.last = npg.ID
		pg = npg
	}
	slot := pageView{pg}.insert(rec)
	id := TupleID{Page: pg.ID, Slot: uint16(slot)}
	h.p.Unpin(pg)
	h.count++
	return id, nil
}

// Get returns a copy of the record at id.
func (h *Heap) Get(id TupleID) ([]byte, error) {
	r := h.p.BeginRead()
	defer r.End()
	b, err := r.Page(id.Page)
	if err != nil {
		return nil, err
	}
	rec, err := slotted(b).record(id)
	if err != nil {
		return nil, err
	}
	if rec == nil {
		return nil, fmt.Errorf("%w: %v (deleted)", ErrNotFound, id)
	}
	out := make([]byte, len(rec))
	copy(out, rec)
	return out, nil
}

// GetBatch reads the records of many ids through one pager.Reader held
// for the whole batch (the zero-copy read path: bytes come straight from
// the mmap when one is active and the page is not in the pool, from the
// buffer pool otherwise), reading each distinct page once. fn is called
// exactly once per id — i indexes into ids — in ascending (page, slot)
// order, which groups all ids of one page under a single read. Callers
// on the statement path hand in ids already
// in that order, which one pass confirms; any other order is sorted
// here. rec points into the page image: it is valid only during the
// call and must not be retained or written through. A deleted id's rec
// is nil. Any fn error, id never handed out, or corrupt slot aborts the
// batch.
func (h *Heap) GetBatch(ids []TupleID, fn func(i int, rec []byte) error) error {
	if !slices.IsSortedFunc(ids, TupleID.Compare) {
		order := make([]int, len(ids))
		for i := range order {
			order[i] = i
		}
		slices.SortFunc(order, func(a, b int) int { return ids[a].Compare(ids[b]) })
		sorted := make([]TupleID, len(ids))
		for k, i := range order {
			sorted[k] = ids[i]
		}
		return h.GetBatch(sorted, func(k int, rec []byte) error { return fn(order[k], rec) })
	}
	r := h.p.BeginRead()
	defer r.End()
	for i := 0; i < len(ids); {
		page := ids[i].Page
		b, err := r.Page(page)
		if err != nil {
			return err
		}
		s := slotted(b)
		for ; i < len(ids) && ids[i].Page == page; i++ {
			rec, err := s.record(ids[i])
			if err != nil {
				return err
			}
			if err := fn(i, rec); err != nil {
				return err
			}
		}
	}
	return nil
}

// Delete removes the record at id. Space within the page is not
// compacted (records are never updated in place in this static-
// database design), and the slot stays dead: no later Insert takes it,
// so id resolves to ErrNotFound from now on. Of two Deletes of one id
// the second reports ErrNotFound.
func (h *Heap) Delete(id TupleID) error {
	pg, err := h.p.Fetch(id.Page)
	if err != nil {
		return err
	}
	defer h.p.Unpin(pg)
	v := pageView{pg}
	if int(id.Slot) >= v.slotCount() {
		return fmt.Errorf("%w: %v", ErrNotFound, id)
	}
	if off, _ := v.slot(int(id.Slot)); off == deadOffset {
		return fmt.Errorf("%w: %v (already deleted)", ErrNotFound, id)
	}
	v.setSlot(int(id.Slot), deadOffset, 0)
	pg.MarkDirty()
	h.count--
	return nil
}

// Free returns every page of the heap to the pager's free list; the
// heap must not be used afterwards. Used when a heap is replaced
// wholesale (e.g. a superseded heap of catalog definitions).
func (h *Heap) Free() error {
	id := h.first
	for id != pager.InvalidPage {
		pg, err := h.p.Fetch(id)
		if err != nil {
			return err
		}
		next := pageView{pg}.nextPage()
		h.p.Unpin(pg)
		if err := h.p.Free(id); err != nil {
			return err
		}
		id = next
	}
	h.count = 0
	return nil
}

// Scan calls fn for every live record in storage order; returning
// false stops the scan. The record slice is only valid during the
// call. A structurally invalid page stops the scan with an error
// wrapping ErrCorrupt.
func (h *Heap) Scan(fn func(id TupleID, rec []byte) bool) error {
	r := h.p.BeginRead()
	defer r.End()
	for id := h.first; id != pager.InvalidPage; {
		next, err := scanPage(&r, id, fn)
		if err != nil {
			return err
		}
		id = next
	}
	return nil
}

// ScanPage is Scan over one page of the chain, id. It returns the page
// that follows, InvalidPage at the end of the chain or once fn has
// stopped the scan. Pages never leave a chain, so a caller that guards
// the heap with a lock may drop it between pages.
func (h *Heap) ScanPage(id pager.PageID, fn func(id TupleID, rec []byte) bool) (pager.PageID, error) {
	r := h.p.BeginRead()
	defer r.End()
	return scanPage(&r, id, fn)
}

func scanPage(r *pager.Reader, id pager.PageID, fn func(id TupleID, rec []byte) bool) (pager.PageID, error) {
	b, err := r.Page(id)
	if err != nil {
		return pager.InvalidPage, err
	}
	s := slotted(b)
	if err := s.check(); err != nil {
		return pager.InvalidPage, fmt.Errorf("heap page %d: %w", id, err)
	}
	for i := 0; i < s.slotCount(); i++ {
		off, length := s.slot(i)
		if off == deadOffset {
			continue
		}
		if !fn(TupleID{Page: id, Slot: uint16(i)}, s[off:off+length]) {
			return pager.InvalidPage, nil
		}
	}
	return s.nextPage(), nil
}

// chain calls fn on each page of the heap chain in order, guarding
// against cycles and out-of-range links with errors wrapping ErrCorrupt.
// Each page passes through the pager's read path and is therefore
// checksum-verified. An error from fn stops the walk.
func (h *Heap) chain(fn func(id pager.PageID, s slotted) error) error {
	seen := make(map[pager.PageID]bool)
	r := h.p.BeginRead()
	defer r.End()
	for id := h.first; id != pager.InvalidPage; {
		if seen[id] {
			return fmt.Errorf("%w: chain cycle at page %d", ErrCorrupt, id)
		}
		seen[id] = true
		b, err := r.Page(id)
		if err != nil {
			return err
		}
		s := slotted(b)
		if err := fn(id, s); err != nil {
			return err
		}
		next := s.nextPage()
		if next != pager.InvalidPage && int(next) >= h.p.NumPages() {
			return fmt.Errorf("%w: page %d links to out-of-range page %d", ErrCorrupt, id, next)
		}
		id = next
	}
	return nil
}

// Pages returns the page ids of the heap chain in order, guarding
// against cycles and out-of-range links with errors wrapping
// ErrCorrupt.
func (h *Heap) Pages() ([]pager.PageID, error) {
	var out []pager.PageID
	err := h.chain(func(id pager.PageID, _ slotted) error {
		out = append(out, id)
		return nil
	})
	return out, err
}

// Check walks the heap chain and validates every page's slotted
// structure; structural faults return errors wrapping ErrCorrupt.
func (h *Heap) Check() error {
	return h.chain(func(id pager.PageID, s slotted) error {
		if err := s.check(); err != nil {
			return fmt.Errorf("heap page %d: %w", id, err)
		}
		return nil
	})
}
