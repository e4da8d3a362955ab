package relation

import (
	"fmt"

	"repro/internal/pager"
	"repro/internal/storage"
)

// This file is how an id finds its tuple (DESIGN.md §15). In every
// relation a tuple's id is its heap address and its record is the
// encoded tuple: nothing precedes it. A freed slot is never handed out
// again, so an id names one tuple and, once that tuple is deleted,
// none. Every store is a heap in the database's one page file, so
// the heaps own disjoint pages and an address is unique across a
// relation's stores. A one-store relation needs nothing more; an
// n-store relation keeps pageStores, which names the store whose heap
// owns each page. A store tag inside the id would not fit: an address
// already takes TupleID's 48 bits.

// MaxShards bounds the store count: pageStores holds a store in a byte,
// 0 meaning none.
const MaxShards = 255

// pageStores maps a heap page to the store whose heap owns it: entry p
// is that store's number plus one, 0 for a page no record of the
// relation has been seen on. It is guarded by Relation.smu. An entry is
// written when a store's heap hands out an address on the page, before
// the id is published, and never changes after: pages never leave a heap.
type pageStores []uint8

// store returns the store owning page, ok false when none does.
func (t pageStores) store(page pager.PageID) (int, bool) {
	if int(page) >= len(t) || t[page] == 0 {
		return 0, false
	}
	return int(t[page]) - 1, true
}

// claim records that store s's heap owns page. A page already owned by
// another store is in two heaps: corruption.
func (t *pageStores) claim(page pager.PageID, s int) error {
	for len(*t) <= int(page) {
		*t = append(*t, 0)
	}
	switch v := (*t)[page]; {
	case v == 0:
		(*t)[page] = uint8(s + 1)
	case int(v)-1 != s:
		return fmt.Errorf("%w: heap page %d is in store %d and store %d", storage.ErrCorrupt, page, v-1, s)
	}
	return nil
}
