package relation

import (
	"fmt"

	"repro/internal/pager"
	"repro/internal/storage"
)

// This file is how an id finds its tuple (DESIGN.md §15). In every
// relation a tuple's id is its heap address tagged with the store whose
// heap holds it (storage.TupleID's Store), and its record is the encoded
// tuple: nothing precedes it. A one-store relation's ids carry store 0,
// so they are exactly heap addresses. A freed slot is never handed out
// again, so an id names one tuple and, once that tuple is deleted,
// none. Every store is a heap in the database's one page file, and the
// heaps own disjoint pages: Open and Check refuse a page two heaps
// chain (disjointHeaps), which the ids alone would never show.

// MaxShards bounds the store count: an id holds its store in a byte.
const MaxShards = 255

// inStore returns the id of the tuple at heap address lid of store s.
func inStore(lid storage.TupleID, s int) storage.TupleID {
	lid.Store = uint8(s)
	return lid
}

// disjointHeaps reports a heap page chained into two stores' heaps from
// the heaps' own page lists, each read under its store's lock.
func (r *Relation) disjointHeaps() error {
	if len(r.stores) == 1 {
		return nil
	}
	owner := make(map[pager.PageID]int)
	for s := range r.stores {
		pages, err := r.ShardHeapPages(s)
		if err != nil {
			return r.storeErr(s, err)
		}
		for _, page := range pages {
			if o, ok := owner[page]; ok {
				return fmt.Errorf("relation %s: %w: heap page %d is in store %d and store %d", r.name, storage.ErrCorrupt, page, o, s)
			}
			owner[page] = s
		}
	}
	return nil
}
