package relation

import (
	"repro/internal/pack"
	"repro/internal/pager"
)

// This file holds what the benchmark harness (cmd/pictbench) compiles
// against from the time a relation could have several stores. Each is a
// view of the one heap and its one spatial index per picture; they go
// when the harness reads the engine's own counters.

// ShardBalanceInfo is one store's entry in the balance report, which no
// relation has any longer (ShardBalance).
type ShardBalanceInfo struct {
	Shard        int
	Items        int64
	KeyLo, KeyHi uint64
}

// ShardBalance returns (nil, 0): a relation is one heap.
func (r *Relation) ShardBalance() ([]ShardBalanceInfo, float64) { return nil, 0 }

// ShardCount returns 1: a relation is one heap.
func (r *Relation) ShardCount() int { return 1 }

// Sharded reports false: no relation has page files of its own.
func (r *Relation) Sharded() bool { return false }

// ShardPager returns the page file the heap lives in.
func (r *Relation) ShardPager(int) *pager.Pager { return r.pgr }

// ShardHeapPages returns the heap's pages (HeapPages).
func (r *Relation) ShardHeapPages(int) ([]pager.PageID, error) { return r.HeapPages() }

// HeapFirstPage returns the first page of the heap's first chain
// (InvalidPage before a tuple is stored there).
func (r *Relation) HeapFirstPage() pager.PageID { return r.heap.FirstPage() }

// Spatials returns pic's spatial index as a list of one, nil when the
// picture is not attached.
func (r *Relation) Spatials(pictureName string) []*SpatialIndex {
	if si := r.Spatial(pictureName); si != nil {
		return []*SpatialIndex{si}
	}
	return nil
}

// SpatialOpts returns the pack options every spatial index is built
// with, {Method: pack.MethodHilbert}, and whether pic is attached.
func (r *Relation) SpatialOpts(pictureName string) (pack.Options, bool) {
	if !r.HasSpatial(pictureName) {
		return pack.Options{}, false
	}
	return hilbertPack, true
}
