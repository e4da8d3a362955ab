package relation

import (
	"hash/fnv"
	"slices"

	"repro/internal/geom"
	"repro/internal/pack"
	"repro/internal/pager"
	"repro/internal/rtree"
)

// This file is what a relation with several stores adds (DESIGN.md
// §15): placement of new tuples by Hilbert key range, the per-store
// accessors the catalog, the checker and the balance report read, and
// the scatter-gather read path over one spatial index per store.
//
// The contract is that the store count changes no answer's rows:
// queries return the same rows at every count, each in the canonical
// ascending id order. Each store's spatial index reports the ids it
// holds for a window and the gather step sorts their union once — a
// tuple's id names its store, so no id appears twice. An id follows its
// relation's layout, ascending by (store, page, slot), so under the
// default order the rows come in an order that can differ between
// counts; under an order by that is total on them, it cannot. Placement
// is a pure heuristic: contiguous key ranges per store keep spatially
// clustered tuples together, so clustered windows overlap few stores'
// bounds, but correctness never depends on where a tuple lives — its id
// says where (ids.go).

// KeyRange is the half-open Hilbert key range [Lo, Hi) routed to one
// shard.
type KeyRange struct {
	Lo, Hi uint64
}

// evenKeyRanges divides the Hilbert key space evenly across n shards —
// the layout of every sharded relation.
func evenKeyRanges(n int) []KeyRange {
	out := make([]KeyRange, n)
	for s := range out {
		out[s] = KeyRange{Lo: shardKeyLo(uint64(s), uint64(n)), Hi: shardKeyLo(uint64(s)+1, uint64(n))}
	}
	return out
}

// shardKeyLo is the smallest Hilbert key an even split routes to shard
// s of n: the least k with k*n >> HilbertKeyBits == s.
func shardKeyLo(s, n uint64) uint64 {
	return (s<<geom.HilbertKeyBits + n - 1) / n
}

// shardForKey returns the shard of n whose even key range contains key
// (shardKeyLo's inverse); a key beyond the key space (possible only for
// degenerate extents) routes to the last.
func shardForKey(n int, key uint64) int {
	return int(min(key*uint64(n)>>geom.HilbertKeyBits, uint64(n-1)))
}

// ShardCount returns the number of stores.
func (r *Relation) ShardCount() int { return len(r.stores) }

// ShardPager returns the page file store s lives in: the database's one
// pager, whatever s. It is kept only for the benchmark harness.
func (r *Relation) ShardPager(int) *pager.Pager { return r.pgr }

// ShardHeapFirstPages returns each store heap's first page, the
// handles the catalog persists to reopen the relation: InvalidPage for
// a store that has held no tuple.
func (r *Relation) ShardHeapFirstPages() []pager.PageID {
	out := make([]pager.PageID, len(r.stores))
	for s, st := range r.stores {
		out[s] = st.firstPage()
	}
	return out
}

// ShardKeyRanges returns each store's half-open Hilbert key range (nil
// for a one-store relation, which routes nothing).
func (r *Relation) ShardKeyRanges() []KeyRange {
	if len(r.stores) == 1 {
		return nil
	}
	return evenKeyRanges(len(r.stores))
}

// ShardBalanceInfo is one shard's entry in the balance report.
type ShardBalanceInfo struct {
	Shard        int
	Items        int64
	KeyLo, KeyHi uint64
}

// ShardBalance reports each shard's live tuple count and Hilbert key
// range, plus the imbalance factor: the largest shard's count over the
// mean (1 = perfectly balanced, 0 = empty relation). A one-store
// relation has no balance to report: nil.
func (r *Relation) ShardBalance() ([]ShardBalanceInfo, float64) {
	if len(r.stores) == 1 {
		return nil, 0
	}
	out := make([]ShardBalanceInfo, len(r.stores))
	ranges := r.ShardKeyRanges()
	total := int64(0)
	maxItems := int64(0)
	for s, st := range r.stores {
		n := int64(st.len())
		out[s] = ShardBalanceInfo{
			Shard: s,
			Items: n,
			KeyLo: ranges[s].Lo,
			KeyHi: ranges[s].Hi,
		}
		total += n
		maxItems = max(maxItems, n)
	}
	if total == 0 {
		return out, 0
	}
	mean := float64(total) / float64(len(out))
	return out, float64(maxItems) / mean
}

// ShardHeapPages returns the page ids owned by store s's heap.
func (r *Relation) ShardHeapPages(s int) ([]pager.PageID, error) {
	st := r.stores[s]
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.heap.Pages()
}

// place picks the store a new tuple should land in: the Hilbert key of
// the center of its loc object's MBR over the picture's extent, looked
// up in the per-store key ranges, when the relation has that picture
// attached. Other tuples (no loc, or a picture not attached yet) fall
// back to a hash of their own bytes (EncodeTuple). Placement only
// affects locality — the id, not the placement rule, resolves reads —
// so attaching a picture after a fallback-placed load is
// correct, just less clustered.
func (r *Relation) place(t Tuple, loc LocRef, mbr geom.Rect, hasLoc bool) int {
	n := len(r.stores)
	if n == 1 {
		return 0
	}
	if hasLoc {
		r.smu.RLock()
		sis := r.spatial[loc.Picture]
		r.smu.RUnlock()
		if sis != nil {
			return shardForKey(n, geom.HilbertKey(sis[0].Picture.Extent(), mbr.Center()))
		}
	}
	h := fnv.New64a()
	h.Write(EncodeTuple(t))
	return int(h.Sum64() % uint64(n))
}

// spatialList returns the spatial indexes answering for pic, one per
// store, nil when the picture is not attached.
func (r *Relation) spatialList(pictureName string) []*SpatialIndex {
	r.smu.RLock()
	defer r.smu.RUnlock()
	return r.spatial[pictureName]
}

// Spatials returns the spatial indexes backing pic — one per store,
// nil when the picture is not attached. Callers set a store's repack
// threshold or run its repack through it.
func (r *Relation) Spatials(pictureName string) []*SpatialIndex {
	return r.spatialList(pictureName)
}

// HasSpatial reports whether pic has a spatial index.
func (r *Relation) HasSpatial(pictureName string) bool {
	return r.spatialList(pictureName) != nil
}

// SpatialOpts returns the pack options every spatial index is built
// with, {Method: pack.MethodHilbert}, and whether pic is attached. It is
// kept only for the benchmark harness, which compiles against it; it
// goes with AttachPicture's options when the harness reads the engine's
// own counters.
func (r *Relation) SpatialOpts(pictureName string) (pack.Options, bool) {
	if !r.HasSpatial(pictureName) {
		return pack.Options{}, false
	}
	return hilbertPack, true
}

// SpatialCostSnapshot returns the planner's cost view of pic's index.
// For a sharded relation it merges per-shard snapshots over only the
// shards whose bounds overlap the union of the query windows (none
// given = every shard), so estimated costs track the shards a scatter
// would actually visit: item, node and leaf counts, coverage and the
// write sides sum. Depth is the first admitted shard's: the planner
// does not price it.
func (r *Relation) SpatialCostSnapshot(pictureName string, windows []geom.Rect) (CostSnapshot, bool) {
	sis := r.spatialList(pictureName)
	if sis == nil {
		return CostSnapshot{}, false
	}
	if len(sis) == 1 {
		return sis[0].CostSnapshot(), true
	}
	union := geom.EmptyRect()
	for _, w := range windows {
		union = union.Union(w)
	}
	merged := CostSnapshot{Bounds: geom.EmptyRect()}
	first := true
	for _, si := range sis {
		snap := si.CostSnapshot()
		if snap.Stats.Items == 0 && snap.DeltaItems == 0 {
			continue
		}
		if len(windows) > 0 && !snap.Bounds.Intersects(union) {
			continue
		}
		if first {
			merged = snap
			first = false
			continue
		}
		merged.Stats.Items += snap.Stats.Items
		merged.Stats.Nodes += snap.Stats.Nodes
		merged.Stats.Leaves += snap.Stats.Leaves
		merged.Stats.Coverage += snap.Stats.Coverage
		merged.Bounds = merged.Bounds.Union(snap.Bounds)
		merged.DeltaItems += snap.DeltaItems
		merged.DeltaNodes += snap.DeltaNodes
		merged.Tombstones += snap.Tombstones
	}
	return merged, true
}

// scatterSearch is SpatialIndex.search over the indexes in sis: one
// batched descent of each index that some window's rectangle meets the
// bounds of — stores partition the id space, so no id is a hit twice
// for one window. A window outside an index's bounds meets none of its
// entries, so it drops out of that descent at the roots' entries. Bounds
// prune only when there is more than one index, so a one-store relation
// keeps its exact visit counts.
func scatterSearch(sis []*SpatialIndex, windows []geom.Rect, pred func(obj, win geom.Rect) bool, h *hits) int {
	if len(sis) == 1 {
		return sis[0].search(windows, pred, h)
	}
	visited := 0
	for _, si := range sis {
		if si.Len() > 0 && slices.ContainsFunc(windows, si.Bounds().Intersects) {
			visited += si.search(windows, pred, h)
		}
	}
	return visited
}

// scatterItems gathers every live entry across sis in canonical order.
func scatterItems(sis []*SpatialIndex) ([]rtree.Item, int) {
	if len(sis) == 1 {
		return sis[0].items()
	}
	var out []rtree.Item
	visited := 0
	for _, si := range sis {
		items, v := si.items()
		visited += v
		out = append(out, items...)
	}
	sortItemsByData(out)
	return out, visited
}

// scatterJuxtapose joins two index lists: every pair of non-empty
// shards whose bounds intersect is juxtaposed with the merged-tier
// machinery — a pair that contributes nothing is found out at its two
// roots — and the union is sorted canonically by (A, B). An id names
// its store, so no pair can appear twice and the result holds the pairs
// one index per relation would give.
func scatterJuxtapose(as, bs []*SpatialIndex, pred func(a, b geom.Rect) bool) ([]rtree.JoinPair, int) {
	if len(as) == 1 && len(bs) == 1 {
		return juxtaposeMerged(as[0], bs[0], pred)
	}
	var pairs []rtree.JoinPair
	visited := 0
	for _, ai := range as {
		if ai.Len() == 0 {
			continue
		}
		ab := ai.Bounds()
		for _, bj := range bs {
			if bj.Len() == 0 || !ab.Intersects(bj.Bounds()) {
				continue
			}
			ps, v := juxtaposeMerged(ai, bj, pred)
			visited += v
			pairs = append(pairs, ps...)
		}
	}
	sortJoinPairs(pairs)
	return pairs, visited
}
