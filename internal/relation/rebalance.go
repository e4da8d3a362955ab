package relation

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/pack"
	"repro/internal/pager"
	"repro/internal/picture"
	"repro/internal/storage"
)

// This file implements skew-adaptive shard rebalancing (DESIGN.md §16):
// when inserts cluster and one shard's Hilbert key range soaks up most
// of the traffic, the shard is split — its range is cut at the
// occupancy median, a new sidecar shard is appended, and the upper
// half's tuples migrate over while readers and writers keep running.
//
// Correctness rests on three rules:
//
//   - The route table stays the single source of truth. Each tuple's
//     move is one atomic route swap under smu; a reader that loses the
//     race chases the route (fetchRouted), a deleter that wins it makes
//     the migration skip the tuple.
//   - Add-before-remove, ascending shard order. A migrating entry is
//     inserted into the destination's heap and spatial index before it
//     leaves the source's, and the destination's shard number is always
//     higher (splits append); readers visit shards in ascending order,
//     so every entry is seen at least once, and the gather merge
//     collapses the at-most-one duplicate.
//   - Destination-before-source durability. The new shard's pages and
//     the catalog record naming them commit before the source's
//     deletions do, so a crash at any fsync boundary leaves every tuple
//     durable in at least one shard; reopen repairs the byte-identical
//     duplicates (OpenSharded).

// KeyRange is the half-open Hilbert key range [Lo, Hi) routed to one
// shard.
type KeyRange struct {
	Lo, Hi uint64
}

// ErrShardNotSplittable reports a shard whose occupancy admits no
// interior split key — all resolvable tuples share one Hilbert key, or
// none resolve at all (hash-routed tuples have no spatial key).
var ErrShardNotSplittable = errors.New("relation: shard not splittable")

// evenKeyRanges divides the Hilbert key space evenly across n shards —
// the layout every relation starts with.
func evenKeyRanges(n int) []KeyRange {
	out := make([]KeyRange, n)
	for s := range out {
		out[s] = KeyRange{Lo: shardKeyLo(uint64(s), uint64(n)), Hi: shardKeyLo(uint64(s)+1, uint64(n))}
	}
	return out
}

// shardForKey returns the shard whose range contains key. Ranges
// partition [0, 1<<HilbertKeyBits), so the scan always lands; a key at
// or beyond every Hi (possible only for degenerate extents) routes to
// the shard owning the top of the key space.
func shardForKey(ranges []KeyRange, key uint64) int {
	for s, kr := range ranges {
		if key >= kr.Lo && key < kr.Hi {
			return s
		}
	}
	top := 0
	for s, kr := range ranges {
		if kr.Hi > ranges[top].Hi {
			top = s
		}
	}
	return top
}

// ShardBalanceInfo is one shard's entry in the balance report.
type ShardBalanceInfo struct {
	Shard        int
	Items        int64
	KeyLo, KeyHi uint64
}

// ShardBalance reports each shard's live tuple count and Hilbert key
// range, plus the imbalance factor: the largest shard's count over the
// mean (1 = perfectly balanced, 0 = empty relation).
func (r *Relation) ShardBalance() ([]ShardBalanceInfo, float64) {
	if !r.Sharded() {
		return nil, 0
	}
	r.smu.RLock()
	out := make([]ShardBalanceInfo, len(r.shardLive))
	total := int64(0)
	maxItems := int64(0)
	for s := range out {
		out[s] = ShardBalanceInfo{
			Shard: s,
			Items: r.shardLive[s],
			KeyLo: r.shardRanges[s].Lo,
			KeyHi: r.shardRanges[s].Hi,
		}
		total += r.shardLive[s]
		if r.shardLive[s] > maxItems {
			maxItems = r.shardLive[s]
		}
	}
	r.smu.RUnlock()
	if total == 0 {
		return out, 0
	}
	mean := float64(total) / float64(len(out))
	return out, float64(maxItems) / mean
}

// MostLoadedShard returns the shard the rebalancer should split next:
// the largest shard, provided the relation's imbalance factor is at
// least factor and that shard holds at least minTuples live tuples.
func (r *Relation) MostLoadedShard(factor float64, minTuples int) (int, bool) {
	infos, imbalance := r.ShardBalance()
	if len(infos) == 0 || imbalance < factor {
		return 0, false
	}
	best := 0
	for s := range infos {
		if infos[s].Items > infos[best].Items {
			best = s
		}
	}
	if infos[best].Items < int64(minTuples) {
		return 0, false
	}
	return best, true
}

// SetSplitHook installs a test probe called once halfway through the
// next split's migration loop, outside all locks — the oracle test's
// mid-migration query point. Not safe to set concurrently with splits.
func (r *Relation) SetSplitHook(fn func()) { r.splitHook = fn }

// SplitPending carries the source-heap cleanup a shard split defers:
// the migrated records still sitting in the source shard. They are
// removed by FinishSplit only after the destination shard and the
// catalog record naming it are durable, so no fsync boundary ever
// strands a tuple with zero durable copies.
type SplitPending struct {
	// Shard is the split's source shard.
	Shard int
	lids  []storage.TupleID
}

// Moved returns how many tuples the split migrated.
func (p *SplitPending) Moved() int {
	if p == nil {
		return 0
	}
	return len(p.lids)
}

// SplitShard splits shard src's Hilbert range at its occupancy median
// and migrates the upper half's tuples into a new shard backed by pgr
// (which must be a dedicated, freshly opened pager; the caller owns
// committing and closing it). The new shard's index is returned.
//
// The split is online: concurrent reads and writes observe bit-identical
// results throughout (see the file comment for the protocol). On return
// the route table, spatial indexes, and live counts are fully switched
// over, but the migrated records still exist in the source heap —
// callers must make the destination durable, then call FinishSplit to
// drop them (the database layer's SplitShard sequences this against the
// catalog checkpoint).
func (r *Relation) SplitShard(src int, pgr *pager.Pager) (int, *SplitPending, error) {
	if !r.Sharded() {
		return 0, nil, fmt.Errorf("relation %s: not sharded", r.name)
	}
	shs := r.shardList()
	if src < 0 || src >= len(shs) {
		return 0, nil, fmt.Errorf("relation %s: split shard %d out of range [0, %d)", r.name, src, len(shs))
	}
	if len(shs) >= MaxShards {
		return 0, nil, fmt.Errorf("relation %s: shard count %d at the %d-shard ceiling", r.name, len(shs), MaxShards)
	}

	r.smu.RLock()
	kr := r.shardRanges[src]
	pics := make([]*picture.Picture, 0, len(r.shardSpatial))
	for _, sis := range r.shardSpatial {
		pics = append(pics, sis[0].Picture)
	}
	r.smu.RUnlock()
	if len(pics) == 0 {
		return 0, nil, fmt.Errorf("%w: relation %s has no attached picture to derive Hilbert keys from", ErrShardNotSplittable, r.name)
	}

	// Collect the source shard's (sequence, Hilbert key) occupancy. The
	// snapshot is advisory — concurrent deletes and inserts are resolved
	// per tuple during migration — so racing traffic only shifts the
	// median, never correctness.
	type occupant struct {
		gid int64
		key uint64
	}
	var occ []occupant
	routes := r.routesSnapshot()
	for i, v := range routes {
		if v == 0 {
			continue
		}
		if s, _ := decodeRoute(v); s != src {
			continue
		}
		gid := shardSeqBase + int64(i)
		t, ok, err := r.fetchRouted(gid, v, nil)
		if err != nil {
			return 0, nil, err
		}
		if !ok {
			continue
		}
		for _, pic := range pics {
			if rect, ok := r.locMBR(t, pic); ok {
				occ = append(occ, occupant{gid: gid, key: pack.HilbertKey(pic.Extent(), rect.Center())})
				break
			}
		}
	}

	// Split key: the median of the keys strictly inside (Lo, Hi). Keys
	// at Lo (or below, for stragglers placed before a rebalance) cannot
	// seed a non-empty lower half, so they are not candidates.
	var cands []uint64
	for _, o := range occ {
		if o.key > kr.Lo && o.key < kr.Hi {
			cands = append(cands, o.key)
		}
	}
	if len(cands) == 0 {
		return 0, nil, fmt.Errorf("%w: relation %s shard %d has no interior split key in [%d, %d)", ErrShardNotSplittable, r.name, src, kr.Lo, kr.Hi)
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i] < cands[j] })
	mid := cands[len(cands)/2]
	var movers []occupant
	for _, o := range occ {
		if o.key >= mid {
			movers = append(movers, o)
		}
	}
	if len(movers) == 0 {
		return 0, nil, fmt.Errorf("%w: relation %s shard %d: split key %d moves nothing", ErrShardNotSplittable, r.name, src, mid)
	}
	sort.Slice(movers, func(i, j int) bool { return movers[i].gid < movers[j].gid })

	heap, _, err := storage.Create(pgr)
	if err != nil {
		return 0, nil, fmt.Errorf("relation %s: creating split shard heap: %w", r.name, err)
	}
	dstShard := &relShard{pgr: pgr, heap: heap}

	// Publish the new shard: grown shard list, narrowed source range,
	// empty per-picture spatial sidecars, zero live count. From here new
	// inserts with keys in [mid, Hi) route straight to the new shard.
	r.smu.Lock()
	grown := make([]*relShard, len(shs), len(shs)+1)
	copy(grown, shs)
	grown = append(grown, dstShard)
	dst := len(grown) - 1
	r.shards.Store(&grown)
	r.shardRanges[src] = KeyRange{Lo: kr.Lo, Hi: mid}
	r.shardRanges = append(r.shardRanges, KeyRange{Lo: mid, Hi: kr.Hi})
	r.shardLive = append(r.shardLive, 0)
	for pic, sis := range r.shardSpatial {
		gsis := make([]*SpatialIndex, len(sis), len(sis)+1)
		copy(gsis, sis)
		r.shardSpatial[pic] = append(gsis, sis[src].emptyClone())
	}
	r.smu.Unlock()

	hook := r.splitHook
	hookAt := (len(movers) + 1) / 2
	pending := &SplitPending{Shard: src}
	srcShard := shs[src]
	for moved, m := range movers {
		if hook != nil && moved == hookAt {
			hook()
		}
		v := r.routeNow(m.gid)
		if v == 0 {
			continue // deleted since the snapshot
		}
		s2, lid := decodeRoute(v)
		if s2 != src {
			continue // already moved (cannot happen today; splits are serialized)
		}
		srcShard.mu.RLock()
		rec, err := srcShard.heap.Get(lid)
		srcShard.mu.RUnlock()
		if err != nil {
			if r.routeNow(m.gid) != v {
				continue // lost a race with a delete
			}
			return 0, nil, fmt.Errorf("relation %s: shard %d: migrating %v: %w", r.name, src, storage.TupleIDFromInt64(m.gid), err)
		}
		t, err := decodeShardRecord(rec, m.gid, nil)
		if err != nil {
			if r.routeNow(m.gid) != v {
				continue
			}
			return 0, nil, err
		}
		dstShard.mu.Lock()
		dlid, err := dstShard.heap.Insert(rec)
		dstShard.mu.Unlock()
		if err != nil {
			return 0, nil, fmt.Errorf("relation %s: shard %d: migrating %v: %w", r.name, dst, storage.TupleIDFromInt64(m.gid), err)
		}
		// The swap: route, live counts, and the spatial move commit
		// together under smu, so a deleter (which reads the route under
		// smu before touching any index) always targets exactly one
		// incarnation. The destination insert precedes the source delete
		// so concurrent readers, which visit shards in ascending order,
		// never miss the entry.
		r.smu.Lock()
		if r.routeAtLocked(m.gid) != v {
			r.smu.Unlock()
			dstShard.mu.Lock()
			_ = dstShard.heap.Delete(dlid)
			dstShard.mu.Unlock()
			continue // deleted between the read and the swap
		}
		r.routes[m.gid-shardSeqBase] = encodeRoute(dst, dlid)
		r.shardLive[src]--
		r.shardLive[dst]++
		r.routeEpoch.Add(1)
		for _, sis := range r.shardSpatial {
			if rect, ok := r.locMBR(t, sis[0].Picture); ok {
				sis[dst].insert(rect, m.gid)
				sis[src].delete(rect, m.gid)
			}
		}
		r.smu.Unlock()
		pending.lids = append(pending.lids, lid)
	}
	return dst, pending, nil
}

// FinishSplit removes the migrated records from the split's source
// heap. The database layer calls it only after the destination shard
// and the catalog record naming it are durable; the deletions become
// durable at the source's next commit. A crash before that commit
// leaves byte-identical duplicates on disk, which OpenSharded repairs.
func (r *Relation) FinishSplit(p *SplitPending) error {
	if p == nil || len(p.lids) == 0 {
		return nil
	}
	sh := r.shardList()[p.Shard]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, lid := range p.lids {
		if err := sh.heap.Delete(lid); err != nil {
			return fmt.Errorf("relation %s: shard %d: completing split: %w", r.name, p.Shard, err)
		}
	}
	return nil
}
