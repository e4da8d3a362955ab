package relation

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"sync"

	"repro/internal/btree"
	"repro/internal/geom"
	"repro/internal/pack"
	"repro/internal/pager"
	"repro/internal/par"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// This file implements Hilbert-range sharding (DESIGN.md §15): one
// logical relation split across N independent page files, each with its
// own pager, WAL, buffer pool, heap, and per-picture LSM spatial index.
//
// The contract is that a sharded relation is indistinguishable from an
// unsharded one at the API: queries return the same rows in the same
// canonical order at every shard count. Two mechanisms deliver that:
//
//   - Global TupleIDs are insertion-sequence numbers, not heap
//     addresses. Every shard heap record carries its global sequence as
//     an 8-byte little-endian prefix, so ascending TupleID order ==
//     insertion order regardless of which shard a tuple landed on, and
//     the order is stable across reopen (the route table is rebuilt by
//     scanning the prefixes).
//   - Scatter-gather reads: each shard's spatial index answers locally
//     in ascending-sequence order (the per-tier merge from PR 6), and
//     the gather step k-way-merges the per-shard streams by sequence —
//     bit-identical to one big index.
//
// Placement is a pure heuristic: a tuple is routed by the Hilbert key
// of its loc object's MBR center over the picture extent (contiguous
// key ranges per shard, so spatially clustered windows overlap few
// shard MBRs), but correctness never depends on where a tuple lives —
// the in-memory route table is the single source of truth for
// sequence → (shard, local heap address).

// shardSeqBase is the first global sequence id a sharded relation hands
// out. It decodes to TupleID{Page: 1, Slot: 0}, keeping IsValid true
// and sequence 0 free as the route table's "dead" marker.
const shardSeqBase int64 = 1 << 16

// MaxShards bounds the shard count: the route encoding packs the shard
// number into the bits above the 48-bit local tuple address.
const MaxShards = 256

// relShard is one shard of a sharded relation: an independent page
// file holding a slotted heap of (sequence, tuple) records. mu
// serializes heap access — writers exclusively, readers shared — so
// per-shard writers and cross-shard readers never race on page bytes.
type relShard struct {
	mu   sync.RWMutex
	pgr  *pager.Pager
	heap *storage.Heap
}

// KeyRange is the half-open Hilbert key range [Lo, Hi) routed to one
// shard.
type KeyRange struct {
	Lo, Hi uint64
}

// evenKeyRanges divides the Hilbert key space evenly across n shards —
// the layout NewSharded gives every relation.
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
	return (s<<pack.HilbertKeyBits + n - 1) / n
}

// shardForKey returns the shard whose range contains key. Ranges
// partition [0, 1<<HilbertKeyBits) but need not be even or in shard
// order (a catalog may carry the layout of an earlier build's online
// splits), so the lookup is a scan; a key at or beyond every Hi
// (possible only for degenerate extents) routes to the shard owning the
// top of the key space.
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

// encodeRoute packs a route-table entry: shard number above the 48-bit
// local heap address. Valid entries are never zero (a live local id
// has Page >= 1).
func encodeRoute(shard int, lid storage.TupleID) int64 {
	return int64(shard)<<48 | lid.Int64()
}

// decodeRoute unpacks encodeRoute.
func decodeRoute(v int64) (int, storage.TupleID) {
	return int(v >> 48), storage.TupleIDFromInt64(v & (1<<48 - 1))
}

// NewSharded creates an empty relation sharded across one page file
// per pager. The pagers must be dedicated to this relation (each shard
// heap is created at a fixed page of its own file).
func NewSharded(pagers []*pager.Pager, name string, schema Schema) (*Relation, error) {
	if len(pagers) == 0 || len(pagers) > MaxShards {
		return nil, fmt.Errorf("relation %s: shard count %d out of range [1, %d]", name, len(pagers), MaxShards)
	}
	r := &Relation{
		name:         name,
		schema:       schema,
		indexes:      make(map[string]*btree.Tree),
		shardSpatial: make(map[string][]*SpatialIndex),
		rtreeParams:  rtree.DefaultParams(),
	}
	r.nextSeq.Store(shardSeqBase)
	shards := make([]*relShard, 0, len(pagers))
	for i, p := range pagers {
		h, _, err := storage.Create(p)
		if err != nil {
			return nil, fmt.Errorf("relation %s: shard %d: %w", name, i, err)
		}
		shards = append(shards, &relShard{pgr: p, heap: h})
	}
	r.shards = shards
	r.shardRanges = evenKeyRanges(len(shards))
	r.shardLive = make([]int64, len(shards))
	return r, nil
}

// OpenSharded reattaches to a sharded relation whose shard heaps start
// at firsts[i] in pagers[i] — the catalog's reopen path. ranges gives
// each shard's persisted Hilbert key range, which need not be the even
// layout NewSharded produces. The route table is rebuilt by scanning
// every shard heap's sequence prefixes; a malformed sequence is reported
// as corruption. A sequence stored in two shards with byte-identical
// records is what a build with online shard splits (removed, DESIGN.md
// §17) left behind when it crashed after the destination shard
// committed but before the source's deletions did: repair keeps the
// higher-numbered shard's copy (those splits only appended shards) and
// deletes the stale lower one. Differing payloads remain corruption.
// Indexes are not rebuilt here (the catalog re-creates them), matching
// Open.
func OpenSharded(pagers []*pager.Pager, name string, schema Schema, firsts []pager.PageID, ranges []KeyRange) (*Relation, error) {
	if len(pagers) == 0 || len(pagers) > MaxShards {
		return nil, fmt.Errorf("relation %s: shard count %d out of range [1, %d]", name, len(pagers), MaxShards)
	}
	if len(firsts) != len(pagers) {
		return nil, fmt.Errorf("relation %s: %d shard heap pages for %d shards", name, len(firsts), len(pagers))
	}
	if len(ranges) != len(pagers) {
		return nil, fmt.Errorf("relation %s: %d shard key ranges for %d shards", name, len(ranges), len(pagers))
	}
	r := &Relation{
		name:         name,
		schema:       schema,
		indexes:      make(map[string]*btree.Tree),
		shardSpatial: make(map[string][]*SpatialIndex),
		rtreeParams:  rtree.DefaultParams(),
	}
	shards := make([]*relShard, 0, len(pagers))
	for i, p := range pagers {
		h, err := storage.Open(p, firsts[i])
		if err != nil {
			return nil, fmt.Errorf("relation %s: shard %d: %w", name, i, err)
		}
		shards = append(shards, &relShard{pgr: p, heap: h})
	}
	r.shards = shards
	r.shardRanges = append([]KeyRange(nil), ranges...)
	r.shardLive = make([]int64, len(shards))
	maxSeq := shardSeqBase - 1
	live := int64(0)
	for s, sh := range shards {
		var scanErr error
		err := sh.heap.Scan(func(lid storage.TupleID, rec []byte) bool {
			seq, _, err := splitShardRecord(rec)
			if err != nil {
				scanErr = err
				return false
			}
			i := seq - shardSeqBase
			for int64(len(r.routes)) <= i {
				r.routes = append(r.routes, 0)
			}
			if r.routes[i] != 0 {
				prev, plid := decodeRoute(r.routes[i])
				if prev == s {
					// No writer ever duplicated within one shard.
					scanErr = fmt.Errorf("%w: sequence %d stored twice in shard %d", storage.ErrCorrupt, seq, s)
					return false
				}
				stale, err := shards[prev].heap.Get(plid)
				if err != nil {
					scanErr = fmt.Errorf("%w: sequence %d stored in both shard %d and shard %d", storage.ErrCorrupt, seq, prev, s)
					return false
				}
				if string(stale) != string(rec) {
					scanErr = fmt.Errorf("%w: sequence %d stored in both shard %d and shard %d with differing records", storage.ErrCorrupt, seq, prev, s)
					return false
				}
				// Interrupted-split duplicate: drop the source copy (the
				// lower shard — shards scan in ascending order, so prev is
				// the split's source) and adopt this one. The deletion
				// becomes durable at the next commit.
				if err := shards[prev].heap.Delete(plid); err != nil {
					scanErr = fmt.Errorf("shard %d: dropping stale split duplicate of sequence %d: %w", prev, seq, err)
					return false
				}
				r.routes[i] = encodeRoute(s, lid)
				r.shardLive[prev]--
				r.shardLive[s]++
				return true
			}
			r.routes[i] = encodeRoute(s, lid)
			r.shardLive[s]++
			if seq > maxSeq {
				maxSeq = seq
			}
			live++
			return true
		})
		if err == nil {
			err = scanErr
		}
		if err != nil {
			return nil, fmt.Errorf("relation %s: shard %d: %w", name, s, err)
		}
	}
	r.nextSeq.Store(maxSeq + 1)
	r.liveCount.Store(live)
	return r, nil
}

// Sharded reports whether the relation is split across shard files.
func (r *Relation) Sharded() bool { return r.shards != nil }

// ShardCount returns the number of shards (0 when unsharded).
func (r *Relation) ShardCount() int { return len(r.shards) }

// ShardPager returns shard s's pager — the handle the database layer
// commits, checkpoints, and closes.
func (r *Relation) ShardPager(s int) *pager.Pager { return r.shards[s].pgr }

// ShardHeapFirstPages returns each shard heap's first page, the
// handles the catalog persists to reopen the relation (nil when
// unsharded).
func (r *Relation) ShardHeapFirstPages() []pager.PageID {
	if !r.Sharded() {
		return nil
	}
	out := make([]pager.PageID, len(r.shards))
	for s, sh := range r.shards {
		out[s] = sh.heap.FirstPage()
	}
	return out
}

// ShardKeyRanges returns each shard's half-open Hilbert key range —
// the handles the catalog persists so an uneven layout routes the same
// way after reopen (nil when unsharded).
func (r *Relation) ShardKeyRanges() []KeyRange {
	if !r.Sharded() {
		return nil
	}
	return append([]KeyRange(nil), r.shardRanges...)
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
	out := make([]ShardBalanceInfo, len(r.shards))
	total := int64(0)
	maxItems := int64(0)
	r.smu.RLock()
	for s := range out {
		out[s] = ShardBalanceInfo{
			Shard: s,
			Items: r.shardLive[s],
			KeyLo: r.shardRanges[s].Lo,
			KeyHi: r.shardRanges[s].Hi,
		}
		total += r.shardLive[s]
		maxItems = max(maxItems, r.shardLive[s])
	}
	r.smu.RUnlock()
	if total == 0 {
		return out, 0
	}
	mean := float64(total) / float64(len(out))
	return out, float64(maxItems) / mean
}

// ShardHeapPages returns the page ids owned by shard s's heap, for
// per-shard-file ownership accounting during verification.
func (r *Relation) ShardHeapPages(s int) ([]pager.PageID, error) {
	sh := r.shards[s]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.heap.Pages()
}

// CommitShards durably commits every shard's pager, fanning out over
// goroutines so each shard's WAL batches and fsyncs independently. The
// first error (by shard order) is returned. The database layer commits
// shards before its main file so the catalog never names shard pages
// that are not yet durable.
func (r *Relation) CommitShards() error {
	return par.Do(len(r.shards), len(r.shards), func(s int) error {
		if err := r.shards[s].pgr.Commit(); err != nil {
			return fmt.Errorf("relation %s: shard %d: %w", r.name, s, err)
		}
		return nil
	})
}

// splitShardRecord splits a shard heap record into its global sequence
// prefix and the encoded tuple payload.
func splitShardRecord(rec []byte) (int64, []byte, error) {
	if len(rec) < 8 {
		return 0, nil, fmt.Errorf("%w: shard record shorter than its sequence header", storage.ErrCorrupt)
	}
	seq := int64(binary.LittleEndian.Uint64(rec))
	if seq < shardSeqBase {
		return 0, nil, fmt.Errorf("%w: shard record sequence %d below base %d", storage.ErrCorrupt, seq, shardSeqBase)
	}
	return seq, rec[8:], nil
}

// decodeShardRecord decodes a shard heap record, verifying its
// sequence prefix matches the id it was looked up under (want < 0
// skips the check), materializing the columns need selects (nil = all).
func decodeShardRecord(rec []byte, want int64, need []bool) (Tuple, error) {
	seq, payload, err := splitShardRecord(rec)
	if err != nil {
		return nil, err
	}
	if want >= 0 && seq != want {
		return nil, fmt.Errorf("%w: shard record carries sequence %d, route table says %d", storage.ErrCorrupt, seq, want)
	}
	return DecodeTupleCols(payload, need)
}

// routeAtLocked returns the route entry for a global id, 0 when the id
// is unknown or dead. Caller holds smu (any mode).
func (r *Relation) routeAtLocked(gid int64) int64 {
	i := gid - shardSeqBase
	if i < 0 || i >= int64(len(r.routes)) {
		return 0
	}
	return r.routes[i]
}

// routesSnapshot copies the route table for lock-free iteration.
func (r *Relation) routesSnapshot() []int64 {
	r.smu.RLock()
	defer r.smu.RUnlock()
	out := make([]int64, len(r.routes))
	copy(out, r.routes)
	return out
}

// routeNow reads gid's current route, 0 when the id is unknown or was
// deleted. Sequences are never reused and tuples never move, so a route
// only ever goes from live to cleared.
func (r *Relation) routeNow(gid int64) int64 {
	r.smu.RLock()
	v := r.routeAtLocked(gid)
	r.smu.RUnlock()
	return v
}

// routeShard picks the shard a new tuple should land on: the Hilbert
// key of its loc object's MBR center over the attached picture's
// extent, looked up in the per-shard key ranges.
// Tuples whose loc does not resolve (no picture attached yet, foreign
// picture) fall back to a content hash. Placement only affects
// locality — the route table, not the routing rule, resolves reads —
// so attaching a picture after a fallback-routed load is correct, just
// less clustered.
func (r *Relation) routeShard(t Tuple, enc []byte) int {
	n := len(r.shards)
	if n == 1 {
		return 0
	}
	r.smu.RLock()
	for _, sis := range r.shardSpatial {
		pic := sis[0].Picture
		if rect, ok := r.locMBR(t, pic); ok {
			ext := pic.Extent()
			s := shardForKey(r.shardRanges, pack.HilbertKey(ext, rect.Center()))
			r.smu.RUnlock()
			return s
		}
	}
	r.smu.RUnlock()
	h := fnv.New64a()
	h.Write(enc)
	return int(h.Sum64() % uint64(n))
}

// insertSharded is Insert for sharded relations: assign the next global
// sequence, route the record (sequence-prefixed) to its shard heap,
// publish the route, then update the B-tree and per-shard spatial
// indexes. Safe for concurrent callers: the heap write is under the
// shard's lock, route/index updates under smu, and the spatial insert
// under its index's own lock.
func (r *Relation) insertSharded(t Tuple) (storage.TupleID, error) {
	if err := r.schema.Validate(t); err != nil {
		return storage.TupleID{}, err
	}
	enc := EncodeTuple(t)
	s := r.routeShard(t, enc)
	seq := r.nextSeq.Add(1) - 1
	buf := make([]byte, 8+len(enc))
	binary.LittleEndian.PutUint64(buf, uint64(seq))
	copy(buf[8:], enc)
	sh := r.shards[s]
	sh.mu.Lock()
	lid, err := sh.heap.Insert(buf)
	sh.mu.Unlock()
	if err != nil {
		return storage.TupleID{}, fmt.Errorf("relation %s: shard %d: %w", r.name, s, err)
	}
	type target struct {
		si   *SpatialIndex
		rect geom.Rect
	}
	var targets []target
	r.smu.Lock()
	i := seq - shardSeqBase
	for int64(len(r.routes)) <= i {
		r.routes = append(r.routes, 0)
	}
	r.routes[i] = encodeRoute(s, lid)
	r.shardLive[s]++
	for col, idx := range r.indexes {
		ci := r.schema.ColumnIndex(col)
		idx.Insert(IndexKey(t[ci]), seq)
	}
	for _, sis := range r.shardSpatial {
		if rect, ok := r.locMBR(t, sis[0].Picture); ok {
			targets = append(targets, target{sis[s], rect})
		}
	}
	r.smu.Unlock()
	r.liveCount.Add(1)
	for _, tg := range targets {
		tg.si.insert(tg.rect, seq)
	}
	return storage.TupleIDFromInt64(seq), nil
}

// fetchRouted reads the tuple for gid whose route was snapshotted as
// v. A failed heap read is classified by re-reading the route: cleared
// means a delete completed since the snapshot (ok=false) — the heap
// read is serialized against the delete by the shard lock, and the
// delete clears the route first — while a standing route means the heap
// really is damaged.
func (r *Relation) fetchRouted(gid, v int64, need []bool) (Tuple, bool, error) {
	s, lid := decodeRoute(v)
	sh := r.shards[s]
	sh.mu.RLock()
	rec, err := sh.heap.Get(lid)
	sh.mu.RUnlock()
	if err == nil {
		var t Tuple
		if t, err = decodeShardRecord(rec, gid, need); err == nil {
			return t, true, nil
		}
	}
	if r.routeNow(gid) == 0 {
		return nil, false, nil
	}
	return nil, false, fmt.Errorf("relation %s: shard %d: %w", r.name, s, err)
}

// getSharded is Get for sharded relations.
func (r *Relation) getSharded(id storage.TupleID) (Tuple, error) {
	gid := id.Int64()
	v := r.routeNow(gid)
	if v == 0 {
		return nil, fmt.Errorf("%w: %v", storage.ErrNotFound, id)
	}
	t, ok, err := r.fetchRouted(gid, v, nil)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("%w: %v", storage.ErrNotFound, id)
	}
	return t, nil
}

// getBatchSharded is GetBatch for sharded relations: ids are grouped
// by shard through the route table and the per-shard batches run
// concurrently (each pinning its pages once, like the unsharded path).
// out[i] corresponds to ids[i] at any worker count.
func (r *Relation) getBatchSharded(ids []storage.TupleID, need []bool, workers int) ([]Tuple, error) {
	out := make([]Tuple, len(ids))
	if len(ids) == 0 {
		return out, nil
	}
	n := len(r.shards)
	perIDs := make([][]storage.TupleID, n)
	perPos := make([][]int, n)
	r.smu.RLock()
	for i, id := range ids {
		v := r.routeAtLocked(id.Int64())
		if v == 0 {
			r.smu.RUnlock()
			return nil, fmt.Errorf("relation %s: %w: %v", r.name, storage.ErrNotFound, id)
		}
		s, lid := decodeRoute(v)
		perIDs[s] = append(perIDs[s], lid)
		perPos[s] = append(perPos[s], i)
	}
	r.smu.RUnlock()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	err := par.Do(n, workers, func(s int) error {
		if len(perIDs[s]) == 0 {
			return nil
		}
		sh := r.shards[s]
		sh.mu.RLock()
		defer sh.mu.RUnlock()
		return sh.heap.GetBatch(perIDs[s], func(k int, rec []byte) error {
			pos := perPos[s][k]
			seq, payload, err := splitShardRecord(rec)
			if err != nil {
				return fmt.Errorf("relation %s: tuple %v: %w", r.name, ids[pos], err)
			}
			if seq != ids[pos].Int64() {
				return fmt.Errorf("relation %s: tuple %v: %w: shard record carries sequence %d", r.name, ids[pos], storage.ErrCorrupt, seq)
			}
			t, err := DecodeTupleCols(payload, need)
			if err != nil {
				return fmt.Errorf("relation %s: tuple %v: %w", r.name, ids[pos], err)
			}
			out[pos] = t
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// deleteSharded is Delete for sharded relations. Clearing the route is
// the commit point and happens BEFORE the heap record is removed: a
// concurrent reader whose heap read misses can then always attribute
// the miss to a completed or in-flight delete by rechecking the route
// (fetchRouted), and a second delete of the same id loses the route race
// and reports not-found instead of touching a reused slot.
func (r *Relation) deleteSharded(id storage.TupleID) error {
	gid := id.Int64()
	r.smu.Lock()
	v := r.routeAtLocked(gid)
	if v == 0 {
		r.smu.Unlock()
		return fmt.Errorf("%w: %v", storage.ErrNotFound, id)
	}
	r.routes[gid-shardSeqBase] = 0
	s, lid := decodeRoute(v)
	r.shardLive[s]--
	r.smu.Unlock()
	sh := r.shards[s]
	sh.mu.Lock()
	rec, err := sh.heap.Get(lid)
	if err == nil {
		err = sh.heap.Delete(lid)
	}
	sh.mu.Unlock()
	if err != nil {
		return fmt.Errorf("relation %s: shard %d: %w", r.name, s, err)
	}
	t, err := decodeShardRecord(rec, gid, nil)
	if err != nil {
		return err
	}
	type target struct {
		si   *SpatialIndex
		rect geom.Rect
	}
	var targets []target
	r.smu.Lock()
	for col, idx := range r.indexes {
		ci := r.schema.ColumnIndex(col)
		idx.Delete(IndexKey(t[ci]), gid)
	}
	for _, sis := range r.shardSpatial {
		if rect, ok := r.locMBR(t, sis[0].Picture); ok {
			targets = append(targets, target{sis[s], rect})
		}
	}
	r.smu.Unlock()
	r.liveCount.Add(-1)
	for _, tg := range targets {
		tg.si.delete(tg.rect, gid)
	}
	return nil
}

// scanSharded is ScanCols for sharded relations: global ids ascend in
// insertion order, so the iteration walks the route table — the same
// order an unsharded append-only heap scan yields.
func (r *Relation) scanSharded(need []bool, fn func(id storage.TupleID, t Tuple) bool) error {
	routes := r.routesSnapshot()
	for i, v := range routes {
		if v == 0 {
			continue
		}
		gid := shardSeqBase + int64(i)
		t, ok, err := r.fetchRouted(gid, v, need)
		if err != nil {
			return err
		}
		if !ok {
			continue // deleted mid-scan
		}
		if !fn(storage.TupleIDFromInt64(gid), t) {
			return nil
		}
	}
	return nil
}

// spatialList returns the spatial indexes answering for pic: the
// per-shard slice when sharded, a one-element slice otherwise, nil when
// the picture is not attached.
func (r *Relation) spatialList(pictureName string) []*SpatialIndex {
	if !r.Sharded() {
		if si := r.spatial[pictureName]; si != nil {
			return []*SpatialIndex{si}
		}
		return nil
	}
	r.smu.RLock()
	defer r.smu.RUnlock()
	return r.shardSpatial[pictureName]
}

// Spatials returns the spatial indexes backing pic — one per shard for
// a sharded relation, a single element otherwise, nil when the picture
// is not attached. Callers tune thresholds or policies through it.
func (r *Relation) Spatials(pictureName string) []*SpatialIndex {
	return r.spatialList(pictureName)
}

// HasSpatial reports whether pic has a spatial index (any mode).
func (r *Relation) HasSpatial(pictureName string) bool {
	return r.spatialList(pictureName) != nil
}

// SpatialOpts returns the pack options pic's index was built with —
// the catalog's mode-agnostic accessor (every shard records the same
// options).
func (r *Relation) SpatialOpts(pictureName string) (pack.Options, bool) {
	sis := r.spatialList(pictureName)
	if sis == nil {
		return pack.Options{}, false
	}
	return sis[0].PackOptions(), true
}

// SpatialCostSnapshot returns the planner's cost view of pic's index.
// For a sharded relation it merges per-shard snapshots over only the
// shards whose bounds overlap the union of the query windows (none
// given = every shard), so estimated costs track the shards a scatter
// would actually visit: sizes, deltas, and areas sum; depth is the
// maximum — the gather visits shard trees independently, not stacked.
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
		merged.Stats.Overlap += snap.Stats.Overlap
		if snap.Stats.Depth > merged.Stats.Depth {
			merged.Stats.Depth = snap.Stats.Depth
		}
		merged.Bounds = merged.Bounds.Union(snap.Bounds)
		merged.DeltaItems += snap.DeltaItems
		merged.DeltaNodes += snap.DeltaNodes
		merged.Tombstones += snap.Tombstones
		merged.Repacking = merged.Repacking || snap.Repacking
	}
	return merged, true
}

// mergeItemStreams k-way-merges per-shard item streams, each already in
// canonical ascending-TupleID (sequence) order, into one canonical
// stream — the gather step. Shards partition the id space, so the merge
// is a strict interleave.
func mergeItemStreams(streams [][]rtree.Item) []rtree.Item {
	switch len(streams) {
	case 0:
		return nil
	case 1:
		return streams[0]
	}
	total := 0
	for _, s := range streams {
		total += len(s)
	}
	out := make([]rtree.Item, 0, total)
	cur := make([]int, len(streams))
	for len(out) < total {
		best := -1
		var bd int64
		for s, c := range cur {
			if c < len(streams[s]) && (best < 0 || streams[s][c].Data < bd) {
				best, bd = s, streams[s][c].Data
			}
		}
		out = append(out, streams[best][cur[best]])
		cur[best]++
	}
	return out
}

// scatterQuery runs window against every overlapping index in sis and
// gathers the streams in canonical order. Pruning by shard bounds is
// only applied when there is more than one index, so the unsharded
// path keeps its exact legacy visit counts.
func scatterQuery(sis []*SpatialIndex, window geom.Rect) ([]rtree.Item, int) {
	if len(sis) == 1 {
		return sis[0].query(window)
	}
	streams := make([][]rtree.Item, 0, len(sis))
	visited := 0
	for _, si := range sis {
		if si.Len() == 0 || !si.Bounds().Intersects(window) {
			continue
		}
		items, v := si.query(window)
		visited += v
		if len(items) > 0 {
			streams = append(streams, items)
		}
	}
	return mergeItemStreams(streams), visited
}

// scatterQueryBatch is scatterQuery over many windows, scattering each
// shard only the windows its bounds overlap and reusing the per-index
// batched read path.
func scatterQueryBatch(sis []*SpatialIndex, windows []geom.Rect, parallelism int) ([][]rtree.Item, int) {
	if len(sis) == 1 {
		return sis[0].queryBatch(windows, parallelism)
	}
	streams := make([][][]rtree.Item, len(windows))
	visited := 0
	for _, si := range sis {
		if si.Len() == 0 {
			continue
		}
		b := si.Bounds()
		var wi []int
		var sub []geom.Rect
		for i, w := range windows {
			if b.Intersects(w) {
				wi = append(wi, i)
				sub = append(sub, w)
			}
		}
		if len(sub) == 0 {
			continue
		}
		res, v := si.queryBatch(sub, parallelism)
		visited += v
		for j, i := range wi {
			if len(res[j]) > 0 {
				streams[i] = append(streams[i], res[j])
			}
		}
	}
	out := make([][]rtree.Item, len(windows))
	for i := range windows {
		out[i] = mergeItemStreams(streams[i])
	}
	return out, visited
}

// scatterItems gathers every live entry across sis in canonical order.
func scatterItems(sis []*SpatialIndex) ([]rtree.Item, int) {
	if len(sis) == 1 {
		return sis[0].items()
	}
	streams := make([][]rtree.Item, 0, len(sis))
	visited := 0
	for _, si := range sis {
		items, v := si.items()
		visited += v
		if len(items) > 0 {
			streams = append(streams, items)
		}
	}
	return mergeItemStreams(streams), visited
}

// scatterJuxtapose joins two index lists: every pair of non-empty
// shards whose bounds intersect is juxtaposed with the merged-tier
// machinery — a pair that contributes nothing is found out at its two
// roots — and the union is sorted canonically by (A, B). Shards
// partition both id spaces, so no pair can appear twice and the result
// is bit-identical to joining two unsharded indexes.
func scatterJuxtapose(as, bs []*SpatialIndex, pred func(a, b geom.Rect) bool, workers int) ([]rtree.JoinPair, int) {
	if len(as) == 1 && len(bs) == 1 {
		return juxtaposeMerged(as[0], bs[0], pred, workers)
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
			ps, v := juxtaposeMerged(ai, bj, pred, workers)
			visited += v
			pairs = append(pairs, ps...)
		}
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].A.Data != pairs[j].A.Data {
			return pairs[i].A.Data < pairs[j].A.Data
		}
		return pairs[i].B.Data < pairs[j].B.Data
	})
	return pairs, visited
}

// checkSharded is Check for sharded relations: per-shard checks fan
// out over workers goroutines (0 = GOMAXPROCS), then the global structures
// (route table cardinality, B-tree indexes) are verified against the
// shards.
func (r *Relation) checkSharded(workers int) error {
	routes := r.routesSnapshot()
	nextSeq := r.nextSeq.Load()
	n := len(r.shards)
	counts := make([]int, n)
	err := par.Do(n, workers, func(s int) error {
		n, err := r.checkShard(s, routes, nextSeq)
		counts[s] = n
		return err
	})
	if err != nil {
		return err
	}
	live := 0
	for _, v := range routes {
		if v != 0 {
			live++
		}
	}
	total := 0
	for _, n := range counts {
		total += n
	}
	if live != total {
		return fmt.Errorf("relation %s: %w: route table has %d live entries, shard heaps hold %d records", r.name, storage.ErrCorrupt, live, total)
	}
	for col, idx := range r.indexes {
		if err := idx.CheckInvariants(); err != nil {
			return fmt.Errorf("relation %s: index %q: %w", r.name, col, err)
		}
		var resolveErr error
		idx.Ascend(func(_ []byte, v int64) bool {
			i := v - shardSeqBase
			if i < 0 || i >= int64(len(routes)) || routes[i] == 0 {
				resolveErr = fmt.Errorf("relation %s: index %q: entry %v: %w", r.name, col, storage.TupleIDFromInt64(v), storage.ErrNotFound)
				return false
			}
			return true
		})
		if resolveErr != nil {
			return resolveErr
		}
	}
	return nil
}

// checkShard validates one shard end to end — heap structure, every
// record's sequence header, route-table agreement, tuple decodability
// and schema conformance, and the shard's spatial indexes (structure
// plus entry ownership: every entry's id must route back to this
// shard). It returns the shard's live record count.
func (r *Relation) checkShard(s int, routes []int64, nextSeq int64) (int, error) {
	// Snapshot the shard's spatial indexes before taking the heap lock:
	// smu and a shard heap mutex are never nested (DESIGN.md §15).
	r.smu.RLock()
	lists := make(map[string]*SpatialIndex, len(r.shardSpatial))
	for pic, sis := range r.shardSpatial {
		lists[pic] = sis[s]
	}
	r.smu.RUnlock()
	sh := r.shards[s]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	wrap := func(err error) error {
		return fmt.Errorf("relation %s: shard %d: %w", r.name, s, err)
	}
	if err := sh.heap.Check(); err != nil {
		return 0, wrap(err)
	}
	live := 0
	var scanErr error
	err := sh.heap.Scan(func(lid storage.TupleID, rec []byte) bool {
		seq, payload, err := splitShardRecord(rec)
		if err != nil {
			scanErr = err
			return false
		}
		if seq >= nextSeq {
			scanErr = fmt.Errorf("%w: record sequence %d beyond high water %d", storage.ErrCorrupt, seq, nextSeq)
			return false
		}
		if routes[seq-shardSeqBase] != encodeRoute(s, lid) {
			scanErr = fmt.Errorf("%w: record %v sequence %d disagrees with route table", storage.ErrCorrupt, lid, seq)
			return false
		}
		t, err := DecodeTuple(payload)
		if err != nil {
			scanErr = err
			return false
		}
		if err := r.schema.Validate(t); err != nil {
			scanErr = err
			return false
		}
		live++
		return true
	})
	if err == nil {
		err = scanErr
	}
	if err != nil {
		return 0, wrap(err)
	}
	for pic, si := range lists {
		if err := si.checkInvariants(); err != nil {
			return 0, fmt.Errorf("relation %s: shard %d: spatial index %q: %w", r.name, s, pic, err)
		}
		items, _ := si.items()
		for _, it := range items {
			i := it.Data - shardSeqBase
			if i < 0 || i >= int64(len(routes)) || routes[i] == 0 {
				return 0, fmt.Errorf("relation %s: shard %d: spatial index %q: entry %v: %w", r.name, s, pic, storage.TupleIDFromInt64(it.Data), storage.ErrNotFound)
			}
			if owner, _ := decodeRoute(routes[i]); owner != s {
				return 0, fmt.Errorf("relation %s: shard %d: spatial index %q: %w: entry %v routes to shard %d", r.name, s, pic, storage.ErrCorrupt, storage.TupleIDFromInt64(it.Data), owner)
			}
		}
	}
	return live, nil
}

// CheckShards is Check with an explicit per-shard parallelism (the
// pictdbcheck -parallel path). It errors on unsharded relations.
func (r *Relation) CheckShards(workers int) error {
	if !r.Sharded() {
		return fmt.Errorf("relation %s: not sharded", r.name)
	}
	return r.checkSharded(workers)
}
