package relation

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/geom"
	"repro/internal/pack"
	"repro/internal/picture"
	"repro/internal/rtree"
)

// This file implements the write path for spatial indexes: the paper's
// §3.4 pair of mechanisms, dynamic INSERT/DELETE for changes and a
// periodic PACK to reorganize.
//
// The paper's bet is that PACK's near-optimal static trees beat Guttman
// dynamics on search cost — but a per-tuple Guttman insert into the
// packed tree steadily destroys exactly the coverage/overlap properties
// Table 1 celebrates. So writes go to an in-memory write side — a small
// delta R-tree taking inserts directly, with a tombstone set for
// deletes — reads merge packed + frozen + delta in canonical
// ascending-TupleID order, and a background repacker folds the write
// side back into a freshly packed tree when it crosses a threshold.
// Every entry lives in exactly one tree at any instant (all moves
// happen under mu), so merged reads see each item exactly once.
// See DESIGN.md §12 for the lifecycle and its invariants.

// DefaultDeltaThreshold is the write-side size (live delta items plus
// pending tombstones) at which a background repack is triggered.
const DefaultDeltaThreshold = 4096

// deltaParams configures the write-absorbing delta tree. Wide nodes and
// the linear split make inserts cheap; the resulting tree quality does
// not matter much because the delta stays small and is periodically
// repacked away.
var deltaParams = rtree.Params{Max: 32, Min: 8, Split: rtree.SplitLinear}

// spatialSeq hands out lock-ordering ranks for SpatialIndex pairs.
var spatialSeq atomic.Int64

// SpatialIndex is an index over a relation's loc column for one
// associated picture: a packed R-tree (read-optimized, immutable
// between repacks) plus a write side made of a small delta R-tree
// taking inserts and a tombstone set absorbing deletes. Leaf entries
// carry the MBR of the referenced spatial object and the tuple's
// storage id — the paper's "(I, tuple-identifier)".
//
// All reads merge packed + frozen + delta minus tombstones and return
// items in canonical ascending-TupleID order, bit-identical to a
// hypothetical single-tree execution. A background repacker merges the
// write side into the packed tree with PACK, on its own goroutine, and
// swaps the root atomically under the index lock.
type SpatialIndex struct {
	Picture *picture.Picture

	// seq orders lock acquisition when two indexes are locked together
	// (juxtaposition): lower seq first, so no lock cycle can form.
	seq int64

	mu     sync.RWMutex
	packed *rtree.Tree
	// stats holds the packed tree's search metrics (Table 1's item,
	// node and leaf counts, depth and coverage — what the planner prices
	// with) as of the last pack/repack; the packed tree is immutable in
	// between, so they describe it exactly.
	stats rtree.Metrics
	// delta takes inserts directly.
	delta *rtree.Tree
	// frozen is the previous delta tree while a background repack is
	// merging it; nil otherwise. Immutable once set.
	frozen *rtree.Tree
	// tombs holds the storage ids of tuples deleted since the last
	// freeze whose entries still exist in packed or frozen. An id
	// deleted straight out of the active delta never enters tombs.
	tombs map[int64]struct{}
	// ts0 is the tombstone set as it stood at repack freeze time; nil
	// when no repack is in flight. Reads filter packed and frozen by one
	// predicate, tombs ∪ ts0 (an id names one tuple, so no live entry
	// carries an id either set names); the sets stay apart only so the
	// swap retires exactly the ts0 the merge dropped.
	ts0 map[int64]struct{}

	threshold int
	repacks   int

	// repacking guards the single background repacker (and RepackNow)
	// via CAS; wg lets WaitRepack block on it.
	repacking atomic.Bool
	wg        sync.WaitGroup
}

// hilbertPack is the one packing every spatial index is built, reloaded
// and repacked with: Hilbert order at rtree.DefaultParams (DESIGN.md §5).
var hilbertPack = pack.Options{Method: pack.MethodHilbert}

// packTree packs items into a spatial index's tree.
func packTree(items []rtree.Item) *rtree.Tree {
	return pack.Tree(rtree.DefaultParams(), items, hilbertPack)
}

// newSpatialIndex wraps a freshly packed tree.
func newSpatialIndex(pic *picture.Picture, tree *rtree.Tree) *SpatialIndex {
	return &SpatialIndex{
		Picture:   pic,
		seq:       spatialSeq.Add(1),
		packed:    tree,
		stats:     tree.SearchMetrics(),
		delta:     rtree.New(deltaParams),
		tombs:     make(map[int64]struct{}),
		threshold: DefaultDeltaThreshold,
	}
}

// CostSnapshot is a consistent view of everything the query planner
// needs to price a direct spatial search: the packed tree's stats, the
// merged bounds, and the live write-side sizes. Taken under the
// index lock so the fields are mutually consistent.
type CostSnapshot struct {
	// Stats describes the packed tree as of the last pack/repack: its
	// rtree.SearchMetrics, with the three sweeps left zero.
	Stats rtree.Metrics
	// Bounds is the MBR of everything live (packed ∪ frozen ∪ delta).
	Bounds geom.Rect
	// DeltaItems/DeltaNodes size the unpacked side (delta + frozen):
	// extra read amplification every merged search pays.
	DeltaItems int
	DeltaNodes int
	// Tombstones counts deleted ids still present in packed/frozen.
	Tombstones int
}

// CostSnapshot returns a consistent planner view of the index.
func (si *SpatialIndex) CostSnapshot() CostSnapshot {
	si.mu.RLock()
	defer si.mu.RUnlock()
	snap := CostSnapshot{
		Stats:      si.stats,
		Bounds:     si.packed.Bounds(),
		Tombstones: len(si.tombs) + len(si.ts0),
	}
	if si.delta.Len() > 0 {
		snap.DeltaItems += si.delta.Len()
		snap.DeltaNodes += si.delta.NodeCount()
		snap.Bounds = snap.Bounds.Union(si.delta.Bounds())
	}
	if si.frozen != nil && si.frozen.Len() > 0 {
		snap.DeltaItems += si.frozen.Len()
		snap.DeltaNodes += si.frozen.NodeCount()
		snap.Bounds = snap.Bounds.Union(si.frozen.Bounds())
	}
	return snap
}

// PackedTree returns the current packed tree. The returned tree is
// immutable (a repack swaps in a new tree rather than mutating it), so
// callers may compute metrics on it concurrently with writers; it may
// be superseded at any moment.
func (si *SpatialIndex) PackedTree() *rtree.Tree {
	si.mu.RLock()
	defer si.mu.RUnlock()
	return si.packed
}

// Len returns the number of live entries: packed + frozen + delta minus
// tombstones.
func (si *SpatialIndex) Len() int {
	si.mu.RLock()
	defer si.mu.RUnlock()
	n := si.packed.Len() + si.delta.Len() - len(si.tombs) - len(si.ts0)
	if si.frozen != nil {
		n += si.frozen.Len()
	}
	return n
}

// DeltaLen returns the number of items in the write side (the active
// delta, plus the frozen one mid-repack).
func (si *SpatialIndex) DeltaLen() int {
	si.mu.RLock()
	defer si.mu.RUnlock()
	n := si.delta.Len()
	if si.frozen != nil {
		n += si.frozen.Len()
	}
	return n
}

// TombstoneCount returns the number of pending tombstones.
func (si *SpatialIndex) TombstoneCount() int {
	si.mu.RLock()
	defer si.mu.RUnlock()
	return len(si.tombs) + len(si.ts0)
}

// Repacks returns how many repacks (background or synchronous) have
// completed since the index was built.
func (si *SpatialIndex) Repacks() int {
	si.mu.RLock()
	defer si.mu.RUnlock()
	return si.repacks
}

// SetDeltaThreshold sets the delta size (live delta items + pending
// tombstones) that triggers a background repack. Zero or negative
// restores DefaultDeltaThreshold; math.MaxInt turns background repacks
// off, and the write side then grows until RepackNow is called.
func (si *SpatialIndex) SetDeltaThreshold(n int) {
	if n <= 0 {
		n = DefaultDeltaThreshold
	}
	si.mu.Lock()
	si.threshold = n
	si.mu.Unlock()
}

// Bounds returns the MBR of everything live in the index.
func (si *SpatialIndex) Bounds() geom.Rect {
	si.mu.RLock()
	defer si.mu.RUnlock()
	return si.boundsLocked()
}

func (si *SpatialIndex) boundsLocked() geom.Rect {
	b := si.packed.Bounds()
	if si.delta.Len() > 0 {
		b = b.Union(si.delta.Bounds())
	}
	if si.frozen != nil && si.frozen.Len() > 0 {
		b = b.Union(si.frozen.Bounds())
	}
	return b
}

// insert puts one new entry into the delta tree and triggers the
// background repacker when the write side crosses the threshold.
func (si *SpatialIndex) insert(r geom.Rect, id int64) {
	si.mu.Lock()
	si.delta.Insert(r, id)
	due := si.repackDueLocked()
	si.mu.Unlock()
	if due {
		si.triggerRepack()
	}
}

// delete routes one removal: straight out of the active delta when the
// entry lives there (no tombstone needed), a tombstone otherwise.
func (si *SpatialIndex) delete(r geom.Rect, id int64) {
	si.mu.Lock()
	if !si.delta.Delete(r, id) {
		si.tombs[id] = struct{}{}
	}
	due := si.repackDueLocked()
	si.mu.Unlock()
	if due {
		si.triggerRepack()
	}
}

// repackDueLocked reports whether the write side has outgrown the
// threshold. Caller holds mu (any mode).
func (si *SpatialIndex) repackDueLocked() bool {
	// Tombstones already being merged away (ts0) don't count.
	return si.delta.Len()+len(si.tombs) >= si.threshold
}

func (si *SpatialIndex) repackDue() bool {
	si.mu.RLock()
	defer si.mu.RUnlock()
	return si.repackDueLocked()
}

// triggerRepack starts the background repacker unless one is already
// running. The repacker loops while the (re-filled) delta stays over
// the threshold, then re-checks once after releasing the flag so a
// writer racing the handoff cannot strand an over-threshold delta.
func (si *SpatialIndex) triggerRepack() {
	if !si.repacking.CompareAndSwap(false, true) {
		return
	}
	si.wg.Add(1)
	go func() {
		defer si.wg.Done()
		for si.repackDue() {
			si.repackOnce()
		}
		si.repacking.Store(false)
		if si.repackDue() {
			si.triggerRepack()
		}
	}()
}

// WaitRepack blocks until no background repack is running. It loops
// because a finishing repacker may immediately hand off to a successor.
func (si *SpatialIndex) WaitRepack() {
	for si.repacking.Load() {
		si.wg.Wait()
		runtime.Gosched()
	}
}

// RepackNow synchronously merges the write side into the packed tree:
// one repack, run inline (readers keep going, writers are only blocked
// during freeze and swap). Any in-flight background repack is waited
// out first, so on return the write side as it stood at the call is
// fully absorbed. The parameter is ignored; it stays only because
// cmd/pictbench compiles against it, until the benchmark reads the
// engine's own counters (ROADMAP.md item 2), as GetBatch's workers does.
func (si *SpatialIndex) RepackNow(bool) {
	// Take the repacker slot so no background repack interleaves.
	for !si.repacking.CompareAndSwap(false, true) {
		si.wg.Wait()
		runtime.Gosched()
	}
	si.repackOnce()
	si.repacking.Store(false)
	if si.repackDue() {
		si.triggerRepack()
	}
}

// repackOnce is one repack cycle: freeze the write side, merge and
// pack, walk the new tree's search metrics, swap the new root in. All
// but the freeze and the swap run outside the lock: packed and the
// frozen write side are immutable by then, so readers proceed against
// the merged view. Caller owns the repacking flag.
func (si *SpatialIndex) repackOnce() {
	if si.freeze() {
		si.swap(si.packMerged())
	}
}

// freeze makes the active delta and tombstone set immutable (fresh
// ones take writes), reporting false when the write side is empty.
func (si *SpatialIndex) freeze() bool {
	si.mu.Lock()
	defer si.mu.Unlock()
	if si.delta.Len() == 0 && len(si.tombs) == 0 {
		return false
	}
	si.frozen, si.ts0 = si.delta, si.tombs
	si.delta = rtree.New(deltaParams)
	si.tombs = make(map[int64]struct{})
	return true
}

// swap installs the merged tree with its search metrics and retires the
// frozen write side with the tombstones the merge applied. Tombstones
// taken since the freeze stay: they now name entries of the new tree.
func (si *SpatialIndex) swap(tree *rtree.Tree) {
	stats := tree.SearchMetrics()
	si.mu.Lock()
	si.packed, si.stats = tree, stats
	si.frozen, si.ts0 = nil, nil
	si.repacks++
	si.mu.Unlock()
}

// packMerged packs (packed ∖ ts0) ∪ frozen. It reads those fields
// without mu: between freeze and swap only the holder of the repacking
// flag — the caller — writes them.
func (si *SpatialIndex) packMerged() *rtree.Tree {
	items := make([]rtree.Item, 0, si.packed.Len()+si.frozen.Len())
	for _, it := range si.packed.Items() {
		if _, dead := si.ts0[it.Data]; !dead {
			items = append(items, it)
		}
	}
	items = append(items, si.frozen.Items()...)
	return packTree(items)
}

// deadLocked reports whether a packed or frozen entry is tombstoned,
// before the in-flight repack's freeze (ts0) or since. Delta entries
// are never tombstoned: a delete takes them out of the delta. Caller
// holds mu (any mode).
func (si *SpatialIndex) deadLocked(id int64) bool {
	_, dead := si.tombs[id]
	if !dead {
		_, dead = si.ts0[id]
	}
	return dead
}

// sortItemsByData orders items by ascending data pointer. TupleID's
// int64 encoding (store<<48|page<<16|slot) is order-preserving, so this
// is canonical ascending-TupleID order.
func sortItemsByData(items []rtree.Item) {
	slices.SortFunc(items, func(a, b rtree.Item) int { return cmp.Compare(a.Data, b.Data) })
}

// sortJoinPairs orders pairs canonically, ascending by (A.Data, B.Data).
func sortJoinPairs(pairs []rtree.JoinPair) {
	slices.SortFunc(pairs, func(a, b rtree.JoinPair) int {
		if c := cmp.Compare(a.A.Data, b.A.Data); c != 0 {
			return c
		}
		return cmp.Compare(a.B.Data, b.B.Data)
	})
}

// search answers every window, one after another: the id of each live
// entry — packed + frozen + delta minus tombstones — whose MBR
// intersects windows[i] and satisfies pred against it is appended to
// out[i], and the nodes visited are added to the count returned (summed
// over the searched trees). The predicate runs as the leaves are
// reached, so only ids leave the index, in no particular order; callers
// sort what they keep.
func (si *SpatialIndex) search(windows []geom.Rect, pred func(obj, win geom.Rect) bool, out [][]int64) int {
	si.mu.RLock()
	defer si.mu.RUnlock()
	tombs := len(si.tombs)+len(si.ts0) > 0
	frozen := si.frozen != nil && si.frozen.Len() > 0
	visited := 0
	for i, w := range windows {
		visited += si.packed.Search(w, func(it rtree.Item) bool {
			if pred(it.Rect, w) && !(tombs && si.deadLocked(it.Data)) {
				out[i] = append(out[i], it.Data)
			}
			return true
		})
		if frozen {
			visited += si.frozen.Search(w, func(it rtree.Item) bool {
				if pred(it.Rect, w) && !(tombs && si.deadLocked(it.Data)) {
					out[i] = append(out[i], it.Data)
				}
				return true
			})
		}
		if si.delta.Len() > 0 {
			visited += si.delta.Search(w, func(it rtree.Item) bool {
				if pred(it.Rect, w) {
					out[i] = append(out[i], it.Data)
				}
				return true
			})
		}
	}
	return visited
}

// items enumerates every live entry in canonical ascending-TupleID
// order. The visit count charges every node of every searched tree —
// what a Search over the full bounds would visit.
func (si *SpatialIndex) items() ([]rtree.Item, int) {
	si.mu.RLock()
	defer si.mu.RUnlock()
	return si.itemsLocked()
}

func (si *SpatialIndex) itemsLocked() ([]rtree.Item, int) {
	var out []rtree.Item
	visited := si.packed.NodeCount()
	for _, it := range si.packed.Items() {
		if !si.deadLocked(it.Data) {
			out = append(out, it)
		}
	}
	if si.frozen != nil && si.frozen.Len() > 0 {
		visited += si.frozen.NodeCount()
		for _, it := range si.frozen.Items() {
			if !si.deadLocked(it.Data) {
				out = append(out, it)
			}
		}
	}
	if si.delta.Len() > 0 {
		visited += si.delta.NodeCount()
		out = append(out, si.delta.Items()...)
	}
	sortItemsByData(out)
	return out, visited
}

// sideTree is one live constituent tree of an index plus its
// tombstone filter, for merged juxtaposition.
type sideTree struct {
	tree *rtree.Tree
	dead func(id int64) bool
}

// liveTreesLocked returns the non-empty constituent trees. Caller holds
// mu (any mode), and must hold it for as long as the trees are used.
func (si *SpatialIndex) liveTreesLocked() []sideTree {
	never := func(int64) bool { return false }
	dead := never
	if len(si.tombs)+len(si.ts0) > 0 {
		dead = si.deadLocked
	}
	var out []sideTree
	if si.packed.Len() > 0 {
		out = append(out, sideTree{tree: si.packed, dead: dead})
	}
	if si.frozen != nil && si.frozen.Len() > 0 {
		out = append(out, sideTree{tree: si.frozen, dead: dead})
	}
	if si.delta.Len() > 0 {
		out = append(out, sideTree{tree: si.delta, dead: never})
	}
	return out
}

// juxtaposeMerged joins two (possibly identical) indexes: every
// constituent-tree pair is juxtaposed (rtree.JoinPairs), tombstoned
// pairs dropped, and the union sorted canonically by (A.Data, B.Data) —
// bit-identical to joining two hypothetical single trees. Both indexes
// are read-locked in seq order so no lock cycle can form against
// another join running the opposite direction.
func juxtaposeMerged(si, sj *SpatialIndex, pred func(a, b geom.Rect) bool) ([]rtree.JoinPair, int) {
	if si == sj {
		si.mu.RLock()
		defer si.mu.RUnlock()
	} else if si.seq < sj.seq {
		si.mu.RLock()
		defer si.mu.RUnlock()
		sj.mu.RLock()
		defer sj.mu.RUnlock()
	} else {
		sj.mu.RLock()
		defer sj.mu.RUnlock()
		si.mu.RLock()
		defer si.mu.RUnlock()
	}
	aTrees := si.liveTreesLocked()
	bTrees := sj.liveTreesLocked()
	var pairs []rtree.JoinPair
	visited := 0
	for _, ta := range aTrees {
		for _, tb := range bTrees {
			visited += rtree.JoinPairs(ta.tree, tb.tree, pred, func(a, b rtree.Item) bool {
				if !ta.dead(a.Data) && !tb.dead(b.Data) {
					pairs = append(pairs, rtree.JoinPair{A: a, B: b})
				}
				return true
			})
		}
	}
	sortJoinPairs(pairs)
	return pairs, visited
}

// checkInvariants validates every constituent tree plus the write-side
// bookkeeping invariants.
func (si *SpatialIndex) checkInvariants() error {
	si.mu.RLock()
	defer si.mu.RUnlock()
	if err := si.packed.CheckInvariants(); err != nil {
		return fmt.Errorf("packed: %w", err)
	}
	if err := si.delta.CheckInvariants(); err != nil {
		return fmt.Errorf("delta: %w", err)
	}
	if si.frozen != nil {
		if err := si.frozen.CheckInvariants(); err != nil {
			return fmt.Errorf("frozen delta: %w", err)
		}
	}
	if si.ts0 != nil && si.frozen == nil {
		return fmt.Errorf("tombstone snapshot present without frozen delta")
	}
	return nil
}
