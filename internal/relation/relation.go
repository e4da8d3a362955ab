package relation

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/btree"
	"repro/internal/geom"
	"repro/internal/pack"
	"repro/internal/pager"
	"repro/internal/picture"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// Relation is one table of the pictorial database: a tuple heap,
// secondary B-tree indexes on alphanumeric columns, and R-tree spatial
// indexes on the loc column, one per associated picture.
type Relation struct {
	name    string
	schema  Schema
	heap    *storage.Heap
	indexes map[string]*btree.Tree
	spatial map[string]*SpatialIndex
	// rtreeParams configures spatial indexes built for this relation.
	rtreeParams rtree.Params

	// Sharded mode (DESIGN.md §15). When shards is non-nil the relation
	// is split across N page files by Hilbert key range and heap/spatial
	// above stay nil: every access dispatches to the sharded path. The
	// shard list and shardRanges are fixed by NewSharded/OpenSharded and
	// never change afterwards. Global TupleIDs are insertion sequence
	// numbers (not heap addresses); routes maps sequence - shardSeqBase
	// to a packed (shard, local heap address) entry, 0 = dead. smu guards
	// routes, indexes, shardSpatial, and shardLive against concurrent
	// per-shard writers.
	shards       []*relShard
	smu          sync.RWMutex
	routes       []int64
	nextSeq      atomic.Int64
	liveCount    atomic.Int64
	shardSpatial map[string][]*SpatialIndex
	// shardRanges holds each shard's half-open Hilbert key range
	// [Lo, Hi); routeShard places new tuples by range lookup.
	shardRanges []KeyRange
	// shardLive counts live tuples per shard — the balance report's
	// input, maintained by insert/delete.
	shardLive []int64
}

// New creates an empty relation backed by a fresh heap in p.
func New(p *pager.Pager, name string, schema Schema) (*Relation, error) {
	h, _, err := storage.Create(p)
	if err != nil {
		return nil, fmt.Errorf("relation %s: %w", name, err)
	}
	return &Relation{
		name:        name,
		schema:      schema,
		heap:        h,
		indexes:     make(map[string]*btree.Tree),
		spatial:     make(map[string]*SpatialIndex),
		rtreeParams: rtree.DefaultParams(),
	}, nil
}

// Open reattaches to a relation whose tuple heap starts at first —
// the catalog's reopen path. Indexes are not rebuilt here; callers
// re-create them (CreateIndex, AttachPicture) from the catalog's
// records.
func Open(p *pager.Pager, name string, schema Schema, first pager.PageID) (*Relation, error) {
	h, err := storage.Open(p, first)
	if err != nil {
		return nil, fmt.Errorf("relation %s: %w", name, err)
	}
	return &Relation{
		name:        name,
		schema:      schema,
		heap:        h,
		indexes:     make(map[string]*btree.Tree),
		spatial:     make(map[string]*SpatialIndex),
		rtreeParams: rtree.DefaultParams(),
	}, nil
}

// Name returns the relation name.
func (r *Relation) Name() string { return r.name }

// HeapFirstPage returns the first page of the tuple heap, the handle
// the catalog persists to reopen the relation. Sharded relations have
// no heap in the main file (see ShardHeapFirstPages) and report
// InvalidPage.
func (r *Relation) HeapFirstPage() pager.PageID {
	if r.Sharded() {
		return pager.InvalidPage
	}
	return r.heap.FirstPage()
}

// IndexedColumns returns the names of columns with B-tree indexes, in
// unspecified order.
func (r *Relation) IndexedColumns() []string {
	out := make([]string, 0, len(r.indexes))
	for col := range r.indexes {
		out = append(out, col)
	}
	return out
}

// Schema returns the relation schema.
func (r *Relation) Schema() Schema { return r.schema }

// Len returns the number of stored tuples.
func (r *Relation) Len() int {
	if r.Sharded() {
		return int(r.liveCount.Load())
	}
	return r.heap.Len()
}

// SetRTreeParams overrides the parameters used for spatial indexes
// attached after the call.
func (r *Relation) SetRTreeParams(p rtree.Params) { r.rtreeParams = p }

// WaitRepacks blocks until no spatial index has a background repack in
// flight.
func (r *Relation) WaitRepacks() {
	for _, si := range r.spatial {
		si.WaitRepack()
	}
	r.smu.RLock()
	all := make([]*SpatialIndex, 0, len(r.shardSpatial)*len(r.shards))
	for _, sis := range r.shardSpatial {
		all = append(all, sis...)
	}
	r.smu.RUnlock()
	for _, si := range all {
		si.WaitRepack()
	}
}

// Insert validates and stores t, updating every index. It returns the
// tuple's storage id.
func (r *Relation) Insert(t Tuple) (storage.TupleID, error) {
	if r.Sharded() {
		return r.insertSharded(t)
	}
	if err := r.schema.Validate(t); err != nil {
		return storage.TupleID{}, err
	}
	id, err := r.heap.Insert(EncodeTuple(t))
	if err != nil {
		return storage.TupleID{}, err
	}
	for col, idx := range r.indexes {
		ci := r.schema.ColumnIndex(col)
		idx.Insert(IndexKey(t[ci]), id.Int64())
	}
	for _, si := range r.spatial {
		if rect, ok := r.locMBR(t, si.Picture); ok {
			si.insert(rect, id.Int64())
		}
	}
	return id, nil
}

// locMBR resolves t's loc column against pic, returning the object's
// MBR when the tuple is associated with that picture.
func (r *Relation) locMBR(t Tuple, pic *picture.Picture) (geom.Rect, bool) {
	li := r.schema.LocColumn()
	if li < 0 {
		return geom.Rect{}, false
	}
	ref := t[li].Loc
	if ref.Picture != pic.Name() {
		return geom.Rect{}, false
	}
	obj, ok := pic.Get(ref.Object)
	if !ok {
		return geom.Rect{}, false
	}
	return obj.MBR(), true
}

// Get returns the tuple stored under id.
func (r *Relation) Get(id storage.TupleID) (Tuple, error) {
	if r.Sharded() {
		return r.getSharded(id)
	}
	rec, err := r.heap.Get(id)
	if err != nil {
		return nil, err
	}
	return DecodeTuple(rec)
}

// GetBatch materializes the tuples stored under ids, preserving input
// order: out[i] is the tuple for ids[i]. The heap pins each referenced
// page once (sorted page order, zero-copy view when mmap is active) and
// tuples are decoded in place; need selects which columns to
// materialize, as in DecodeTupleCols (nil = all). With workers > 1 (0
// means GOMAXPROCS) the batch is split into contiguous chunks decoded
// concurrently; output is identical at any worker count.
func (r *Relation) GetBatch(ids []storage.TupleID, need []bool, workers int) ([]Tuple, error) {
	if r.Sharded() {
		return r.getBatchSharded(ids, need, workers)
	}
	out := make([]Tuple, len(ids))
	if len(ids) == 0 {
		return out, nil
	}
	decode := func(lo, hi int) error {
		return r.heap.GetBatch(ids[lo:hi], func(i int, rec []byte) error {
			t, err := DecodeTupleCols(rec, need)
			if err != nil {
				return fmt.Errorf("relation %s: tuple %v: %w", r.name, ids[lo+i], err)
			}
			out[lo+i] = t
			return nil
		})
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Chunks below ~32 tuples cost more in goroutine churn and repeat
	// page pins than they save.
	const minChunk = 32
	if max := (len(ids) + minChunk - 1) / minChunk; workers > max {
		workers = max
	}
	if workers <= 1 {
		if err := decode(0, len(ids)); err != nil {
			return nil, err
		}
		return out, nil
	}
	chunk := (len(ids) + workers - 1) / workers
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > len(ids) {
			hi = len(ids)
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			errs[w] = decode(lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Delete removes the tuple stored under id from the heap and every
// index.
func (r *Relation) Delete(id storage.TupleID) error {
	if r.Sharded() {
		return r.deleteSharded(id)
	}
	t, err := r.Get(id)
	if err != nil {
		return err
	}
	if err := r.heap.Delete(id); err != nil {
		return err
	}
	for col, idx := range r.indexes {
		ci := r.schema.ColumnIndex(col)
		idx.Delete(IndexKey(t[ci]), id.Int64())
	}
	for _, si := range r.spatial {
		if rect, ok := r.locMBR(t, si.Picture); ok {
			si.delete(rect, id.Int64())
		}
	}
	return nil
}

// Update replaces the tuple stored under id with t, maintaining every
// index — the paper's §2.3: "an insertion or modification of a tuple
// should include spatial information for updating each of the spatial
// index associated with the updated relation". Records are immutable
// in the slotted pages, so the update is a delete plus insert; the new
// storage id is returned.
func (r *Relation) Update(id storage.TupleID, t Tuple) (storage.TupleID, error) {
	if err := r.schema.Validate(t); err != nil {
		return storage.TupleID{}, err
	}
	if err := r.Delete(id); err != nil {
		return storage.TupleID{}, err
	}
	return r.Insert(t)
}

// Scan calls fn on every tuple in storage order; returning false stops
// the scan.
func (r *Relation) Scan(fn func(id storage.TupleID, t Tuple) bool) error {
	return r.ScanCols(nil, fn)
}

// ScanCols is Scan with column-lazy decode: only the columns whose need
// flag is set are materialized, as in DecodeTupleCols (nil = all). It
// is the access path of a scan that tests one or two columns of every
// tuple and keeps few.
func (r *Relation) ScanCols(need []bool, fn func(id storage.TupleID, t Tuple) bool) error {
	if r.Sharded() {
		return r.scanSharded(need, fn)
	}
	var decodeErr error
	err := r.heap.Scan(func(id storage.TupleID, rec []byte) bool {
		t, err := DecodeTupleCols(rec, need)
		if err != nil {
			decodeErr = fmt.Errorf("relation %s: tuple %v: %w", r.name, id, err)
			return false
		}
		return fn(id, t)
	})
	if err != nil {
		return err
	}
	return decodeErr
}

// CreateIndex builds a B-tree index over the named alphanumeric
// column, indexing existing tuples ("the usual way" of §2.1): the
// column's keys are read off the heap in one scan, sorted, and loaded
// bottom-up. Inserts and deletes maintain it afterwards.
func (r *Relation) CreateIndex(column string) error {
	_, err := r.BuildIndexes([]string{column}, nil, nil)
	return err
}

// rlockShardedW/runlockShardedW are the exclusive counterparts of
// rlockSharded, for index-map writes in sharded mode.
func (r *Relation) rlockShardedW() {
	if r.Sharded() {
		r.smu.Lock()
	}
}

func (r *Relation) runlockShardedW() {
	if r.Sharded() {
		r.smu.Unlock()
	}
}

// Index returns the B-tree index on the named column, or nil.
func (r *Relation) Index(column string) *btree.Tree { return r.indexes[column] }

// LookupEqual returns the storage ids of tuples whose column equals v,
// using the index when one exists and a scan otherwise.
func (r *Relation) LookupEqual(column string, v Value) ([]storage.TupleID, error) {
	ci := r.schema.ColumnIndex(column)
	if ci < 0 {
		return nil, fmt.Errorf("relation %s: no column %q", r.name, column)
	}
	if idx := r.indexes[column]; idx != nil {
		r.rlockSharded()
		packed := idx.Get(IndexKey(v))
		r.runlockSharded()
		var out []storage.TupleID
		for _, p := range packed {
			out = append(out, storage.TupleIDFromInt64(p))
		}
		return out, nil
	}
	var out []storage.TupleID
	err := r.Scan(func(id storage.TupleID, t Tuple) bool {
		if t[ci].Eq(v) {
			out = append(out, id)
		}
		return true
	})
	return out, err
}

// Bound is one end of a range lookup.
type Bound struct {
	Value Value
	// Inclusive reports whether the bound itself qualifies.
	Inclusive bool
}

// LookupRange returns the storage ids of tuples whose column value v
// satisfies the given bounds (nil = unbounded) using the B-tree index.
// It reports ok=false when the column has no index, leaving the caller
// to scan.
func (r *Relation) LookupRange(column string, lo, hi *Bound) ([]storage.TupleID, bool) {
	idx := r.indexes[column]
	if idx == nil {
		return nil, false
	}
	var loKey []byte
	if lo != nil {
		loKey = IndexKey(lo.Value)
		if !lo.Inclusive {
			loKey = IndexKeySuccessor(loKey)
		}
	}
	var out []storage.TupleID
	collect := func(k []byte, v btree.Value) bool {
		out = append(out, storage.TupleIDFromInt64(v))
		return true
	}
	r.rlockSharded()
	defer r.runlockSharded()
	if hi == nil {
		idx.AscendFrom(loKey, collect)
		return out, true
	}
	hiKey := IndexKey(hi.Value)
	if hi.Inclusive {
		hiKey = IndexKeySuccessor(hiKey)
	}
	idx.AscendRange(loKey, hiKey, collect)
	return out, true
}

// rlockSharded/runlockSharded take the shard-state lock in sharded
// mode only: B-tree index reads must not race the route/index updates
// of concurrent per-shard writers. Unsharded relations keep their
// lock-free read path.
func (r *Relation) rlockSharded() {
	if r.Sharded() {
		r.smu.RLock()
	}
}

func (r *Relation) runlockSharded() {
	if r.Sharded() {
		r.smu.RUnlock()
	}
}

// AttachPicture associates the relation with pic and builds a packed
// R-tree over the loc column using the given packing options (one tree
// per shard when sharded). This is the paper's initial PACK of a static
// database; subsequent Insert and Delete calls maintain the index
// dynamically (§3.4).
func (r *Relation) AttachPicture(pic *picture.Picture, opts pack.Options) error {
	_, err := r.BuildIndexes(nil, []PictureSpec{{Picture: pic, Opts: opts}}, nil)
	return err
}

// Spatial returns the spatial index for the named picture, or nil.
// Sharded relations have one index per shard, not one — use Spatials,
// HasSpatial, or SpatialCostSnapshot there; Spatial returns nil.
func (r *Relation) Spatial(pictureName string) *SpatialIndex {
	return r.spatial[pictureName]
}

// Pictures returns the names of all attached pictures.
func (r *Relation) Pictures() []string {
	if r.Sharded() {
		r.smu.RLock()
		defer r.smu.RUnlock()
		out := make([]string, 0, len(r.shardSpatial))
		for name := range r.shardSpatial {
			out = append(out, name)
		}
		return out
	}
	out := make([]string, 0, len(r.spatial))
	for name := range r.spatial {
		out = append(out, name)
	}
	return out
}

// SearchArea performs the paper's direct spatial search: it returns
// the storage ids of tuples whose loc object MBR satisfies pred
// against the window, using the R-tree for pruning. pred receives
// (objectMBR, window); use geom.CoveredBy for the paper's "loc
// covered-by W", geom.Overlapping for intersection, etc. The returned
// visit count is the number of R-tree nodes touched (summed across the
// packed and delta trees). Ids are returned in canonical ascending
// TupleID order, merged across packed + delta minus tombstones — the
// answer a single freshly packed tree would give. On a sharded
// relation the query scatters to only the shards whose bounds overlap
// the window and the streams gather-merge in the same canonical order.
func (r *Relation) SearchArea(pictureName string, window geom.Rect, pred func(obj, win geom.Rect) bool) ([]storage.TupleID, int, error) {
	sis := r.spatialList(pictureName)
	if sis == nil {
		return nil, 0, fmt.Errorf("relation %s: no spatial index for picture %q", r.name, pictureName)
	}
	items, visited := scatterQuery(sis, window)
	var out []storage.TupleID
	for _, it := range items {
		if pred(it.Rect, window) {
			out = append(out, storage.TupleIDFromInt64(it.Data))
		}
	}
	return out, visited, nil
}

// SpatialItems enumerates every live entry of the named picture's
// spatial index — (object MBR, storage id) pairs in canonical ascending
// TupleID order — along with a node-visit count charging every node of
// the merged trees. It is the executor's access path for predicates the
// R-tree cannot prune (the paper's "disjoined").
func (r *Relation) SpatialItems(pictureName string) ([]rtree.Item, int, error) {
	sis := r.spatialList(pictureName)
	if sis == nil {
		return nil, 0, fmt.Errorf("relation %s: no spatial index for picture %q", r.name, pictureName)
	}
	items, visited := scatterItems(sis)
	return items, visited, nil
}

// SearchAreaBatch answers many windows against one spatial index with
// up to parallelism goroutines (0 means GOMAXPROCS), using the
// R-tree's batched read path. results[i] holds the qualifying storage
// ids for windows[i] in canonical ascending-TupleID order — identical
// to calling SearchArea per window — and the visit count is summed
// across the batch and the merged trees. pred is called concurrently
// and must be a pure function of its arguments.
func (r *Relation) SearchAreaBatch(pictureName string, windows []geom.Rect, pred func(obj, win geom.Rect) bool, parallelism int) ([][]storage.TupleID, int, error) {
	sis := r.spatialList(pictureName)
	if sis == nil {
		return nil, 0, fmt.Errorf("relation %s: no spatial index for picture %q", r.name, pictureName)
	}
	batches, visited := scatterQueryBatch(sis, windows, parallelism)
	out := make([][]storage.TupleID, len(batches))
	for i, items := range batches {
		var ids []storage.TupleID // nil when empty, like SearchArea
		for _, it := range items {
			if pred(it.Rect, windows[i]) {
				ids = append(ids, storage.TupleIDFromInt64(it.Data))
			}
		}
		out[i] = ids
	}
	return out, visited, nil
}

// SpatialPair is one juxtaposition result: the storage ids of the
// joined tuples, A from the left relation and B from the right.
type SpatialPair struct {
	A, B storage.TupleID
}

// JuxtaposeSpatial performs the paper's geographic join (§4) between
// this relation's spatial index on picA and s's index on picB: a
// simultaneous traversal of the two merged indexes (each constituent
// packed/delta tree pair juxtaposed, tombstoned entries dropped)
// reporting every tuple pair whose object MBRs satisfy pred, fanned
// out over up to workers goroutines (0 means GOMAXPROCS). Pairs are
// returned in canonical ascending (A, B) TupleID order and the
// node-pair visit count is identical at any worker count, so executors
// layered on top stay deterministic. pred must imply rectangle
// intersection (the pruning rule); it is called concurrently and must
// be pure.
func (r *Relation) JuxtaposeSpatial(picA string, s *Relation, picB string, pred func(a, b geom.Rect) bool, workers int) ([]SpatialPair, int, error) {
	as := r.spatialList(picA)
	if as == nil {
		return nil, 0, fmt.Errorf("relation %s: no spatial index for picture %q", r.name, picA)
	}
	bs := s.spatialList(picB)
	if bs == nil {
		return nil, 0, fmt.Errorf("relation %s: no spatial index for picture %q", s.name, picB)
	}
	pairs, visited := scatterJuxtapose(as, bs, pred, workers)
	out := make([]SpatialPair, len(pairs))
	for i, p := range pairs {
		out[i] = SpatialPair{
			A: storage.TupleIDFromInt64(p.A.Data),
			B: storage.TupleIDFromInt64(p.B.Data),
		}
	}
	return out, visited, nil
}

// HeapPages returns the page ids of the relation's tuple heap, for
// page-ownership accounting during verification. Sharded relations own
// no pages of the main file (see ShardHeapPages) and return nil.
func (r *Relation) HeapPages() ([]pager.PageID, error) {
	if r.Sharded() {
		return nil, nil
	}
	return r.heap.Pages()
}

// Check validates the relation end to end: the heap's slotted-page
// structure (every page checksum-verified through the pager), every
// tuple's decodability and schema conformance, the structural
// invariants of each B-tree and spatial index, and that every index
// entry resolves to a live tuple. It returns the first problem found.
func (r *Relation) Check() error {
	if r.Sharded() {
		return r.checkSharded(0)
	}
	if err := r.heap.Check(); err != nil {
		return fmt.Errorf("relation %s: %w", r.name, err)
	}
	var decodeErr error
	err := r.heap.Scan(func(id storage.TupleID, rec []byte) bool {
		t, err := DecodeTuple(rec)
		if err != nil {
			decodeErr = fmt.Errorf("relation %s: tuple %v: %w", r.name, id, err)
			return false
		}
		if err := r.schema.Validate(t); err != nil {
			decodeErr = fmt.Errorf("relation %s: tuple %v: %w", r.name, id, err)
			return false
		}
		return true
	})
	if err != nil {
		return fmt.Errorf("relation %s: %w", r.name, err)
	}
	if decodeErr != nil {
		return decodeErr
	}
	for col, idx := range r.indexes {
		if err := idx.CheckInvariants(); err != nil {
			return fmt.Errorf("relation %s: index %q: %w", r.name, col, err)
		}
		var resolveErr error
		idx.Ascend(func(_ []byte, v int64) bool {
			if _, err := r.heap.Get(storage.TupleIDFromInt64(v)); err != nil {
				resolveErr = fmt.Errorf("relation %s: index %q: entry %v: %w", r.name, col, storage.TupleIDFromInt64(v), err)
				return false
			}
			return true
		})
		if resolveErr != nil {
			return resolveErr
		}
	}
	for pic, si := range r.spatial {
		if err := si.checkInvariants(); err != nil {
			return fmt.Errorf("relation %s: spatial index %q: %w", r.name, pic, err)
		}
	}
	return nil
}

// RepackPicture rebuilds the spatial index for the named picture from
// the current tuples — the paper's §3.4 periodic reorganization of a
// drifted index. The index objects are rebuilt in place (SpatialIndex
// pointers stay valid): each new tree is packed from the heap scan with
// opts, and the delta, tombstones, and pending counters are cleared.
func (r *Relation) RepackPicture(pictureName string, opts pack.Options) error {
	sis := r.spatialList(pictureName)
	if sis == nil {
		return fmt.Errorf("relation %s: no spatial index for picture %q", r.name, pictureName)
	}
	b := &indexBuild{r: r, pics: []PictureSpec{{Picture: sis[0].Picture, Opts: opts}}}
	if err := b.scan(); err != nil {
		return err
	}
	for s, si := range sis {
		si.rebuild(b.items(0, s), opts)
	}
	return nil
}
