package relation

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/arena"
	"repro/internal/btree"
	"repro/internal/geom"
	"repro/internal/pack"
	"repro/internal/pager"
	"repro/internal/picture"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// Pictures resolves the picture names a loc column holds: the catalog a
// relation was created in.
type Pictures interface {
	Picture(name string) (*picture.Picture, bool)
}

// ErrDanglingLoc is Insert's refusal of a non-zero loc whose object it
// can take neither from the value nor from its picture's staged objects
// (locObject): a stored tuple carries the object its loc names.
var ErrDanglingLoc = errors.New("relation: loc names no picture object")

// Relation is one table of the pictorial database: a tuple heap in the
// database's one page file, secondary B-tree indexes on alphanumeric
// columns, and an R-tree spatial index on the loc column per associated
// picture (§2.1, §3). A tuple's id is its heap address (storage.TupleID).
//
// Two kinds of lock, never nested (DESIGN.md §14, §15): smu guards the
// index and spatial directories and the B-trees; the heap's own latch
// guards its pages and its live count.
type Relation struct {
	name   string
	schema Schema
	// pics resolves the pictures the loc column names.
	pics Pictures
	pgr  *pager.Pager
	heap *storage.Heap

	smu     sync.RWMutex
	indexes map[string]*btree.Tree
	spatial map[string]*SpatialIndex

	// gen counts the changes to what the relation is indexed by
	// (BuildIndexes: CreateIndex, AttachPicture). A statement bound at
	// one value is still good while the value stands.
	gen atomic.Uint64

	// readHook, when set, is told how many records each FetchWhere and
	// ScanCols read (SetReadHook).
	readHook func(records int)
}

// SetReadHook makes every later FetchWhere and ScanCols of r report to
// fn how many records it read, so a test can count the reads a
// statement makes; nil removes it. Set it before r is shared.
func (r *Relation) SetReadHook(fn func(records int)) { r.readHook = fn }

func newRelation(p *pager.Pager, name string, schema Schema, pics Pictures, heap *storage.Heap) *Relation {
	return &Relation{
		name:    name,
		schema:  schema,
		pics:    pics,
		pgr:     p,
		heap:    heap,
		indexes: make(map[string]*btree.Tree),
		spatial: make(map[string]*SpatialIndex),
	}
}

// New creates an empty relation in p, resolving loc columns through
// pics. It touches no page: the heap takes its first page with its first
// tuple.
func New(p *pager.Pager, name string, schema Schema, pics Pictures) *Relation {
	h, _, _ := storage.Create(p) // Create touches no page and cannot fail
	return newRelation(p, name, schema, pics, h)
}

// Def is a relation as its catalog records it: where its tuples are and
// what it is indexed by.
type Def struct {
	Name   string
	Schema Schema
	// Pager is the page file the heap lives in, and Heaps names the first
	// page of each of the heap's chains (InvalidPage: no page yet). A
	// relation this engine creates has one chain; a file written when a
	// relation had several stores holds one per store.
	Pager *pager.Pager
	Heaps []pager.PageID
	// Columns are the B-tree indexed columns, Attach the pictures with
	// a spatial index.
	Columns []string
	Attach  []*picture.Picture
}

// Open reattaches to the relation def describes — the catalog's reopen
// path — and rebuilds everything it keeps in memory from one scan of its
// heap (build.go): the B-trees, a packed R-tree per attached picture,
// and, in the pictures pics resolves, every object a tuple names.
func Open(def Def, pics Pictures) (*Relation, BuildTimes, error) {
	h, err := storage.OpenChains(def.Pager, def.Heaps)
	if err != nil {
		return nil, BuildTimes{}, fmt.Errorf("relation %s: %w", def.Name, err)
	}
	r := newRelation(def.Pager, def.Name, def.Schema, pics, h)
	times, err := r.build(def.Columns, def.Attach, true)
	if err != nil {
		return nil, times, err
	}
	return r, times, nil
}

// Name returns the relation name.
func (r *Relation) Name() string { return r.name }

// Generation changes whenever a B-tree or a picture is attached to the
// relation: what a statement resolved against it — which columns are
// indexed, which pictures it answers on — holds while it stands.
func (r *Relation) Generation() uint64 { return r.gen.Load() }

// HeapChains returns the first page of each of the heap's chains, the
// handles the catalog persists to reopen the relation.
func (r *Relation) HeapChains() []pager.PageID { return r.heap.Chains() }

// HeapPages returns the page ids of the heap, for page-ownership
// accounting during verification.
func (r *Relation) HeapPages() ([]pager.PageID, error) { return r.heap.Pages() }

// IndexedColumns returns the names of columns with B-tree indexes, in
// unspecified order.
func (r *Relation) IndexedColumns() []string {
	r.smu.RLock()
	defer r.smu.RUnlock()
	out := make([]string, 0, len(r.indexes))
	for col := range r.indexes {
		out = append(out, col)
	}
	return out
}

// Schema returns the relation schema.
func (r *Relation) Schema() Schema { return r.schema }

// Len returns the number of stored tuples.
func (r *Relation) Len() int { return r.heap.Len() }

// WaitRepacks blocks until no spatial index has a background repack in
// flight.
func (r *Relation) WaitRepacks() {
	r.smu.RLock()
	all := make([]*SpatialIndex, 0, len(r.spatial))
	for _, si := range r.spatial {
		all = append(all, si)
	}
	r.smu.RUnlock()
	for _, si := range all {
		si.WaitRepack()
	}
}

// Insert validates and stores t, updating every index. It returns the
// tuple's id. Every non-zero loc must carry its object (locObject) or
// name one its picture has staged (ErrDanglingLoc): the record carries
// that object, and the picture releases a staged one once it is stored.
// Safe beside other writers and readers: the heap write is under the
// heap's latch, the B-tree updates under smu, the spatial insert under
// its index's own lock.
func (r *Relation) Insert(t Tuple) (storage.TupleID, error) {
	if err := r.schema.Validate(t); err != nil {
		return storage.TupleID{}, err
	}
	t, staged, err := r.resolveLocs(t)
	if err != nil {
		return storage.TupleID{}, err
	}
	return r.insert(t, staged)
}

// resolveLocs returns t with every non-zero loc carrying its object
// (locObject), and the locs whose object came from the staging area, for
// insert to release once t is stored. t itself is not modified.
func (r *Relation) resolveLocs(t Tuple) (_ Tuple, staged []LocRef, _ error) {
	for i, v := range t {
		if v.Type != TypeLoc || v.Loc.IsZero() {
			continue
		}
		enc, fromStage, err := r.locObject(v)
		if err != nil {
			return nil, nil, fmt.Errorf("relation %s: column %q: %w", r.name, r.schema.Columns[i].Name, err)
		}
		if !fromStage {
			continue
		}
		if staged == nil {
			t = slices.Clone(t)
		}
		t[i].Str = enc
		staged = append(staged, v.Loc)
	}
	return t, staged, nil
}

// locObject returns the encoding of the object non-zero loc value v
// names: the one v carries (a tuple read back from this database), which
// must be a whole encoding of its non-zero id and unlike the object staged
// under it, if any, or else the one its picture has staged (fromStage).
// A carried id keeps its picture's allocator above it; one another tuple
// stores encoded otherwise is Database.Check's to find.
func (r *Relation) locObject(v Value) (enc string, fromStage bool, _ error) {
	pic, ok := r.lookupPicture(v.Loc.Picture)
	if !ok {
		return "", false, fmt.Errorf("%w: no picture %q", ErrDanglingLoc, v.Loc.Picture)
	}
	obj, isStaged := pic.Get(v.Loc.Object)
	if v.Str == "" {
		if !isStaged {
			return "", false, fmt.Errorf("%w: no staged object %v", ErrDanglingLoc, v.Loc)
		}
		return string(picture.EncodeObject(obj)), true, nil
	}
	n, err := picture.ObjectLen([]byte(v.Str))
	if err != nil || n != len(v.Str) || v.Loc.Object == 0 || picture.ObjectID(binary.LittleEndian.Uint64([]byte(v.Str))) != v.Loc.Object ||
		isStaged && string(picture.EncodeObject(obj)) != v.Str {
		return "", false, fmt.Errorf("%w: %v carries a malformed object, or one unlike the one staged", ErrDanglingLoc, v.Loc)
	}
	pic.Reserve(v.Loc.Object)
	return v.Str, false, nil
}

// lookupPicture resolves name through the relation's catalog.
func (r *Relation) lookupPicture(name string) (*picture.Picture, bool) {
	if r.pics == nil {
		return nil, false
	}
	return r.pics.Picture(name)
}

// insert stores t, whose non-zero locs carry their objects
// (resolveLocs), and then releases the staged objects it stored.
func (r *Relation) insert(t Tuple, staged []LocRef) (storage.TupleID, error) {
	enc := appendBody(nil, t, true)
	tid, err := r.heap.Insert(enc)
	if err != nil {
		return storage.TupleID{}, fmt.Errorf("relation %s: %w", r.name, err)
	}
	for _, l := range staged {
		pic, _ := r.lookupPicture(l.Picture) // resolveLocs found it, and no picture leaves a catalog
		pic.Release(l.Object)
	}
	id := tid.Int64()
	loc, mbr, hasLoc := r.spatialLoc(t)
	r.smu.Lock()
	for col, idx := range r.indexes {
		idx.Insert(IndexKey(t[r.schema.ColumnIndex(col)]), id)
	}
	si := r.spatialLocked(loc, hasLoc)
	r.smu.Unlock()
	if si != nil {
		si.insert(mbr, id)
	}
	return tid, nil
}

// spatialLoc returns t's loc — the first loc column, the one spatial
// indexes are over — and the MBR of the object it carries; ok is false
// when t has no loc or a zero one.
func (r *Relation) spatialLoc(t Tuple) (LocRef, geom.Rect, bool) {
	li := r.schema.LocColumn()
	if li < 0 || t[li].Loc.IsZero() {
		return LocRef{}, geom.Rect{}, false
	}
	mbr, _ := t[li].LocMBR()
	return t[li].Loc, mbr, true
}

// spatialLocked returns the index over the picture loc names, nil when
// there is no loc or that picture is not attached. Caller holds smu.
func (r *Relation) spatialLocked(loc LocRef, hasLoc bool) *SpatialIndex {
	if !hasLoc {
		return nil
	}
	return r.spatial[loc.Picture]
}

// Get returns the tuple stored under id.
func (r *Relation) Get(id storage.TupleID) (Tuple, error) {
	var t Tuple
	err := r.heap.GetBatch([]storage.TupleID{id}, func(_ int, body []byte) (err error) {
		if body == nil {
			return fmt.Errorf("%w: %v (deleted)", storage.ErrNotFound, id)
		}
		t, err = DecodeTuple(body)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("relation %s: %w", r.name, err)
	}
	return t, nil
}

// GetBatch materializes the tuples stored under ids, preserving input
// order: out[i] is the tuple for ids[i]. See FetchWhere, which it is
// with no term and into fresh memory. workers is ignored; it stays only
// because cmd/pictbench compiles against it, until the benchmark reads
// the engine's own counters.
func (r *Relation) GetBatch(ids []storage.TupleID, need []bool, workers int) ([]Tuple, error) {
	return r.FetchWhere(nil, ids, need, nil)
}

// Arena is the memory one statement decodes its tuples into: the
// blocks of Values its fetched tuples are cut from and its []Tuple
// lists, each cut from a slab that only grows while the statement runs
// (internal/arena), so two fetches of one statement never share a slot.
// Reset, once the statement has returned, clears both for the next one.
// A nil *Arena allocates afresh, as every read outside a statement
// does: what FetchWhere or ScanCols hand back through one is the
// statement's to drop, and must not be kept past its Reset.
type Arena struct {
	values arena.Slab[Value]
	tuples arena.Slab[Tuple]
}

// Tuples returns n nil tuples cut from a, or freshly allocated when a is
// nil.
func (a *Arena) Tuples(n int) []Tuple {
	if a == nil {
		return make([]Tuple, n)
	}
	return a.tuples.Cut(n)
}

// Reset clears a for its next statement.
func (a *Arena) Reset() {
	a.values.Reset()
	a.tuples.Reset()
}

func (a *Arena) valueSlab() *arena.Slab[Value] {
	if a == nil {
		return nil
	}
	return &a.values
}

// arenaTuples bounds the tuples of one tupleArena block: 128 × arity
// values stays under the allocator's large-object size.
const arenaTuples = 128

// tupleArena cuts decoded tuples from blocks of up to arenaTuples
// tuples: a kept tuple costs no allocation of its own, a rejected one
// none at all. A block holds no more tuples than there are records left
// to decode, and twice as many as the block before it, up to the bound.
// The blocks come from src, a statement's Arena's value slab, or are
// allocated when src is nil; close hands src the slots no tuple took.
type tupleArena struct {
	src   *arena.Slab[Value]
	arity int
	left  int // records still to be decoded, as far as known
	block int // tuples in the next block, left permitting
	free  []Value
	// A record's column spans: in spans, cleared once for the whole fetch
	// or scan, or in wide, allocated once, when the arity exceeds it.
	spans [spansOnStack]span
	wide  []span
}

// decode is the one step that turns a heap record's tuple body into a
// Tuple, for the batch fetch and both scan walks: one walk validates the
// body and finds its columns' spans, and the terms are tested on their
// columns' bytes (match). A record a term rejects writes nothing and
// takes no slot, and ok is false for it. A kept record is decoded from
// the spans into the arena's next slot, without walking the body again.
func (a *tupleArena) decode(body []byte, need []bool, terms []Term) (t Tuple, ok bool, err error) {
	a.left--
	cols := a.spans[:]
	if a.arity > len(a.spans) {
		if a.wide == nil {
			a.wide = make([]span, a.arity)
		}
		cols = a.wide
	}
	if cols, ok, err = match(body, terms, cols); !ok {
		return nil, false, err
	}
	if len(a.free) < a.arity {
		a.free = a.src.Cut(max(1, min(a.left+1, a.block)) * a.arity) // this record and those left
		a.block = min(2*a.block, arenaTuples)
	}
	t = decodeSpans(body, cols, need, a.free[:0:a.arity])
	if len(t) <= a.arity { // it fit the slot
		a.free = a.free[a.arity:]
	}
	return t, true, nil
}

// close returns the unused end of the last block to the slab, so a
// statement's slab grows by the tuples it kept, not by its candidates.
func (a *tupleArena) close() { a.src.Return(a.free) }

// FetchWhere materializes the tuples stored under ids that every term
// keeps, preserving input order: out[i] is the tuple for ids[i], nil
// when a term rejected it or the tuple was deleted after ids were read
// (an id never handed out fails the fetch with ErrNotFound). The heap
// pins each page the ids reference once (ascending page order — ids on
// the statement path arrive sorted, any other order is sorted — zero-copy
// view when mmap is active; Heap.GetBatch, which lets a waiting writer in
// between two pages) and decodes its tuples in place into arenas. need
// selects which columns to materialize, as in DecodeTupleCols (nil =
// all). The tuples and out are cut from a, a statement's Arena, or
// freshly allocated when a is nil.
//
// The terms are tested on each record's bytes, after one walk that
// validates the whole record, so a corrupt one fails the fetch whether
// or not a term would have rejected it; a rejected candidate is never
// decoded and costs no slot, no string and no allocation. A term on a
// column past a record's last fails the fetch as corrupt.
func (r *Relation) FetchWhere(a *Arena, ids []storage.TupleID, need []bool, terms []Term) ([]Tuple, error) {
	out := a.Tuples(len(ids))
	if len(ids) == 0 {
		return out, nil
	}
	ta := tupleArena{src: a.valueSlab(), arity: r.schema.Arity(), left: len(ids), block: arenaTuples}
	defer ta.close()
	reads := 0
	if r.readHook != nil {
		defer func() { r.readHook(reads) }()
	}
	err := r.heap.GetBatch(ids, func(i int, rec []byte) error {
		if rec == nil {
			return nil // deleted since ids were read
		}
		reads++
		t, _, err := ta.decode(rec, need, terms)
		if err != nil {
			return fmt.Errorf("relation %s: tuple %v: %w", r.name, ids[i], err)
		}
		out[i] = t // nil when a term rejected it
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Delete removes the tuple stored under id from the heap and then from
// every index. It reads the record and then frees its slot: a record's
// bytes never change while its slot is live, and the heap's own
// dead-slot check decides which of two Deletes of one id wins, the other
// reporting not-found. A freed slot is never handed out again, so until
// the index entries go they name a dead slot, which resolves to no
// tuple. The spatial entry is found by the object the record carries,
// whatever its picture holds now.
func (r *Relation) Delete(id storage.TupleID) error {
	t, err := r.Get(id)
	if err != nil {
		return err
	}
	if err := r.heap.Delete(id); err != nil {
		return fmt.Errorf("relation %s: %w", r.name, err)
	}
	gid := id.Int64()
	loc, mbr, hasLoc := r.spatialLoc(t)
	r.smu.Lock()
	for col, idx := range r.indexes {
		idx.Delete(IndexKey(t[r.schema.ColumnIndex(col)]), gid)
	}
	si := r.spatialLocked(loc, hasLoc)
	r.smu.Unlock()
	if si != nil {
		si.delete(mbr, gid)
	}
	return nil
}

// Update replaces the tuple stored under id with t, maintaining every
// index — the paper's §2.3: "an insertion or modification of a tuple
// should include spatial information for updating each of the spatial
// index associated with the updated relation". Records are immutable
// in the slotted pages, so the update is a delete plus insert; the new
// storage id is returned. A t the relation would refuse leaves the old
// tuple in place. A loc of t read back with the old tuple carries its
// object, so the update keeps it.
func (r *Relation) Update(id storage.TupleID, t Tuple) (storage.TupleID, error) {
	if err := r.schema.Validate(t); err != nil {
		return storage.TupleID{}, err
	}
	t, staged, err := r.resolveLocs(t)
	if err != nil {
		return storage.TupleID{}, err
	}
	if err := r.Delete(id); err != nil {
		return storage.TupleID{}, err
	}
	return r.insert(t, staged)
}

// Scan calls fn on every tuple in ascending id order; returning false
// stops the scan.
func (r *Relation) Scan(fn func(id storage.TupleID, t Tuple) bool) error {
	return r.ScanCols(nil, nil, nil, fn)
}

// ScanCols calls fn on every tuple that every term keeps, in ascending
// id order; returning false stops the scan. It is FetchWhere over the
// whole relation: the terms are tested on each record's bytes, and only
// a kept record has need's columns materialized (as in DecodeTupleCols,
// nil = all) — a rejected record costs no slot, no string and no
// allocation. Every record is validated whole, so a corrupt one fails
// the scan whether or not a term would have rejected it. fn runs with no
// lock held, so it may call back into the relation, and a tuple deleted
// while the scan is under way is either seen or skipped. The tuples are
// cut from a, a statement's Arena, or freshly allocated when a is nil.
func (r *Relation) ScanCols(a *Arena, need []bool, terms []Term, fn func(id storage.TupleID, t Tuple) bool) error {
	// How many tuples the terms keep is unknown: the blocks start small.
	ta := tupleArena{src: a.valueSlab(), arity: r.schema.Arity(), left: r.Len(), block: 8}
	defer ta.close()
	// The heap's pages in ascending order, one at a time, each decoded
	// under one hold of the heap's latch and its kept tuples handed to fn
	// after the latch is dropped.
	type scanned struct {
		id storage.TupleID
		t  Tuple
	}
	var run []scanned
	var decodeErr error
	reads := 0
	if r.readHook != nil {
		defer func() { r.readHook(reads) }()
	}
	visit := func(id storage.TupleID, body []byte) bool {
		reads++
		t, kept, err := ta.decode(body, need, terms)
		if err != nil {
			decodeErr = fmt.Errorf("relation %s: tuple %v: %w", r.name, id, err)
			return false
		}
		if kept {
			run = append(run, scanned{id, t})
		}
		return true
	}
	for page := r.heap.NextPage(pager.InvalidPage); page != pager.InvalidPage; {
		run = run[:0]
		next, err := r.heap.ScanPage(page, visit)
		if err != nil {
			return err
		}
		for _, sc := range run {
			if !fn(sc.id, sc.t) {
				return nil
			}
		}
		if decodeErr != nil {
			return decodeErr
		}
		page = next
	}
	return nil
}

// CreateIndex builds a B-tree index over the named alphanumeric
// column, indexing existing tuples ("the usual way" of §2.1): the
// column's keys are read off the heap in one scan, sorted, and loaded
// bottom-up. Inserts and deletes maintain it afterwards.
func (r *Relation) CreateIndex(column string) error {
	_, err := r.BuildIndexes([]string{column}, nil)
	return err
}

// Index returns the B-tree index on the named column, or nil.
func (r *Relation) Index(column string) *btree.Tree {
	r.smu.RLock()
	defer r.smu.RUnlock()
	return r.indexes[column]
}

// Lookup returns, in ascending id order, the ids the B-tree on column
// t.Col holds under t's key ranges (Term.ranges): a superset of the
// records t keeps, whose only extras are NaN-keyed records that a
// FetchWhere or ScanCols with t drops. ok is false when the column has
// no B-tree or t.Val is not of the column's type; the caller then scans.
func (r *Relation) Lookup(t Term) (ids []storage.TupleID, ok bool) {
	if t.Col < 0 || t.Col >= r.schema.Arity() {
		return nil, false
	}
	col := r.schema.Columns[t.Col]
	if t.Val.Type != col.Type {
		return nil, false
	}
	r.smu.RLock()
	defer r.smu.RUnlock()
	idx := r.indexes[col.Name]
	if idx == nil {
		return nil, false
	}
	collect := func(_ []byte, v btree.Value) bool {
		ids = append(ids, storage.TupleIDFromInt64(v))
		return true
	}
	for _, kr := range t.ranges() {
		if kr.hi == nil {
			idx.AscendFrom(kr.lo, collect)
		} else {
			idx.AscendRange(kr.lo, kr.hi, collect)
		}
	}
	if !slices.IsSortedFunc(ids, storage.TupleID.Compare) { // the B-tree delivers key order
		slices.SortFunc(ids, storage.TupleID.Compare)
	}
	return ids, true
}

// AttachPicture associates the relation with pic and builds a
// Hilbert-packed R-tree over the loc column. This
// is the paper's initial PACK of a static database; subsequent Insert
// and Delete calls maintain the index dynamically (§3.4), and every
// reload and repack packs it the same way. opts must be
// {Method: pack.MethodHilbert}; any other value is refused and nothing
// is attached. The parameter stays only because the benchmark harness
// compiles against it.
func (r *Relation) AttachPicture(pic *picture.Picture, opts pack.Options) error {
	if opts != hilbertPack {
		return fmt.Errorf("relation %s: picture %q: spatial indexes are Hilbert-packed, not %+v", r.name, pic.Name(), opts)
	}
	_, err := r.BuildIndexes(nil, []*picture.Picture{pic})
	return err
}

// Spatial returns the spatial index for the named picture, nil when the
// picture is not attached.
func (r *Relation) Spatial(pictureName string) *SpatialIndex {
	r.smu.RLock()
	defer r.smu.RUnlock()
	return r.spatial[pictureName]
}

// HasSpatial reports whether pic has a spatial index.
func (r *Relation) HasSpatial(pictureName string) bool { return r.Spatial(pictureName) != nil }

// SpatialCostSnapshot returns the planner's cost view of pic's index
// (SpatialIndex.CostSnapshot), ok false when pic is not attached.
func (r *Relation) SpatialCostSnapshot(pictureName string) (CostSnapshot, bool) {
	si := r.Spatial(pictureName)
	if si == nil {
		return CostSnapshot{}, false
	}
	return si.CostSnapshot(), true
}

// spatialFor is Spatial, or an error naming the relation and the
// picture when the picture is not attached.
func (r *Relation) spatialFor(pictureName string) (*SpatialIndex, error) {
	if si := r.Spatial(pictureName); si != nil {
		return si, nil
	}
	return nil, fmt.Errorf("relation %s: no spatial index for picture %q", r.name, pictureName)
}

// Pictures returns the names of all attached pictures.
func (r *Relation) Pictures() []string {
	r.smu.RLock()
	defer r.smu.RUnlock()
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
// answer a single freshly packed tree would give.
func (r *Relation) SearchArea(pictureName string, window geom.Rect, pred func(obj, win geom.Rect) bool) ([]storage.TupleID, int, error) {
	batches, visited, err := r.SearchAreaBatch(pictureName, []geom.Rect{window}, pred, 0)
	if err != nil {
		return nil, 0, err
	}
	return batches[0], visited, nil
}

// SpatialItems enumerates every live entry of the named picture's
// spatial index — (object MBR, storage id) pairs in canonical ascending
// TupleID order — along with a node-visit count charging every node of
// the merged trees. It is the executor's access path for predicates the
// R-tree cannot prune (the paper's "disjoined").
func (r *Relation) SpatialItems(pictureName string) ([]rtree.Item, int, error) {
	si, err := r.spatialFor(pictureName)
	if err != nil {
		return nil, 0, err
	}
	items, visited := si.items()
	return items, visited, nil
}

// SearchAreaBatch answers many windows against one spatial index in one
// batched descent of each of its trees (SpatialIndex.search).
// results[i] holds the qualifying storage ids for windows[i] in
// canonical ascending-TupleID order — identical to calling SearchArea
// per window — and the visit count is that of the batch: each node
// loaded once however many windows reach it. parallelism is ignored; it
// stays only because cmd/pictbench compiles against it, until the
// benchmark reads the engine's own counters.
func (r *Relation) SearchAreaBatch(pictureName string, windows []geom.Rect, pred func(obj, win geom.Rect) bool, parallelism int) ([][]storage.TupleID, int, error) {
	h, visited, err := r.search(pictureName, windows, pred)
	if err != nil {
		return nil, 0, err
	}
	defer putHits(h)
	// Group the hits by window in one counting pass: ends[w] counts
	// window w's hits, then holds where they start in grouped, and once
	// they are placed where they end.
	ends := make([]int, len(windows))
	for _, w := range h.wins {
		ends[w]++
	}
	start := 0
	for w, n := range ends {
		ends[w] = start
		start += n
	}
	h.grouped = slices.Grow(h.grouped[:0], len(h.ids))[:len(h.ids)]
	for k, w := range h.wins {
		h.grouped[ends[w]] = h.ids[k]
		ends[w]++
	}
	all := make([]storage.TupleID, len(h.ids))
	out := make([][]storage.TupleID, len(windows))
	start = 0
	for i, end := range ends {
		if end > start { // nil when empty
			ids := h.grouped[start:end]
			slices.Sort(ids)
			out[i] = tupleIDs(all[start:end:end], ids)
		}
		start = end
	}
	return out, visited, nil
}

// SearchWindows is the direct spatial search of one statement: the
// tuples whose loc object MBR satisfies pred against any of the windows,
// each id once, in canonical ascending TupleID order — the union of
// SearchAreaBatch's lists, sorted once and de-duplicated — with
// SearchAreaBatch's visit count.
func (r *Relation) SearchWindows(pictureName string, windows []geom.Rect, pred func(obj, win geom.Rect) bool) ([]storage.TupleID, int, error) {
	h, visited, err := r.search(pictureName, windows, pred)
	if err != nil {
		return nil, 0, err
	}
	defer putHits(h)
	slices.Sort(h.ids)
	ids := slices.Compact(h.ids)
	if len(ids) == 0 {
		return nil, visited, nil
	}
	return tupleIDs(make([]storage.TupleID, len(ids)), ids), visited, nil
}

// search answers windows against the named picture's index
// (SpatialIndex.search), collecting the hits, in no order, in a list taken
// from hitScratch, which the caller hands back with putHits once it has
// converted them: a search allocates only the lists it returns.
func (r *Relation) search(pictureName string, windows []geom.Rect, pred func(obj, win geom.Rect) bool) (*hits, int, error) {
	si, err := r.spatialFor(pictureName)
	if err != nil {
		return nil, 0, err
	}
	h := hitScratch.Get().(*hits)
	h.ids, h.wins = h.ids[:0], h.wins[:0]
	return h, si.search(windows, pred, h), nil
}

// hits is what a search collects: ids[k] satisfied the window numbered
// wins[k]. grouped is SearchAreaBatch's room to group the ids by window.
type hits struct {
	ids, grouped []int64
	wins         []int32
}

func (h *hits) add(w int, id int64) {
	h.ids = append(h.ids, id)
	h.wins = append(h.wins, int32(w))
}

// hitScratch holds the lists searches collect their hits in.
var hitScratch = sync.Pool{New: func() any { return new(hits) }}

// maxScratchIDs caps the lists hitScratch keeps, as arena caps a slab:
// a search that collected more leaves them to the collector.
const maxScratchIDs = 32 << 10

func putHits(h *hits) {
	if max(cap(h.ids), cap(h.grouped), cap(h.wins)) <= maxScratchIDs {
		hitScratch.Put(h)
	}
}

// tupleIDs writes to dst the tuple ids that the index data pointers in
// data encode, and returns it.
func tupleIDs(dst []storage.TupleID, data []int64) []storage.TupleID {
	for i, v := range data {
		dst[i] = storage.TupleIDFromInt64(v)
	}
	return dst
}

// SpatialPair is one juxtaposition result: the storage ids of the
// joined tuples, A from the left relation and B from the right.
type SpatialPair struct {
	A, B storage.TupleID
}

// JuxtaposeSpatial performs the paper's geographic join (§4) between
// this relation's spatial index on picA and s's index on picB: a
// simultaneous traversal of the two indexes (each constituent
// packed/delta tree pair juxtaposed, tombstoned entries dropped)
// reporting every tuple pair whose object MBRs satisfy pred, with the
// node pairs visited. Pairs are returned in canonical ascending (A, B)
// TupleID order. pred must imply rectangle intersection (the pruning
// rule). workers is ignored; it stays only because cmd/pictbench
// compiles against it, until the benchmark reads the engine's own
// counters.
func (r *Relation) JuxtaposeSpatial(picA string, s *Relation, picB string, pred func(a, b geom.Rect) bool, workers int) ([]SpatialPair, int, error) {
	a, err := r.spatialFor(picA)
	if err != nil {
		return nil, 0, err
	}
	b, err := s.spatialFor(picB)
	if err != nil {
		return nil, 0, err
	}
	pairs, visited := juxtaposeMerged(a, b, pred)
	out := make([]SpatialPair, len(pairs))
	for i, p := range pairs {
		out[i] = SpatialPair{
			A: storage.TupleIDFromInt64(p.A.Data),
			B: storage.TupleIDFromInt64(p.B.Data),
		}
	}
	return out, visited, nil
}

// Check validates the relation end to end: the heap's slotted-page
// structure (every page checksum-verified through the pager, no page in
// two chains) and its live count, every tuple's decodability and schema
// conformance, the structural invariants of each B-tree and spatial
// index, that every index entry — B-tree or spatial — resolves to a live
// tuple, and that the index on a picture holds as many entries as there
// are tuples located on it. It returns the first problem found.
func (r *Relation) Check() error {
	if err := r.heap.Check(); err != nil {
		return fmt.Errorf("relation %s: %w", r.name, err)
	}
	var ids []int64
	li := r.schema.LocColumn()
	located := make(map[string]int) // live tuples per picture their loc names
	var scanErr error
	err := r.heap.Scan(func(id storage.TupleID, rec []byte) bool {
		t, err := DecodeTuple(rec)
		if err == nil {
			err = r.schema.Validate(t)
		}
		if err != nil {
			scanErr = fmt.Errorf("tuple %v: %w", id, err)
			return false
		}
		ids = append(ids, id.Int64())
		if li >= 0 && t[li].Loc.Object != 0 {
			located[t[li].Loc.Picture]++
		}
		return true
	})
	if err == nil {
		err = scanErr
	}
	if err != nil {
		return fmt.Errorf("relation %s: %w", r.name, err)
	}
	r.smu.RLock()
	defer r.smu.RUnlock()
	for pic, si := range r.spatial {
		if err := si.checkInvariants(); err != nil {
			return fmt.Errorf("relation %s: spatial index %q: %w", r.name, pic, err)
		}
		items, _ := si.items()
		for _, it := range items {
			if _, ok := slices.BinarySearch(ids, it.Data); !ok {
				return fmt.Errorf("relation %s: spatial index %q: entry %v: %w", r.name, pic, storage.TupleIDFromInt64(it.Data), storage.ErrNotFound)
			}
		}
		if len(items) != located[pic] {
			return fmt.Errorf("relation %s: spatial index %q: %w: %d entries, %d live tuples located on the picture", r.name, pic, storage.ErrCorrupt, len(items), located[pic])
		}
	}
	for col, idx := range r.indexes {
		if err := idx.CheckInvariants(); err != nil {
			return fmt.Errorf("relation %s: index %q: %w", r.name, col, err)
		}
		var resolveErr error
		idx.Ascend(func(_ []byte, v int64) bool {
			if _, ok := slices.BinarySearch(ids, v); !ok {
				resolveErr = fmt.Errorf("relation %s: index %q: entry %v: %w", r.name, col, storage.TupleIDFromInt64(v), storage.ErrNotFound)
			}
			return resolveErr == nil
		})
		if resolveErr != nil {
			return resolveErr
		}
	}
	return nil
}
