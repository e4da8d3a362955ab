package relation

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/arena"
	"repro/internal/btree"
	"repro/internal/geom"
	"repro/internal/pack"
	"repro/internal/pager"
	"repro/internal/par"
	"repro/internal/picture"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// store is one heap of a relation. mu serializes heap access — writers
// exclusively, readers shared — so writers and readers of one store
// never race on page bytes.
type store struct {
	mu   sync.RWMutex
	heap *storage.Heap
}

// firstPage returns the heap's first page under mu: the store's first
// tuple writes it.
func (st *store) firstPage() pager.PageID {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.heap.FirstPage()
}

// len returns the heap's live record count under mu.
func (st *store) len() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.heap.Len()
}

// Pictures resolves the picture names a loc column holds: the catalog a
// relation was created in.
type Pictures interface {
	Picture(name string) (*picture.Picture, bool)
}

// ErrDanglingLoc is Insert's refusal of a non-zero loc whose object it
// can take neither from the value nor from its picture's staged objects
// (locObject): a stored tuple carries the object its loc names.
var ErrDanglingLoc = errors.New("relation: loc names no picture object")

// Relation is one table of the pictorial database: tuple heaps in one
// or more stores, secondary B-tree indexes on alphanumeric columns, and
// R-tree spatial indexes on the loc column — one per associated picture
// per store. Every store is a heap in the database's one page file.
// NewSharded makes a relation of n ≥ 1 stores, tuples placed by Hilbert
// key range (shard.go); Open reopens it. A tuple's id is its heap
// address and its store whatever the store count (ids.go); every
// operation here is written once, for any store count.
//
// Two kinds of lock, never nested (DESIGN.md §15): smu guards the index
// and spatial directories and the B-trees; each store's mu guards its
// heap and with it the store's live count, the heap's.
type Relation struct {
	name   string
	schema Schema
	// pics resolves the pictures the loc column names.
	pics Pictures
	// pgr is the page file every store's heap lives in. stores is fixed
	// at construction: a tuple never moves between stores and the layout
	// never changes.
	pgr    *pager.Pager
	stores []*store

	smu     sync.RWMutex
	indexes map[string]*btree.Tree
	spatial map[string][]*SpatialIndex

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

func newRelation(p *pager.Pager, name string, schema Schema, pics Pictures, stores []*store) *Relation {
	return &Relation{
		name:    name,
		schema:  schema,
		pics:    pics,
		pgr:     p,
		stores:  stores,
		indexes: make(map[string]*btree.Tree),
		spatial: make(map[string][]*SpatialIndex),
	}
}

// NewSharded creates an empty relation of stores heaps in p, each with
// a spatial index per attached picture, resolving loc columns through
// pics. It touches no page: each heap takes its first page with its
// first tuple.
func NewSharded(p *pager.Pager, stores int, name string, schema Schema, pics Pictures) (*Relation, error) {
	if stores < 1 || stores > MaxShards {
		return nil, fmt.Errorf("relation %s: shard count %d out of range [1, %d]", name, stores, MaxShards)
	}
	sts := make([]*store, stores)
	for i := range sts {
		h, _, err := storage.Create(p)
		if err != nil {
			return nil, fmt.Errorf("relation %s: store %d: %w", name, i, err)
		}
		sts[i] = &store{heap: h}
	}
	return newRelation(p, name, schema, pics, sts), nil
}

// Def is a relation as its catalog records it: where its tuples are and
// what it is indexed by.
type Def struct {
	Name   string
	Schema Schema
	// Pager is the page file the stores live in, and Heaps names each
	// store's heap by its first page (InvalidPage: no tuple yet).
	Pager *pager.Pager
	Heaps []pager.PageID
	// Columns are the B-tree indexed columns, Attach the pictures with
	// a spatial index.
	Columns []string
	Attach  []*picture.Picture
}

// Open reattaches to the relation def describes — the catalog's reopen
// path — and rebuilds everything it keeps in memory from one scan of
// each store's heap (build.go): the B-trees, a packed R-tree per
// attached picture per store, and, in the pictures pics resolves, every
// object a tuple names.
func Open(def Def, pics Pictures) (*Relation, BuildTimes, error) {
	n := len(def.Heaps)
	if n == 0 || n > MaxShards {
		return nil, BuildTimes{}, fmt.Errorf("relation %s: %d stores", def.Name, n)
	}
	stores := make([]*store, n)
	for i, first := range def.Heaps {
		h, err := storage.Open(def.Pager, first)
		if err != nil {
			return nil, BuildTimes{}, fmt.Errorf("relation %s: store %d: %w", def.Name, i, err)
		}
		stores[i] = &store{heap: h}
	}
	r := newRelation(def.Pager, def.Name, def.Schema, pics, stores)
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

// Sharded reports false: no relation has page files of its own. It is
// kept only for the benchmark harness, which compiles against it.
func (r *Relation) Sharded() bool { return false }

// HeapFirstPage returns the first page of the tuple heap of a
// one-store relation (InvalidPage before its first tuple); a relation
// of several heaps reports InvalidPage (see ShardHeapFirstPages).
func (r *Relation) HeapFirstPage() pager.PageID {
	if len(r.stores) > 1 {
		return pager.InvalidPage
	}
	return r.stores[0].firstPage()
}

// HeapPages returns the page ids of every store's heap, for
// page-ownership accounting during verification.
func (r *Relation) HeapPages() ([]pager.PageID, error) {
	var out []pager.PageID
	for s := range r.stores {
		pages, err := r.ShardHeapPages(s)
		if err != nil {
			return nil, err
		}
		out = append(out, pages...)
	}
	return out, nil
}

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
func (r *Relation) Len() int {
	n := 0
	for _, st := range r.stores {
		n += st.len()
	}
	return n
}

// WaitRepacks blocks until no spatial index has a background repack in
// flight.
func (r *Relation) WaitRepacks() {
	r.smu.RLock()
	var all []*SpatialIndex
	for _, sis := range r.spatial {
		all = append(all, sis...)
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
// store's lock, the B-tree updates under smu, the spatial insert under
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
	loc, mbr, hasLoc := r.spatialLoc(t)
	s := r.place(t, loc, mbr, hasLoc)
	st := r.stores[s]
	st.mu.Lock()
	lid, err := st.heap.Insert(enc)
	st.mu.Unlock()
	if err != nil {
		return storage.TupleID{}, r.storeErr(s, err)
	}
	for _, l := range staged {
		pic, _ := r.lookupPicture(l.Picture) // resolveLocs found it, and no picture leaves a catalog
		pic.Release(l.Object)
	}
	tid := inStore(lid, s)
	id := tid.Int64()
	r.smu.Lock()
	for col, idx := range r.indexes {
		idx.Insert(IndexKey(t[r.schema.ColumnIndex(col)]), id)
	}
	si := r.spatialLocked(loc, hasLoc, s)
	r.smu.Unlock()
	if si != nil {
		si.insert(mbr, id)
	}
	return tid, nil
}

func (r *Relation) storeErr(s int, err error) error {
	return fmt.Errorf("relation %s: store %d: %w", r.name, s, err)
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

// spatialLocked returns store s's index over the picture loc names, nil
// when there is no loc or that picture is not attached. Caller holds
// smu.
func (r *Relation) spatialLocked(loc LocRef, hasLoc bool, s int) *SpatialIndex {
	if sis := r.spatial[loc.Picture]; hasLoc && sis != nil {
		return sis[s]
	}
	return nil
}

// storeOf returns the store id names, ok false when the relation has no
// such store.
func (r *Relation) storeOf(id storage.TupleID) (int, bool) {
	return int(id.Store), int(id.Store) < len(r.stores)
}

// Get returns the tuple stored under id.
func (r *Relation) Get(id storage.TupleID) (Tuple, error) {
	s, ok := r.storeOf(id)
	if !ok {
		return nil, fmt.Errorf("%w: %v", storage.ErrNotFound, id)
	}
	var t Tuple
	st := r.stores[s]
	st.mu.RLock()
	err := st.heap.GetBatch([]storage.TupleID{id}, func(_ int, body []byte) (err error) {
		if body == nil {
			return fmt.Errorf("%w: %v (deleted)", storage.ErrNotFound, id)
		}
		t, err = DecodeTuple(body)
		return err
	})
	st.mu.RUnlock()
	if err != nil {
		return nil, r.storeErr(s, err)
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
// (an id never handed out fails the fetch with ErrNotFound). Ids are
// grouped by store and the stores read in order; a store pins each page
// it references once (ascending page order — ids on the statement path
// arrive sorted, any other order is sorted per store — zero-copy view
// when mmap is active) and decodes its tuples in place into arenas. need
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
	lids, pos, err := r.group(ids)
	if err != nil {
		return nil, fmt.Errorf("relation %s: %w", r.name, err)
	}
	ta := tupleArena{src: a.valueSlab(), arity: r.schema.Arity(), left: len(ids), block: arenaTuples}
	defer ta.close()
	reads := 0
	if r.readHook != nil {
		defer func() { r.readHook(reads) }()
	}
	for s, l := range lids {
		if len(l) == 0 {
			continue
		}
		st := r.stores[s]
		st.mu.RLock()
		err := st.heap.GetBatch(l, func(k int, rec []byte) error {
			if rec == nil {
				return nil // deleted since ids were read
			}
			reads++
			p := k
			if pos != nil {
				p = pos[s][k]
			}
			t, _, err := ta.decode(rec, need, terms)
			if err != nil {
				return fmt.Errorf("relation %s: tuple %v: %w", r.name, ids[p], err)
			}
			out[p] = t // nil when a term rejected it
			return nil
		})
		st.mu.RUnlock()
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// group sorts a batch of ids by store: lids[s][k] is ids[pos[s][k]], and
// a nil pos stands for the identity. An id naming no store of the
// relation fails the batch.
func (r *Relation) group(ids []storage.TupleID) (lids [][]storage.TupleID, pos [][]int, err error) {
	for _, id := range ids {
		if _, ok := r.storeOf(id); !ok {
			return nil, nil, fmt.Errorf("%w: %v", storage.ErrNotFound, id)
		}
	}
	if len(r.stores) == 1 {
		return [][]storage.TupleID{ids}, nil, nil
	}
	lids = make([][]storage.TupleID, len(r.stores))
	pos = make([][]int, len(r.stores))
	for i, id := range ids {
		lids[id.Store] = append(lids[id.Store], id)
		pos[id.Store] = append(pos[id.Store], i)
	}
	return lids, pos, nil
}

// Delete removes the tuple stored under id from the heap and then from
// every index. Under the store's lock, in one section, it reads the
// record and frees its slot: the heap's own dead-slot check decides
// which of two Deletes of one id wins, and the other reports not-found.
// A freed slot is never handed out again, so until the index entries go
// they name a dead slot, which resolves to no tuple. The spatial entry
// is found by the object the record carries, whatever its picture holds
// now.
func (r *Relation) Delete(id storage.TupleID) error {
	gid := id.Int64()
	s, ok := r.storeOf(id)
	if !ok {
		return fmt.Errorf("%w: %v", storage.ErrNotFound, id)
	}
	var t Tuple
	st := r.stores[s]
	st.mu.Lock()
	err := st.heap.GetBatch([]storage.TupleID{id}, func(_ int, body []byte) (err error) {
		if body == nil {
			return fmt.Errorf("%w: %v (already deleted)", storage.ErrNotFound, id)
		}
		t, err = DecodeTuple(body)
		return err
	})
	if err == nil {
		err = st.heap.Delete(id)
	}
	st.mu.Unlock()
	if err != nil {
		return r.storeErr(s, err)
	}
	loc, mbr, hasLoc := r.spatialLoc(t)
	r.smu.Lock()
	for col, idx := range r.indexes {
		idx.Delete(IndexKey(t[r.schema.ColumnIndex(col)]), gid)
	}
	si := r.spatialLocked(loc, hasLoc, s)
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
	// Each store's chain in store order, one page at a time, each decoded
	// under its store's lock and its kept tuples handed to fn after the
	// lock is dropped.
	type scanned struct {
		id storage.TupleID
		t  Tuple
	}
	var run []scanned
	var decodeErr error
	var s int // the store being walked
	reads := 0
	if r.readHook != nil {
		defer func() { r.readHook(reads) }()
	}
	visit := func(lid storage.TupleID, body []byte) bool {
		reads++
		id := inStore(lid, s)
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
	for s = range r.stores {
		st := r.stores[s]
		for page := st.firstPage(); page != pager.InvalidPage; {
			run = run[:0]
			st.mu.RLock()
			next, err := st.heap.ScanPage(page, visit)
			st.mu.RUnlock()
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
// Hilbert-packed R-tree over the loc column (one tree per store). This
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

// Spatial returns the spatial index for the named picture when the
// relation has one store, nil when the picture is not attached or there
// is an index per store — use Spatials, HasSpatial, or
// SpatialCostSnapshot there.
func (r *Relation) Spatial(pictureName string) *SpatialIndex {
	if sis := r.spatialList(pictureName); len(sis) == 1 {
		return sis[0]
	}
	return nil
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
// answer a single freshly packed tree would give. With several stores
// the query scatters to only those whose bounds overlap the window and
// the gathered ids are sorted into the same canonical order.
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
	sis := r.spatialList(pictureName)
	if sis == nil {
		return nil, 0, fmt.Errorf("relation %s: no spatial index for picture %q", r.name, pictureName)
	}
	items, visited := scatterItems(sis)
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

// search answers windows against the named picture's indexes
// (scatterSearch), collecting the hits, in no order, in a list taken
// from hitScratch, which the caller hands back with putHits once it has
// converted them: a search allocates only the lists it returns.
func (r *Relation) search(pictureName string, windows []geom.Rect, pred func(obj, win geom.Rect) bool) (*hits, int, error) {
	sis := r.spatialList(pictureName)
	if sis == nil {
		return nil, 0, fmt.Errorf("relation %s: no spatial index for picture %q", r.name, pictureName)
	}
	h := hitScratch.Get().(*hits)
	h.ids, h.wins = h.ids[:0], h.wins[:0]
	return h, scatterSearch(sis, windows, pred, h), nil
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
// simultaneous traversal of the two merged indexes (each constituent
// packed/delta tree pair juxtaposed, tombstoned entries dropped)
// reporting every tuple pair whose object MBRs satisfy pred, with the
// node pairs visited. Pairs are returned in canonical ascending (A, B)
// TupleID order. pred must imply rectangle intersection (the pruning
// rule). workers is ignored; it stays only because cmd/pictbench
// compiles against it, until the benchmark reads the engine's own
// counters.
func (r *Relation) JuxtaposeSpatial(picA string, s *Relation, picB string, pred func(a, b geom.Rect) bool, workers int) ([]SpatialPair, int, error) {
	as := r.spatialList(picA)
	if as == nil {
		return nil, 0, fmt.Errorf("relation %s: no spatial index for picture %q", r.name, picA)
	}
	bs := s.spatialList(picB)
	if bs == nil {
		return nil, 0, fmt.Errorf("relation %s: no spatial index for picture %q", s.name, picB)
	}
	pairs, visited := scatterJuxtapose(as, bs, pred)
	out := make([]SpatialPair, len(pairs))
	for i, p := range pairs {
		out[i] = SpatialPair{
			A: storage.TupleIDFromInt64(p.A.Data),
			B: storage.TupleIDFromInt64(p.B.Data),
		}
	}
	return out, visited, nil
}

// Check validates the relation end to end: every heap's slotted-page
// structure (every page checksum-verified through the pager), no page in
// two stores' heaps, every store's live count against its records,
// every tuple's decodability and schema conformance, the structural
// invariants of each B-tree and spatial index, and that every index entry — B-tree or spatial —
// resolves to a live tuple, a spatial one to a tuple of its own store,
// and that a store's index on a picture holds as many entries as the
// store has tuples located on it. The stores are verified side by side
// on up to GOMAXPROCS goroutines, the budget of the reload's scans. It
// returns the first problem found, in store order.
func (r *Relation) Check() error {
	if err := r.disjointHeaps(); err != nil {
		return err
	}
	r.smu.RLock()
	spatial := maps.Clone(r.spatial)
	r.smu.RUnlock()
	live := make([][]int64, len(r.stores))
	err := par.Do(len(r.stores), 0, func(s int) (err error) {
		if live[s], err = r.checkStore(s, spatial); err != nil {
			return r.storeErr(s, err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	// An id's store is its top bits: the stores' ascending lists, in store
	// order, are one ascending list.
	all := slices.Concat(live...)
	r.smu.RLock()
	defer r.smu.RUnlock()
	for col, idx := range r.indexes {
		if err := idx.CheckInvariants(); err != nil {
			return fmt.Errorf("relation %s: index %q: %w", r.name, col, err)
		}
		var resolveErr error
		idx.Ascend(func(_ []byte, v int64) bool {
			if _, ok := slices.BinarySearch(all, v); !ok {
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

// checkStore validates store s — heap structure, tuple decodability and
// schema conformance, the heap's live count against the records its scan
// finds in the same lock section, and the store's spatial indexes
// (structure, every entry naming a live tuple of this store, and one
// entry per tuple whose loc names the index's picture). It returns the
// store's live ids in ascending order.
func (r *Relation) checkStore(s int, spatial map[string][]*SpatialIndex) ([]int64, error) {
	st := r.stores[s]
	var ids []int64
	li := r.schema.LocColumn()
	located := make(map[string]int) // live tuples per picture their loc names
	var scanErr error
	st.mu.RLock()
	want := st.heap.Len()
	err := st.heap.Check()
	if err == nil {
		err = st.heap.Scan(func(lid storage.TupleID, rec []byte) bool {
			id := inStore(lid, s)
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
	}
	st.mu.RUnlock()
	if err == nil {
		err = scanErr
	}
	if err != nil {
		return nil, err
	}
	if len(ids) != want {
		return nil, fmt.Errorf("%w: the heap counts %d live records and holds %d", storage.ErrCorrupt, want, len(ids))
	}
	slices.Sort(ids)
	for pic, sis := range spatial {
		if err := sis[s].checkInvariants(); err != nil {
			return nil, fmt.Errorf("spatial index %q: %w", pic, err)
		}
		items, _ := sis[s].items()
		for _, it := range items {
			if _, ok := slices.BinarySearch(ids, it.Data); !ok {
				return nil, fmt.Errorf("spatial index %q: entry %v: %w", pic, storage.TupleIDFromInt64(it.Data), storage.ErrNotFound)
			}
		}
		if len(items) != located[pic] {
			return nil, fmt.Errorf("spatial index %q: %w: %d entries, %d live tuples located on the picture", pic, storage.ErrCorrupt, len(items), located[pic])
		}
	}
	return ids, nil
}
