package relation

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"time"

	"repro/internal/btree"
	"repro/internal/par"
	"repro/internal/picture"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// This file is the one routine that derives a relation's in-memory
// state from its heaps. Open, CreateIndex and AttachPicture all run it:
// one scan of every store's heap, side by side, collects each B-tree's
// (key, id) run and each attached picture's (MBR, id) items, the MBR
// being that of the object the tuple's loc carries. On Open the same
// scan also notes the largest object id each picture's tuples carry, so
// that the picture allocates above it, and the stores' page lists are
// checked disjoint; the objects themselves stay in their tuples. Then
// every index is its own task on up to GOMAXPROCS goroutines — a run is
// sorted and bulk-loaded, a list Hilbert-packed (packTree). On one core
// the tasks run one after another, B-trees first.

// nowFn is the clock the build phases are timed with; tests replace it.
var nowFn = time.Now

// BuildTimes is where an index build spent its time, summed over its
// tasks: goroutine time, not elapsed time, once tasks overlap.
type BuildTimes struct {
	Scan  time.Duration // heap scan and decode
	BTree time.Duration // sorting the runs and bulk-loading them
	Pack  time.Duration // PACK and the walk of the packed trees' search metrics
}

// Add sums u into t.
func (t *BuildTimes) Add(u BuildTimes) {
	t.Scan += u.Scan
	t.BTree += u.BTree
	t.Pack += u.Pack
}

// scanPart is what the scan of one store's heap collected: runs[c]
// holds columns[c]'s (IndexKey, id) for every tuple, items[p] the
// (MBR, id) entries of pics[p] in ascending id order, the order PACK is
// handed them, and, on Open, maxIDs the largest object id its tuples
// carry per picture name.
type scanPart struct {
	runs   [][]btree.Entry
	items  [][]rtree.Item
	maxIDs map[string]*picture.ObjectID
}

// indexBuild is one scan of the relation for the indexes being built:
// a part per store.
type indexBuild struct {
	r       *Relation
	columns []string
	pics    []*picture.Picture
	parts   []*scanPart
}

// BuildIndexes builds B-trees over columns and attaches pics, all from
// one scan of the heap. Nothing is attached to the relation unless
// every index was built. An index covers the tuples its scan saw: a
// caller who needs it complete keeps writers out until BuildIndexes
// returns.
func (r *Relation) BuildIndexes(columns []string, pics []*picture.Picture) (BuildTimes, error) {
	return r.build(columns, pics, false)
}

// build is BuildIndexes; with open set it is Open's reload, which also
// moves each picture's id allocator above the ids its tuples carry
// (reserveIDs) and refuses a page two stores' heaps chain
// (disjointHeaps).
func (r *Relation) build(columns []string, pics []*picture.Picture, open bool) (BuildTimes, error) {
	var times BuildTimes
	for i, col := range columns {
		ci := r.schema.ColumnIndex(col)
		if ci < 0 {
			return times, fmt.Errorf("relation %s: no column %q", r.name, col)
		}
		if r.schema.Columns[ci].Type == TypeLoc {
			return times, fmt.Errorf("relation %s: column %q is pictorial; use AttachPicture", r.name, col)
		}
		if r.Index(col) != nil || slices.Contains(columns[:i], col) {
			return times, fmt.Errorf("relation %s: column %q already indexed", r.name, col)
		}
	}
	if len(pics) > 0 && r.schema.LocColumn() < 0 {
		return times, fmt.Errorf("relation %s: schema has no loc column", r.name)
	}
	for i, pic := range pics {
		name := pic.Name()
		dup := r.HasSpatial(name)
		for _, prev := range pics[:i] {
			dup = dup || prev.Name() == name
		}
		if dup {
			return times, fmt.Errorf("relation %s: picture %q already attached", r.name, name)
		}
	}
	if !open && len(columns) == 0 && len(pics) == 0 {
		return times, nil
	}
	b := &indexBuild{r: r, columns: columns, pics: pics}
	t0 := nowFn()
	err := b.scan(open)
	if err == nil && open {
		err = r.disjointHeaps()
	}
	if err == nil && open {
		err = r.reserveIDs(b.parts)
	}
	times.Scan = nowFn().Sub(t0)
	if err != nil {
		return times, err
	}

	trees := make([]*btree.Tree, len(columns))
	sis := make([][]*SpatialIndex, len(pics))
	var tasks []func() (BuildTimes, error)
	for c := range columns {
		tasks = append(tasks, func() (BuildTimes, error) {
			t0 := nowFn()
			run := b.parts[0].runs[c]
			for _, part := range b.parts[1:] {
				run = append(run, part.runs[c]...)
			}
			btree.SortEntries(run)
			trees[c] = btree.BulkLoad(btree.DefaultOrder, run)
			return BuildTimes{BTree: nowFn().Sub(t0)}, nil
		})
	}
	for p, pic := range pics {
		sis[p] = make([]*SpatialIndex, len(b.parts))
		for s := range sis[p] {
			tasks = append(tasks, func() (BuildTimes, error) {
				t0 := nowFn()
				sis[p][s] = newSpatialIndex(pic, packTree(b.parts[s].items[p]))
				return BuildTimes{Pack: nowFn().Sub(t0)}, nil
			})
		}
	}
	taskTimes := make([]BuildTimes, len(tasks))
	err = par.Do(len(tasks), 0, func(i int) (err error) {
		taskTimes[i], err = tasks[i]()
		return err
	})
	for _, t := range taskTimes {
		times.Add(t)
	}
	if err != nil {
		return times, err
	}

	r.smu.Lock()
	defer r.smu.Unlock()
	for c, col := range columns {
		r.indexes[col] = trees[c]
	}
	for p, pic := range pics {
		r.spatial[pic.Name()] = sis[p]
	}
	r.gen.Add(1)
	return times, nil
}

// scan fills parts from every store's heap, each walked under its lock
// beside the others; with open, the largest object id per picture is
// noted.
func (b *indexBuild) scan(open bool) error {
	r := b.r
	b.parts = make([]*scanPart, len(r.stores))
	return par.Do(len(r.stores), 0, func(s int) error {
		if err := b.scanStore(s, open); err != nil {
			return r.storeErr(s, err)
		}
		return nil
	})
}

// scanStore fills parts[s] from store s's heap under the store's lock.
func (b *indexBuild) scanStore(s int, open bool) error {
	r := b.r
	arity := r.schema.Arity()
	need := make([]bool, arity)
	cis := make([]int, len(b.columns))
	for c, col := range b.columns {
		cis[c] = r.schema.ColumnIndex(col)
		need[cis[c]] = true
	}
	li := r.schema.LocColumn()
	var locCols []int
	for i, col := range r.schema.Columns {
		if col.Type == TypeLoc && (open || (i == li && len(b.pics) > 0)) {
			locCols = append(locCols, i)
		}
	}
	st := r.stores[s]
	st.mu.RLock()
	defer st.mu.RUnlock()
	n := st.heap.Len()
	p := &scanPart{runs: make([][]btree.Entry, len(b.columns)), items: make([][]rtree.Item, len(b.pics))}
	b.parts[s] = p
	for c := range p.runs {
		p.runs[c] = make([]btree.Entry, 0, n)
	}
	for pi := range p.items {
		p.items[pi] = make([]rtree.Item, 0, n/len(p.items))
	}
	if open {
		p.maxIDs = make(map[string]*picture.ObjectID)
	}
	slot := make(Tuple, 0, arity)
	cols := make([]span, 0, arity)
	// collect takes one live record's keys, items and object ids.
	collect := func(id int64, body []byte) error {
		var err error
		if cols, err = walk(body, cols); err != nil {
			return err
		}
		if len(cols) != arity {
			return errTuple("%d columns, the schema has %d", len(cols), arity)
		}
		t := decodeSpans(body, cols, need, slot)
		for c, ci := range cis {
			p.runs[c] = append(p.runs[c], btree.Entry{Key: IndexKey(t[ci]), Value: id})
		}
		for _, i := range locCols {
			name, obj, ok := cols[i].loc(body)
			if !ok {
				continue
			}
			if p.maxIDs != nil {
				oid := picture.ObjectID(binary.LittleEndian.Uint64(obj))
				if oid == 0 {
					return errTuple("loc column %d: object id 0", i)
				}
				m := p.maxIDs[string(name)]
				if m == nil {
					m = new(picture.ObjectID)
					p.maxIDs[string(name)] = m
				}
				*m = max(*m, oid)
			}
			for pi, pic := range b.pics {
				if i == li && string(name) == pic.Name() {
					p.items[pi] = append(p.items[pi], rtree.Item{Rect: picture.EncodedMBR(obj), Data: id})
				}
			}
		}
		return nil
	}
	var scanErr error
	err := st.heap.Scan(func(lid storage.TupleID, body []byte) bool {
		id := inStore(lid, s)
		if err := collect(id.Int64(), body); err != nil {
			scanErr = fmt.Errorf("tuple %v: %w", id, err)
			return false
		}
		return true
	})
	if err == nil {
		err = scanErr
	}
	if err != nil {
		return err
	}
	// Heap order is id order only while the chain's pages ascend; a page
	// the pager hands back from its free list may not.
	for _, items := range p.items {
		slices.SortFunc(items, func(x, y rtree.Item) int { return cmp.Compare(x.Data, y.Data) })
	}
	return nil
}

// reserveIDs moves every picture the stores' tuples locate on above the
// largest object id they carry, so that an object placed after the
// reload takes an id no stored object has. A tuple naming a picture the
// catalog does not define is corruption.
func (r *Relation) reserveIDs(parts []*scanPart) error {
	for _, part := range parts {
		for name, id := range part.maxIDs {
			pic, ok := r.lookupPicture(name)
			if !ok {
				return fmt.Errorf("%w: a tuple names picture %q, which the catalog does not define", storage.ErrCorrupt, name)
			}
			pic.Reserve(*id)
		}
	}
	return nil
}
