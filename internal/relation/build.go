package relation

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
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
// scan also counts every record, keeps the sequences a sharded
// relation's route table is rebuilt from, and collects every object a
// tuple carries. Then every index is its own task on up to GOMAXPROCS
// goroutines — a run is sorted and bulk-loaded, a list Hilbert-packed
// (packTree) — and on Open each store's objects are restored into
// their pictures beside them. On one core the tasks run one after
// another, B-trees first.

// nowFn is the clock the build phases are timed with; tests replace it.
var nowFn = time.Now

// BuildTimes is where an index build spent its time, summed over its
// tasks: goroutine time, not elapsed time, once tasks overlap.
type BuildTimes struct {
	Scan  time.Duration // heap scan, decode, and on Open the objects' restore
	BTree time.Duration // sorting the runs and bulk-loading them
	Pack  time.Duration // PACK and the walk of the packed trees' search metrics
}

// Add sums u into t.
func (t *BuildTimes) Add(u BuildTimes) {
	t.Scan += u.Scan
	t.BTree += u.BTree
	t.Pack += u.Pack
}

// route is where the scan found a record: the id it carries and its
// heap address.
type route struct {
	id  int64
	lid storage.TupleID
}

// scanPart is what the scan of one store's heap collected: runs[c]
// holds columns[c]'s (IndexKey, id) for every tuple, items[p] the
// (MBR, id) entries of pics[p] in ascending id order, the order PACK is
// handed them, and, on Open, routes every record's place and objs the
// objects its tuples carry by picture name.
type scanPart struct {
	runs   [][]btree.Entry
	items  [][]rtree.Item
	routes []route
	objs   map[string]*[]picture.Object
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

// build is BuildIndexes; with open set it is Open's reload of a relation
// whose directory is still empty: every record counts, and the ids the
// records carry become the directory (adoptRoutes).
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
		err = r.adoptRoutes(b.parts)
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
	// The objects a store's tuples carry go to their pictures beside the
	// index builds: nothing else needs them.
	for _, part := range b.parts {
		if part.objs != nil {
			tasks = append(tasks, func() (BuildTimes, error) {
				t0 := nowFn()
				err := r.restoreObjects(part.objs)
				return BuildTimes{Scan: nowFn().Sub(t0)}, err
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
		for _, si := range sis[p] {
			si.costGen = &r.costGen
		}
		r.spatial[pic.Name()] = sis[p]
	}
	r.gen.Add(1)
	r.costGen.Add(1)
	return times, nil
}

// scan fills parts from every store's heap, each walked under its lock
// beside the others. Without open, a record counts when the id
// directory places it where it was found; with open, every record counts
// and the objects the tuples carry are collected.
func (b *indexBuild) scan(open bool) error {
	r := b.r
	var dir idCodec
	if !open {
		r.smu.RLock()
		dir = r.ids.snapshot()
		r.smu.RUnlock()
	}
	b.parts = make([]*scanPart, len(r.stores))
	return par.Do(len(r.stores), 0, func(s int) error {
		if err := b.scanStore(s, dir); err != nil {
			return r.storeErr(s, err)
		}
		return nil
	})
}

// scanStore fills parts[s] from store s's heap under the store's lock;
// dir is nil on Open.
func (b *indexBuild) scanStore(s int, dir idCodec) error {
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
		if col.Type == TypeLoc && (dir == nil || (i == li && len(b.pics) > 0)) {
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
	if dir == nil {
		p.objs = make(map[string]*[]picture.Object)
		p.routes = make([]route, 0, n)
	}
	slot := make(Tuple, 0, arity)
	locs := make([]locBytes, arity)
	// collect takes one live record's keys, items and objects.
	collect := func(id int64, body []byte) error {
		for _, i := range locCols {
			locs[i] = locBytes{}
		}
		t, err := decodeCols(body, need, slot, locs)
		if err != nil {
			return err
		}
		if len(t) != arity {
			return errTuple("%d columns, the schema has %d", len(t), arity)
		}
		for c, ci := range cis {
			p.runs[c] = append(p.runs[c], btree.Entry{Key: IndexKey(t[ci]), Value: id})
		}
		for _, i := range locCols {
			lb := locs[i]
			if lb.obj == nil {
				continue
			}
			obj, err := picture.DecodeObject(lb.obj)
			if err != nil {
				return err
			}
			if p.objs != nil {
				batch := p.objs[string(lb.pic)]
				if batch == nil {
					// The first picture gets room for every tuple: a
					// relation on one picture is the usual case.
					var objs []picture.Object
					if len(p.objs) == 0 {
						objs = make([]picture.Object, 0, n)
					}
					batch = &objs
					p.objs[string(lb.pic)] = batch
				}
				*batch = append(*batch, obj)
			}
			for pi, pic := range b.pics {
				if i == li && string(lb.pic) == pic.Name() {
					p.items[pi] = append(p.items[pi], rtree.Item{Rect: obj.MBR(), Data: id})
				}
			}
		}
		return nil
	}
	var scanErr error
	err := st.heap.Scan(func(lid storage.TupleID, rec []byte) bool {
		id, body, err := r.ids.unframe(lid, rec)
		if err == nil && dir != nil && !placedAt(dir, id, s, lid) {
			return true
		}
		if err == nil {
			err = collect(id, body)
		}
		if err != nil {
			scanErr = fmt.Errorf("tuple %v: %w", lid, err)
			return false
		}
		if dir == nil {
			p.routes = append(p.routes, route{id, lid})
		}
		return true
	})
	if err == nil {
		err = scanErr
	}
	if err != nil {
		return err
	}
	// Heap order is id order only until a freed slot is reused.
	for _, items := range p.items {
		slices.SortFunc(items, func(x, y rtree.Item) int { return cmp.Compare(x.Data, y.Data) })
	}
	return nil
}

// restoreObjects puts the objects a store's tuples carry into their
// pictures. A tuple naming a picture the catalog does not define, or two
// tuples carrying one object differently, is corruption.
func (r *Relation) restoreObjects(objs map[string]*[]picture.Object) error {
	names := make([]string, 0, len(objs))
	for name := range objs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		pic, ok := r.lookupPicture(name)
		if !ok {
			return fmt.Errorf("%w: a tuple names picture %q, which the catalog does not define", storage.ErrCorrupt, name)
		}
		if err := pic.Restore(*objs[name]...); err != nil {
			return fmt.Errorf("%w: %w", storage.ErrCorrupt, err)
		}
	}
	return nil
}

// adoptRoutes counts the records an open scan found into each store's
// live count and, for sequence ids, makes them the route table. A
// sequence stored twice, in one store or in two, is corruption.
func (r *Relation) adoptRoutes(parts []*scanPart) error {
	dir, seq := r.ids.(*seqIDs)
	for s, p := range parts {
		r.live[s] = int64(len(p.routes))
		for _, e := range p.routes {
			if !seq {
				break
			}
			if prev, _, dup := dir.resolve(e.id); dup {
				return fmt.Errorf("relation %s: %w: sequence %d stored in store %d and store %d", r.name, storage.ErrCorrupt, e.id, prev, s)
			}
			dir.publish(e.id, s, e.lid)
			if e.id >= dir.next.Load() {
				dir.next.Store(e.id + 1)
			}
		}
	}
	return nil
}
