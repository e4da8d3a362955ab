package relation

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"repro/internal/btree"
	"repro/internal/pack"
	"repro/internal/par"
	"repro/internal/picture"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// This file is the one routine that derives a relation's indexes from
// its heaps. CreateIndex, AttachPicture, RepackPicture and the catalog
// reload all run it: one scan of every store's heap, side by side,
// collects each B-tree's (key, id) run and each
// picture's (object, id) list; then every index is its own task on up
// to GOMAXPROCS goroutines — a run is sorted and bulk-loaded, a list
// resolved against its picture and packed. On one core the tasks run
// one after another, B-trees first.

// nowFn is the clock the build phases are timed with; tests replace it.
var nowFn = time.Now

// PictureSpec names a picture to attach and the options to pack its
// index with.
type PictureSpec struct {
	Picture *picture.Picture
	Opts    pack.Options
}

// BuildTimes is where an index build spent its time, summed over its
// tasks: goroutine time, not elapsed time, once tasks overlap.
type BuildTimes struct {
	Scan    time.Duration // heap scan and column decode
	BTree   time.Duration // sorting the runs and bulk-loading them
	Pack    time.Duration // resolving loc pointers and PACK
	Metrics time.Duration // the packed trees' search metrics
}

// Add sums u into t.
func (t *BuildTimes) Add(u BuildTimes) {
	t.Scan += u.Scan
	t.BTree += u.BTree
	t.Pack += u.Pack
	t.Metrics += u.Metrics
}

// locRef is one tuple's pointer into a picture: the object its loc
// column names and the tuple's id.
type locRef struct {
	obj picture.ObjectID
	id  int64
}

// scanPart is what the scan of one store's heap collected: runs[c]
// holds columns[c]'s (IndexKey, id) for every tuple, refs[p] the
// pointers into pics[p] in ascending id order, the order PACK is handed
// them.
type scanPart struct {
	runs [][]btree.Entry
	refs [][]locRef
}

// indexBuild is one scan of the relation for the indexes being built:
// a part per store.
type indexBuild struct {
	r       *Relation
	columns []string
	pics    []PictureSpec
	parts   []*scanPart
}

// BuildIndexes builds B-trees over columns and attaches pics, all from
// one scan of the heap. The scan and the B-trees need only the tuples;
// resolving a loc pointer needs its picture's objects, and a caller
// still loading those passes ready: it is called after the scan, before
// the first pointer is resolved (from every goroutine about to resolve
// one), blocks until the objects are in place, and by returning an
// error abandons the build with that error. Nothing is attached to the
// relation unless every index was built. An index covers the tuples its
// scan saw: a caller who needs it complete keeps writers out until
// BuildIndexes returns.
func (r *Relation) BuildIndexes(columns []string, pics []PictureSpec, ready func() error) (BuildTimes, error) {
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
	for i, ps := range pics {
		name := ps.Picture.Name()
		dup := r.HasSpatial(name)
		for _, prev := range pics[:i] {
			dup = dup || prev.Picture.Name() == name
		}
		if dup {
			return times, fmt.Errorf("relation %s: picture %q already attached", r.name, name)
		}
	}
	if len(columns) == 0 && len(pics) == 0 {
		return times, nil
	}
	b := &indexBuild{r: r, columns: columns, pics: pics}
	t0 := nowFn()
	err := b.scan()
	times.Scan = nowFn().Sub(t0)
	if err != nil {
		return times, err
	}

	// B-trees first: they can start at once, and a picture's task may
	// hold its goroutine waiting in ready.
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
	for p, ps := range pics {
		sis[p] = make([]*SpatialIndex, len(b.parts))
		for s := range sis[p] {
			tasks = append(tasks, func() (BuildTimes, error) {
				if ready != nil {
					if err := ready(); err != nil {
						return BuildTimes{}, err
					}
				}
				t0 := nowFn()
				tree := pack.Tree(rtree.DefaultParams(), b.items(p, s), ps.Opts)
				t1 := nowFn()
				sis[p][s] = newSpatialIndex(ps.Picture, tree, ps.Opts)
				return BuildTimes{Pack: t1.Sub(t0), Metrics: nowFn().Sub(t1)}, nil
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
	for p, ps := range pics {
		for _, si := range sis[p] {
			si.costGen = &r.costGen
		}
		r.spatial[ps.Picture.Name()] = sis[p]
	}
	r.gen.Add(1)
	r.costGen.Add(1)
	return times, nil
}

// scan fills parts from every store's heap, each walked under its lock
// beside the others. A record counts when the id directory places it
// where it was found (placedAt).
func (b *indexBuild) scan() error {
	r := b.r
	need := make([]bool, r.schema.Arity())
	cis := make([]int, len(b.columns))
	for c, col := range b.columns {
		cis[c] = r.schema.ColumnIndex(col)
		need[cis[c]] = true
	}
	li := r.schema.LocColumn()
	if len(b.pics) > 0 {
		need[li] = true
	}
	r.smu.RLock()
	dir := r.ids.snapshot()
	r.smu.RUnlock()
	b.parts = make([]*scanPart, len(r.stores))
	return par.Do(len(r.stores), 0, func(s int) error {
		st := r.stores[s]
		p := &scanPart{runs: make([][]btree.Entry, len(b.columns)), refs: make([][]locRef, len(b.pics))}
		b.parts[s] = p
		st.mu.RLock()
		defer st.mu.RUnlock()
		for c := range p.runs {
			p.runs[c] = make([]btree.Entry, 0, st.heap.Len())
		}
		var scanErr error
		err := st.heap.Scan(func(lid storage.TupleID, rec []byte) bool {
			id, payload, err := dir.unframe(lid, rec)
			if err == nil {
				if !placedAt(dir, id, s, lid) {
					return true
				}
				var t Tuple
				if t, err = DecodeTupleCols(payload, need); err == nil {
					for c, ci := range cis {
						p.runs[c] = append(p.runs[c], btree.Entry{Key: IndexKey(t[ci]), Value: id})
					}
					for pi, ps := range b.pics {
						if ref := t[li].Loc; ref.Picture == ps.Picture.Name() {
							p.refs[pi] = append(p.refs[pi], locRef{obj: ref.Object, id: id})
						}
					}
					return true
				}
			}
			scanErr = fmt.Errorf("tuple %v: %w", lid, err)
			return false
		})
		if err == nil {
			err = scanErr
		}
		if err != nil {
			return r.storeErr(s, err)
		}
		// Ascending id is heap order only while no freed slot has been
		// reused (and, for sequence ids, at all only within one store).
		for _, refs := range p.refs {
			slices.SortFunc(refs, func(x, y locRef) int { return cmp.Compare(x.id, y.id) })
		}
		return nil
	})
}

// items resolves picture p's pointers in store s to (MBR, id) entries,
// under one read lock of the picture. A pointer whose object is gone is
// left out, as a tuple's loc that resolves to nothing always was.
func (b *indexBuild) items(p, s int) []rtree.Item {
	refs := b.parts[s].refs[p]
	ids := make([]picture.ObjectID, len(refs))
	for i, ref := range refs {
		ids[i] = ref.obj
	}
	rects, ok := b.pics[p].Picture.MBRs(ids)
	items := make([]rtree.Item, 0, len(refs))
	for i, ref := range refs {
		if ok[i] {
			items = append(items, rtree.Item{Rect: rects[i], Data: ref.id})
		}
	}
	return items
}
