package relation

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/btree"
	"repro/internal/geom"
	"repro/internal/pager"
	"repro/internal/picture"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// buildFixture fills a relation with n cities spread over two pictures,
// over a heap of one chain (chains == 0) or reopened over a heap of that
// many chains (reopenChained), then deletes every seventh so that the
// heap holds dead slots, which later inserts never take, and adds n/5
// more and one tuple at (1, 1) after them.
func buildFixture(t *testing.T, chains, n int) (*Relation, [2]*picture.Picture) {
	t.Helper()
	pics := [2]*picture.Picture{
		usMap(),
		picture.New("rail-map", geom.R(0, 0, 1000, 1000)),
	}
	p := pager.OpenMem(512)
	t.Cleanup(func() { p.Close() })
	rel := New(p, "cities", citySchema(), catalogOf(pics[:]...))
	rng := rand.New(rand.NewSource(int64(31 + chains)))
	var ids []storage.TupleID
	add := func(i int) {
		pic := pics[i%2]
		ids = append(ids, addCity(t, rel, pic, fmt.Sprintf("c%04d", i), fmt.Sprintf("S%d", i%9), int64(rng.Intn(50)), rng.Float64()*1000, rng.Float64()*1000))
	}
	for i := 0; i < n; i++ {
		add(i)
	}
	if chains > 0 {
		var moved map[storage.TupleID]storage.TupleID
		rel, moved = reopenChained(t, rel, chains)
		for i, id := range ids {
			ids[i] = moved[id]
		}
	}
	for i := 0; i < n; i += 7 {
		if err := rel.Delete(ids[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := n; i < n+n/5; i++ {
		add(i)
	}
	last := pics[0].AddPoint("last", geom.Pt(1, 1))
	if _, err := rel.Insert(Tuple{S("last"), S("S0"), I(1), L("us-map", last)}); err != nil {
		t.Fatal(err)
	}
	return rel, pics
}

func indexStream(rel *Relation, col string) []btree.Entry {
	var out []btree.Entry
	rel.Index(col).Ascend(func(k []byte, v btree.Value) bool {
		out = append(out, btree.Entry{Key: k, Value: v})
		return true
	})
	return out
}

// One BuildIndexes call over two columns and two pictures builds what
// the four separate calls build, over a heap of one chain and reopened
// over heaps of one and of four (the subtests' shard count is the chain
// count), and each B-tree comes out in (key, id) order.
func TestBuildIndexesMatchesSeparateCalls(t *testing.T) {
	for _, shards := range []int{0, 1, 4} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			one, picsOne := buildFixture(t, shards, 600)
			sep, picsSep := buildFixture(t, shards, 600)
			times, err := one.BuildIndexes([]string{"state", "population"}, picsOne[:])
			if err != nil {
				t.Fatal(err)
			}
			if times.Scan <= 0 || times.BTree <= 0 || times.Pack <= 0 {
				t.Fatalf("a phase went untimed: %+v", times)
			}
			for _, col := range []string{"state", "population"} {
				if err := sep.CreateIndex(col); err != nil {
					t.Fatal(err)
				}
			}
			if err := sep.AttachPicture(picsSep[0], hilbertPack); err != nil {
				t.Fatal(err)
			}
			if err := sep.AttachPicture(picsSep[1], hilbertPack); err != nil {
				t.Fatal(err)
			}
			for _, col := range []string{"state", "population"} {
				got, want := indexStream(one, col), indexStream(sep, col)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("index %q differs between one build and separate builds", col)
				}
				for i := 1; i < len(got); i++ {
					if btree.CompareEntries(got[i-1], got[i]) >= 0 {
						t.Fatalf("index %q not in (key, id) order at %d", col, i)
					}
				}
				if len(got) != one.Len() {
					t.Fatalf("index %q holds %d entries, relation %d tuples", col, len(got), one.Len())
				}
			}
			for _, name := range []string{"us-map", "rail-map"} {
				a, b := one.Spatial(name), sep.Spatial(name)
				if !reflect.DeepEqual(a.PackedTree().Items(), b.PackedTree().Items()) {
					t.Fatalf("%s: packed items differ", name)
				}
				sa, sb := a.CostSnapshot().Stats, b.CostSnapshot().Stats
				if sa != sb || sa != a.PackedTree().SearchMetrics() {
					t.Fatalf("%s: stats %+v / %+v", name, sa, sb)
				}
			}
			if err := one.Check(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// The tree is packed from its items in ascending id order, the order
// of a scan, also over a heap of four chains whose pages interleave. The
// reference walks the relation and packs the objects the tuples carry.
func TestBuildIndexesShardItemOrder(t *testing.T) {
	rel, pics := buildFixture(t, 4, 900)
	if err := rel.AttachPicture(pics[0], hilbertPack); err != nil {
		t.Fatal(err)
	}
	var want []rtree.Item
	var scanned []storage.TupleID
	err := rel.Scan(func(id storage.TupleID, tu Tuple) bool {
		scanned = append(scanned, id)
		if tu[3].Loc.Picture != pics[0].Name() {
			return true
		}
		body, err := rel.heap.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		cols, err := walk(body, nil)
		if err != nil {
			t.Fatal(err)
		}
		_, enc, ok := cols[3].loc(body)
		if !ok {
			t.Fatalf("tuple %v: its loc carries no object", id)
		}
		obj, err := picture.DecodeObject(enc)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, rtree.Item{Rect: obj.MBR(), Data: id.Int64()})
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if pages, err := rel.HeapPages(); err != nil || slices.IsSorted(pages) {
		t.Fatalf("the chains' pages %v do not interleave: %v", pages, err)
	}
	if !slices.IsSortedFunc(scanned, storage.TupleID.Compare) {
		t.Fatal("the scan does not deliver id order")
	}
	if !reflect.DeepEqual(rel.Spatial("us-map").PackedTree().Items(), packTree(want).Items()) {
		t.Fatal("the tree differs from one packed in id order")
	}
}

func TestBuildIndexesRejects(t *testing.T) {
	rel, pics := buildFixture(t, 0, 50)
	if err := rel.CreateIndex("state"); err != nil {
		t.Fatal(err)
	}
	if err := rel.AttachPicture(pics[1], hilbertPack); err != nil {
		t.Fatal(err)
	}
	for name, call := range map[string]func() error{
		"unknown column":   func() error { _, err := rel.BuildIndexes([]string{"nope"}, nil); return err },
		"loc column":       func() error { _, err := rel.BuildIndexes([]string{"loc"}, nil); return err },
		"indexed column":   func() error { _, err := rel.BuildIndexes([]string{"state"}, nil); return err },
		"column twice":     func() error { _, err := rel.BuildIndexes([]string{"city", "city"}, nil); return err },
		"attached picture": func() error { _, err := rel.BuildIndexes(nil, pics[1:]); return err },
		"picture twice": func() error {
			_, err := rel.BuildIndexes(nil, []*picture.Picture{pics[0], pics[0]})
			return err
		},
		"bad beside good": func() error { _, err := rel.BuildIndexes([]string{"city", "nope"}, nil); return err },
	} {
		if err := call(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if rel.Index("city") != nil || rel.HasSpatial("us-map") {
		t.Fatal("a rejected build attached an index")
	}
	p := pager.OpenMem(16)
	defer p.Close()
	flat := New(p, "flat", MustSchema("k:int"), nil)
	if err := flat.AttachPicture(pics[0], hilbertPack); err == nil {
		t.Fatal("picture attached to a schema without a loc column")
	}
}

// The phases are timed through nowFn: with a clock that advances one
// millisecond per reading, the scan (two readings on one goroutine,
// nothing else running) lasts exactly that, and every task at least
// that.
func TestBuildTimesClockSeam(t *testing.T) {
	var ticks atomic.Int64
	epoch := time.Unix(0, 0)
	nowFn = func() time.Time { return epoch.Add(time.Duration(ticks.Add(1)) * time.Millisecond) }
	defer func() { nowFn = time.Now }()
	rel, pics := buildFixture(t, 0, 100)
	times, err := rel.BuildIndexes([]string{"state", "city"}, pics[:1])
	if err != nil {
		t.Fatal(err)
	}
	if times.Scan != time.Millisecond {
		t.Fatalf("Scan = %v, want 1ms", times.Scan)
	}
	if times.BTree < 2*time.Millisecond || times.Pack < time.Millisecond {
		t.Fatalf("task times %+v", times)
	}
	if n := ticks.Load(); n != 2+3*2 {
		t.Fatalf("clock read %d times, want 8", n)
	}
}
