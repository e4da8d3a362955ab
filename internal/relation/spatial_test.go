package relation

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/pager"
	"repro/internal/picture"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// newSpatialFixture builds a cities relation with n initial tuples and
// an attached picture, returning the tracked live coordinates by id.
func newSpatialFixture(t *testing.T, n int, seed int64) (*Relation, *picture.Picture, *rand.Rand) {
	t.Helper()
	p := pager.OpenMem(512)
	t.Cleanup(func() { p.Close() })
	pic := usMap()
	rel := New(p, "cities", citySchema(), catalogOf(pic))
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		addCity(t, rel, pic, randWord(rng), "ST", int64(i), rng.Float64()*1000, rng.Float64()*1000)
	}
	if err := rel.AttachPicture(pic, hilbertPack); err != nil {
		t.Fatal(err)
	}
	return rel, pic, rng
}

// oracleSearch recomputes a window query from the heap: the serial
// naive re-scan the merged read path must be bit-identical to.
func oracleSearch(t *testing.T, rel *Relation, pic *picture.Picture, window geom.Rect, pred func(obj, win geom.Rect) bool) []storage.TupleID {
	t.Helper()
	var out []storage.TupleID
	err := rel.Scan(func(id storage.TupleID, tu Tuple) bool {
		if rect, ok := locMBR(tu, pic); ok && pred(rect, window) {
			out = append(out, id)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	// Heap scan order is already canonical (page, slot) ascending.
	return out
}

// locMBR is the MBR of the object tu's loc on pic carries, the
// oracle's view of where it is.
func locMBR(tu Tuple, pic *picture.Picture) (geom.Rect, bool) {
	for _, v := range tu {
		if v.Type == TypeLoc && v.Loc.Picture == pic.Name() {
			return v.LocMBR()
		}
	}
	return geom.Rect{}, false
}

func idsEqual(a, b []storage.TupleID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestDeltaAbsorbsWrites(t *testing.T) {
	rel, pic, rng := newSpatialFixture(t, 100, 1)
	si := rel.Spatial("us-map")
	si.SetDeltaThreshold(math.MaxInt)
	packedBefore := si.PackedTree()
	if n := packedBefore.Len(); n != 100 {
		t.Fatalf("packed = %d items", n)
	}
	var fresh []storage.TupleID
	for i := 0; i < 40; i++ {
		fresh = append(fresh, addCity(t, rel, pic, randWord(rng), "ST", int64(i), rng.Float64()*1000, rng.Float64()*1000))
	}
	if si.PackedTree() != packedBefore || packedBefore.Len() != 100 {
		t.Fatal("delta writes mutated the packed tree")
	}
	if si.DeltaLen() != 40 || si.Len() != 140 {
		t.Fatalf("delta=%d live=%d", si.DeltaLen(), si.Len())
	}
	// Deleting a delta-resident tuple removes it directly: no tombstone.
	if err := rel.Delete(fresh[0]); err != nil {
		t.Fatal(err)
	}
	if si.TombstoneCount() != 0 || si.DeltaLen() != 39 {
		t.Fatalf("delta delete left tombs=%d delta=%d", si.TombstoneCount(), si.DeltaLen())
	}
	// Deleting a packed tuple tombstones it; the packed tree is untouched.
	var packedID storage.TupleID
	rel.Scan(func(id storage.TupleID, _ Tuple) bool { packedID = id; return false })
	if err := rel.Delete(packedID); err != nil {
		t.Fatal(err)
	}
	if si.TombstoneCount() != 1 || si.PackedTree().Len() != 100 {
		t.Fatalf("packed delete: tombs=%d packedLen=%d", si.TombstoneCount(), si.PackedTree().Len())
	}
	if si.Len() != 138 {
		t.Fatalf("live = %d, want 138", si.Len())
	}
	// Merged reads agree with the oracle, in canonical order.
	window := geom.R(0, 0, 1000, 1000)
	got, _, err := rel.SearchArea("us-map", window, geom.CoveredBy)
	if err != nil {
		t.Fatal(err)
	}
	want := oracleSearch(t, rel, pic, window, geom.CoveredBy)
	if !idsEqual(got, want) {
		t.Fatalf("merged search: got %d ids, oracle %d", len(got), len(want))
	}
	if err := si.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMergedSearchMatchesOracle(t *testing.T) {
	rel, pic, rng := newSpatialFixture(t, 200, 2)
	si := rel.Spatial("us-map")
	si.SetDeltaThreshold(math.MaxInt)
	var live []storage.TupleID
	rel.Scan(func(id storage.TupleID, _ Tuple) bool { live = append(live, id); return true })
	// Churn: inserts and deletes interleaved, delta and packed victims.
	for i := 0; i < 300; i++ {
		if rng.Intn(3) == 0 && len(live) > 0 {
			k := rng.Intn(len(live))
			if err := rel.Delete(live[k]); err != nil {
				t.Fatal(err)
			}
			live = append(live[:k], live[k+1:]...)
		} else {
			live = append(live, addCity(t, rel, pic, randWord(rng), "ST", int64(i), rng.Float64()*1000, rng.Float64()*1000))
		}
	}
	windows := []geom.Rect{
		geom.R(0, 0, 1000, 1000),
		geom.R(100, 100, 400, 500),
		geom.R(700, 20, 950, 800),
		geom.R(0, 0, 50, 50),
		geom.R(500, 500, 501, 501),
	}
	for _, w := range windows {
		want := oracleSearch(t, rel, pic, w, geom.Overlapping)
		got, _, err := rel.SearchArea("us-map", w, geom.Overlapping)
		if err != nil {
			t.Fatal(err)
		}
		if !idsEqual(got, want) {
			t.Fatalf("window %v: got %v want %v", w, got, want)
		}
	}
	// The batched form is identical.
	batches, _, err := rel.SearchAreaBatch("us-map", windows, geom.Overlapping, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range windows {
		want := oracleSearch(t, rel, pic, w, geom.Overlapping)
		if !idsEqual(batches[i], want) {
			t.Fatalf("window %d: got %d want %d ids", i, len(batches[i]), len(want))
		}
	}
}

func TestAutoRepack(t *testing.T) {
	rel, pic, rng := newSpatialFixture(t, 100, 3)
	si := rel.Spatial("us-map")
	si.SetDeltaThreshold(32)
	var live []storage.TupleID
	rel.Scan(func(id storage.TupleID, _ Tuple) bool { live = append(live, id); return true })
	for i := 0; i < 400; i++ {
		if rng.Intn(4) == 0 && len(live) > 0 {
			k := rng.Intn(len(live))
			if err := rel.Delete(live[k]); err != nil {
				t.Fatal(err)
			}
			live = append(live[:k], live[k+1:]...)
		} else {
			live = append(live, addCity(t, rel, pic, randWord(rng), "ST", int64(i), rng.Float64()*1000, rng.Float64()*1000))
		}
	}
	si.WaitRepack()
	if si.Repacks() == 0 {
		t.Fatal("no background repack ran")
	}
	if si.DeltaLen()+si.TombstoneCount() >= 2*32 {
		t.Fatalf("write side not drained: delta=%d tombs=%d", si.DeltaLen(), si.TombstoneCount())
	}
	if si.Len() != len(live) {
		t.Fatalf("live = %d, want %d", si.Len(), len(live))
	}
	if got, want := si.CostSnapshot().Stats, si.PackedTree().SearchMetrics(); got != want {
		t.Fatalf("stats not refreshed: %+v vs %+v", got, want)
	}
	w := geom.R(0, 0, 1000, 1000)
	got, _, err := rel.SearchArea("us-map", w, geom.CoveredBy)
	if err != nil {
		t.Fatal(err)
	}
	if want := oracleSearch(t, rel, pic, w, geom.CoveredBy); !idsEqual(got, want) {
		t.Fatalf("post-repack search: got %d want %d ids", len(got), len(want))
	}
	if err := si.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

// RepackNow drains the write side (inserts and a tombstone) into the
// packed tree without changing an answer, and refreshes what the planner
// prices.
func TestRepackNowDrainsWriteSide(t *testing.T) {
	rel, pic, rng := newSpatialFixture(t, 150, 4)
	si := rel.Spatial("us-map")
	si.SetDeltaThreshold(math.MaxInt)
	for i := 0; i < 80; i++ {
		addCity(t, rel, pic, randWord(rng), "ST", int64(i), rng.Float64()*1000, rng.Float64()*1000)
	}
	var victim storage.TupleID
	rel.Scan(func(id storage.TupleID, _ Tuple) bool { victim = id; return false })
	if err := rel.Delete(victim); err != nil {
		t.Fatal(err)
	}
	w := geom.R(0, 0, 1000, 1000)
	before, _, _ := rel.SearchArea("us-map", w, geom.CoveredBy)
	si.RepackNow(false)
	if si.DeltaLen() != 0 || si.TombstoneCount() != 0 {
		t.Fatalf("repack left delta=%d tombs=%d", si.DeltaLen(), si.TombstoneCount())
	}
	if si.PackedTree().Len() != si.Len() {
		t.Fatalf("packed %d != live %d", si.PackedTree().Len(), si.Len())
	}
	after, _, _ := rel.SearchArea("us-map", w, geom.CoveredBy)
	if !idsEqual(before, after) {
		t.Fatal("repack changed query results")
	}
	if got, want := si.CostSnapshot().Stats, si.PackedTree().SearchMetrics(); got != want {
		t.Fatalf("repack did not refresh stats: %+v vs %+v", got, want)
	}
}

// TestFrozenTombstoneFiltering pins the id-lifecycle corner of the
// mid-repack read: tombstones frozen with the write side (ts0) and
// tombstones taken after the freeze filter packed and frozen alike, and
// the swap retires exactly the ones the merge applied.
func TestFrozenTombstoneFiltering(t *testing.T) {
	si := newSpatialIndex(
		picture.New("p", geom.R(0, 0, 10, 10)),
		packTree([]rtree.Item{
			{Rect: geom.R(1, 1, 2, 2), Data: 1},
			{Rect: geom.R(3, 3, 4, 4), Data: 2},
			{Rect: geom.R(2, 2, 3, 3), Data: 6},
		}),
	)
	si.SetDeltaThreshold(math.MaxInt)
	liveIDs := func() []int64 {
		var h hits
		si.search([]geom.Rect{geom.R(0, 0, 10, 10)}, geom.Overlapping, &h)
		slices.Sort(h.ids)
		return h.ids
	}
	// Pre-freeze: ids 1 and 6 deleted (tombstones), ids 3,4 inserted.
	si.delete(geom.R(1, 1, 2, 2), 1)
	si.delete(geom.R(2, 2, 3, 3), 6)
	si.insert(geom.R(5, 5, 6, 6), 3)
	si.insert(geom.R(7, 7, 8, 8), 4)
	if !si.freeze() {
		t.Fatal("freeze found nothing to merge")
	}
	if got := liveIDs(); !reflect.DeepEqual(got, []int64{2, 3, 4}) {
		t.Fatalf("query after freeze = %v, want [2 3 4]", got)
	}
	// Post-freeze: id 2 (packed) and id 3 (frozen) deleted, id 5 born.
	si.delete(geom.R(3, 3, 4, 4), 2)
	si.delete(geom.R(5, 5, 6, 6), 3)
	si.insert(geom.R(9, 9, 10, 10), 5)

	if got := liveIDs(); !reflect.DeepEqual(got, []int64{4, 5}) {
		t.Fatalf("mid-repack query = %v, want [4 5]", got)
	}
	if si.Len() != 2 {
		t.Fatalf("Len = %d mid-repack, want 2", si.Len())
	}

	si.swap(si.packMerged())

	if got := liveIDs(); !reflect.DeepEqual(got, []int64{4, 5}) {
		t.Fatalf("post-swap query = %v, want [4 5]", got)
	}
	if si.Len() != 2 {
		t.Fatalf("Len = %d post-swap, want 2", si.Len())
	}
	if err := si.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

// addRegion inserts a tuple whose object is a square region, so join
// predicates that imply intersection still find matches.
func addRegion(t *testing.T, rel *Relation, pic *picture.Picture, name string, x, y, half float64) storage.TupleID {
	t.Helper()
	oid := pic.AddRegion(name, geom.Poly(
		geom.Pt(x-half, y-half), geom.Pt(x+half, y-half),
		geom.Pt(x+half, y+half), geom.Pt(x-half, y+half),
	))
	id, err := rel.Insert(Tuple{S(name), S("ST"), I(0), L(pic.Name(), oid)})
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func TestJuxtaposeMergedMatchesOracle(t *testing.T) {
	p := pager.OpenMem(512)
	t.Cleanup(func() { p.Close() })
	mk := func(name string, n int, seed int64) (*Relation, *picture.Picture) {
		pic := usMap()
		rel := New(p, name, citySchema(), catalogOf(pic))
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < n; i++ {
			addRegion(t, rel, pic, randWord(rng), rng.Float64()*1000, rng.Float64()*1000, 20+rng.Float64()*40)
		}
		if err := rel.AttachPicture(pic, hilbertPack); err != nil {
			t.Fatal(err)
		}
		// Post-attach churn so both sides carry deltas and tombstones.
		var ids []storage.TupleID
		rel.Scan(func(id storage.TupleID, _ Tuple) bool { ids = append(ids, id); return true })
		rel.Spatial("us-map").SetDeltaThreshold(math.MaxInt)
		for i := 0; i < n/2; i++ {
			if rng.Intn(3) == 0 && len(ids) > 0 {
				k := rng.Intn(len(ids))
				if err := rel.Delete(ids[k]); err != nil {
					t.Fatal(err)
				}
				ids = append(ids[:k], ids[k+1:]...)
			} else {
				addRegion(t, rel, pic, randWord(rng), rng.Float64()*1000, rng.Float64()*1000, 20+rng.Float64()*40)
			}
		}
		return rel, pic
	}
	relA, picA := mk("a", 120, 10)
	relB, picB := mk("b", 90, 11)

	// Oracle: nested loop over live heap items. Overlapping implies
	// intersection, so the tree path may prune disjoint subtree pairs.
	pred := geom.Overlapping
	type pr struct{ a, b storage.TupleID }
	var want []pr
	relA.Scan(func(ida storage.TupleID, ta Tuple) bool {
		ra, ok := locMBR(ta, picA)
		if !ok {
			return true
		}
		relB.Scan(func(idb storage.TupleID, tb Tuple) bool {
			rb, ok := locMBR(tb, picB)
			if ok && pred(ra, rb) {
				want = append(want, pr{ida, idb})
			}
			return true
		})
		return true
	})
	if len(want) == 0 {
		t.Fatal("oracle found no pairs; widen the predicate")
	}
	got, _, err := relA.JuxtaposeSpatial("us-map", relB, "us-map", pred, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d pairs, oracle %d", len(got), len(want))
	}
	for i := range got {
		if got[i].A != want[i].a || got[i].B != want[i].b {
			t.Fatalf("pair %d = %v/%v, want %v/%v", i, got[i].A, got[i].B, want[i].a, want[i].b)
		}
	}
}

// TestConcurrentWritersReaders is the -race stress test: one writer
// mutates the delta and every other round repacks the index inline
// (RepackNow) while readers run merged batch searches and
// juxtapositions; at quiesce barriers the merged results must be
// bit-identical (rows and order) to a serial oracle re-scan.
func TestConcurrentWritersReaders(t *testing.T) {
	rel, pic, rng := newSpatialFixture(t, 300, 5)
	si := rel.Spatial("us-map")
	si.SetDeltaThreshold(64) // keep background repacks churning
	windows := []geom.Rect{
		geom.R(0, 0, 1000, 1000),
		geom.R(50, 50, 450, 450),
		geom.R(600, 100, 900, 950),
		geom.R(10, 700, 300, 990),
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 3; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				batches, _, err := rel.SearchAreaBatch("us-map", windows, geom.Overlapping, 0)
				if err != nil {
					t.Error(err)
					return
				}
				for _, ids := range batches {
					for i := 1; i < len(ids); i++ {
						if !tupleIDLessT(ids[i-1], ids[i]) {
							t.Errorf("reader %d: ids not strictly ascending", g)
							return
						}
					}
				}
				// Self-join exercises the merged juxtaposition under the
				// same churn.
				if _, _, err := rel.JuxtaposeSpatial("us-map", rel, "us-map", geom.Overlapping, 0); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}

	var live []storage.TupleID
	rel.Scan(func(id storage.TupleID, _ Tuple) bool { live = append(live, id); return true })
	next := 0
	for round := 0; round < 8; round++ {
		for i := 0; i < 80; i++ {
			if rng.Intn(4) == 0 && len(live) > 0 {
				k := rng.Intn(len(live))
				if err := rel.Delete(live[k]); err != nil {
					t.Fatal(err)
				}
				live = append(live[:k], live[k+1:]...)
			} else {
				live = append(live, addCity(t, rel, pic, randWord(rng), "ST", int64(next), rng.Float64()*1000, rng.Float64()*1000))
				next++
			}
		}
		// Quiesce barrier: the writer is idle here, so the merged view
		// is stable (background repacks preserve it) and must equal the
		// serial oracle bit-for-bit.
		batches, _, err := rel.SearchAreaBatch("us-map", windows, geom.Overlapping, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range windows {
			want := oracleSearch(t, rel, pic, w, geom.Overlapping)
			if !idsEqual(batches[i], want) {
				t.Fatalf("round %d window %d: merged %d ids, oracle %d",
					round, i, len(batches[i]), len(want))
			}
		}
		if round%2 == 1 {
			// An explicit repack under the readers: the next round's
			// barrier checks the repacked index against the oracle.
			si.RepackNow(false)
		}
	}
	close(stop)
	readers.Wait()
	si.WaitRepack()
	if err := si.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	if si.Len() != len(live) {
		t.Fatalf("live = %d, tracker %d", si.Len(), len(live))
	}
	t.Logf("stress: %d repacks, %d live, delta=%d tombs=%d",
		si.Repacks(), si.Len(), si.DeltaLen(), si.TombstoneCount())
}

// tupleIDLessT mirrors the psql planner's canonical order for test
// assertions.
func tupleIDLessT(a, b storage.TupleID) bool {
	if a.Page != b.Page {
		return a.Page < b.Page
	}
	return a.Slot < b.Slot
}

func TestCostSnapshot(t *testing.T) {
	rel, pic, rng := newSpatialFixture(t, 100, 6)
	si := rel.Spatial("us-map")
	si.SetDeltaThreshold(math.MaxInt)
	snap := si.CostSnapshot()
	if snap.DeltaItems != 0 || snap.Tombstones != 0 {
		t.Fatalf("fresh snapshot not clean: %+v", snap)
	}
	for i := 0; i < 20; i++ {
		addCity(t, rel, pic, randWord(rng), "ST", int64(i), rng.Float64()*1000, rng.Float64()*1000)
	}
	var victim storage.TupleID
	rel.Scan(func(id storage.TupleID, _ Tuple) bool { victim = id; return false })
	if err := rel.Delete(victim); err != nil {
		t.Fatal(err)
	}
	snap = si.CostSnapshot()
	// The 20 inserts sit in the delta tree from the moment they are
	// written, so a merged read pays for its nodes at once.
	if snap.DeltaItems != 20 || snap.DeltaNodes < 1 || snap.Tombstones != 1 {
		t.Fatalf("delta snapshot: %+v", snap)
	}
	// Repack clears everything.
	si.RepackNow(false)
	snap = si.CostSnapshot()
	if snap.DeltaItems != 0 || snap.Tombstones != 0 {
		t.Fatalf("post-repack snapshot: %+v", snap)
	}
}

// TestWriteSideGoroutines is the leak check on the write side's
// background work. With auto-repack on, inserts and deletes below the
// threshold run entirely on the writer's goroutine; crossing it starts
// one goroutine, the repacker, which WaitRepack drains. Its PACK runs
// on that goroutine: nothing else starts.
func TestWriteSideGoroutines(t *testing.T) {
	rel, pic, rng := newSpatialFixture(t, 100, 9)
	si := rel.Spatial("us-map")
	si.SetDeltaThreshold(1000)
	write := func(n int) []storage.TupleID {
		ids := make([]storage.TupleID, n)
		for i := range ids {
			ids[i] = addCity(t, rel, pic, randWord(rng), "ST", int64(i), rng.Float64()*1000, rng.Float64()*1000)
		}
		return ids
	}
	before := runtime.NumGoroutine()
	for _, id := range write(600)[:100] {
		if err := rel.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines after sub-threshold writes, %d before", n, before)
	}
	if si.Repacks() != 0 || si.DeltaLen() != 500 {
		t.Fatalf("sub-threshold writes: repacks=%d delta=%d", si.Repacks(), si.DeltaLen())
	}
	write(500)
	if n, most := runtime.NumGoroutine(), before+1; n > most {
		t.Fatalf("%d goroutines after crossing the threshold, want at most %d", n, most)
	}
	si.WaitRepack()
	if si.Repacks() != 1 || si.DeltaLen() != 0 || si.Len() != 1100 {
		t.Fatalf("after WaitRepack: repacks=%d delta=%d live=%d", si.Repacks(), si.DeltaLen(), si.Len())
	}
	// WaitRepack returns at the repacker's wg.Done; give the goroutine
	// its last few instructions to exit.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after WaitRepack, %d before the writes", runtime.NumGoroutine(), before)
		}
	}
}
