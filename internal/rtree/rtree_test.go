package rtree

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

// uniformItems generates n random point items in [0,1000]^2, the
// paper's workload.
func uniformItems(n int, seed int64) []Item {
	rng := rand.New(rand.NewSource(seed))
	items := make([]Item, n)
	for i := range items {
		p := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		items[i] = Item{Rect: p.Rect(), Data: int64(i)}
	}
	return items
}

// uniformRectItems generates n random small rectangles in [0,1000]^2.
func uniformRectItems(n int, seed int64) []Item {
	rng := rand.New(rand.NewSource(seed))
	items := make([]Item, n)
	for i := range items {
		x, y := rng.Float64()*950, rng.Float64()*950
		w, h := rng.Float64()*50, rng.Float64()*50
		items[i] = Item{Rect: geom.R(x, y, x+w, y+h), Data: int64(i)}
	}
	return items
}

// bruteSearch is the oracle: all items intersecting window.
func bruteSearch(items []Item, window geom.Rect) map[int64]bool {
	out := make(map[int64]bool)
	for _, it := range items {
		if it.Rect.Intersects(window) {
			out[it.Data] = true
		}
	}
	return out
}

func insertAll(t *Tree, items []Item) {
	for _, it := range items {
		t.InsertItem(it)
	}
}

func TestEmptyTree(t *testing.T) {
	tr := New(DefaultParams())
	if tr.Len() != 0 || tr.Depth() != 0 || tr.NodeCount() != 1 {
		t.Fatalf("empty tree: len=%d depth=%d nodes=%d", tr.Len(), tr.Depth(), tr.NodeCount())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	items, visited := tr.Query(geom.R(0, 0, 1000, 1000))
	if len(items) != 0 || visited != 1 {
		t.Fatalf("query on empty tree: %d items, %d visited", len(items), visited)
	}
	if !tr.Bounds().IsEmpty() {
		t.Fatal("empty tree bounds should be empty")
	}
}

func TestNewValidatesParams(t *testing.T) {
	bad := []Params{
		{Max: 1, Min: 1},
		{Max: 4, Min: 0},
		{Max: 4, Min: 3}, // m > M/2
	}
	for _, p := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) should panic", p)
				}
			}()
			New(p)
		}()
	}
}

func TestInsertSingle(t *testing.T) {
	tr := New(DefaultParams())
	tr.Insert(geom.R(10, 10, 20, 20), 7)
	if tr.Len() != 1 || tr.Depth() != 0 {
		t.Fatalf("len=%d depth=%d", tr.Len(), tr.Depth())
	}
	got, _ := tr.Query(geom.R(0, 0, 100, 100))
	if len(got) != 1 || got[0].Data != 7 {
		t.Fatalf("query = %v", got)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertGrowsTree(t *testing.T) {
	tr := New(DefaultParams())
	items := uniformItems(100, 1)
	insertAll(tr, items)
	if tr.Len() != 100 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if tr.Depth() < 2 {
		t.Fatalf("Depth = %d, expected >= 2 for 100 items with M=4", tr.Depth())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSearchMatchesBruteForce(t *testing.T) {
	for _, split := range []SplitKind{SplitQuadratic, SplitLinear, SplitExhaustive} {
		t.Run(split.String(), func(t *testing.T) {
			tr := New(Params{Max: 4, Min: 2, Split: split})
			items := uniformRectItems(300, 2)
			insertAll(tr, items)
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(3))
			for q := 0; q < 50; q++ {
				w := geom.WindowAt(rng.Float64()*1000, rng.Float64()*100, rng.Float64()*1000, rng.Float64()*100)
				want := bruteSearch(items, w)
				got, _ := tr.Query(w)
				if len(got) != len(want) {
					t.Fatalf("query %v: got %d items, want %d", w, len(got), len(want))
				}
				for _, it := range got {
					if !want[it.Data] {
						t.Fatalf("query %v returned unexpected item %d", w, it.Data)
					}
				}
			}
		})
	}
}

func TestSearchEarlyStop(t *testing.T) {
	tr := New(DefaultParams())
	insertAll(tr, uniformItems(200, 4))
	count := 0
	tr.Search(geom.R(0, 0, 1000, 1000), func(Item) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Fatalf("early stop visited %d items, want 5", count)
	}
}

func TestContainsPoint(t *testing.T) {
	tr := New(DefaultParams())
	items := uniformItems(500, 5)
	insertAll(tr, items)
	// Every stored point must be found.
	for _, it := range items[:50] {
		found, visited := tr.ContainsPoint(it.Rect.Min)
		if !found {
			t.Fatalf("stored point %v not found", it.Rect.Min)
		}
		if visited < 1 {
			t.Fatalf("visited = %d", visited)
		}
	}
	// A point far outside is not found.
	if found, _ := tr.ContainsPoint(geom.Pt(-500, -500)); found {
		t.Fatal("found a point that was never inserted")
	}
}

func TestItemsReturnsAll(t *testing.T) {
	tr := New(DefaultParams())
	items := uniformItems(137, 6)
	insertAll(tr, items)
	got := tr.Items()
	if len(got) != len(items) {
		t.Fatalf("Items returned %d, want %d", len(got), len(items))
	}
	seen := make(map[int64]bool)
	for _, it := range got {
		seen[it.Data] = true
	}
	for _, it := range items {
		if !seen[it.Data] {
			t.Fatalf("item %d missing from Items()", it.Data)
		}
	}
}

func TestDeleteBasic(t *testing.T) {
	tr := New(DefaultParams())
	items := uniformItems(50, 7)
	insertAll(tr, items)
	if !tr.Delete(items[13].Rect, items[13].Data) {
		t.Fatal("delete of existing item failed")
	}
	if tr.Delete(items[13].Rect, items[13].Data) {
		t.Fatal("second delete of same item should fail")
	}
	if tr.Len() != 49 {
		t.Fatalf("Len = %d, want 49", tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	found, _ := tr.ContainsPoint(items[13].Rect.Min)
	// The point may coincide with another random point; verify via query payloads.
	got, _ := tr.Query(items[13].Rect)
	for _, it := range got {
		if it.Data == items[13].Data {
			t.Fatal("deleted item still present")
		}
	}
	_ = found
}

func TestDeleteAllThenReuse(t *testing.T) {
	for _, split := range []SplitKind{SplitQuadratic, SplitLinear, SplitExhaustive} {
		t.Run(split.String(), func(t *testing.T) {
			tr := New(Params{Max: 4, Min: 2, Split: split})
			items := uniformItems(120, 8)
			insertAll(tr, items)
			// Delete in a scrambled order, verifying invariants as the
			// tree condenses.
			order := rand.New(rand.NewSource(9)).Perm(len(items))
			for k, idx := range order {
				if !tr.Delete(items[idx].Rect, items[idx].Data) {
					t.Fatalf("delete %d failed", idx)
				}
				if k%10 == 0 {
					if err := tr.CheckInvariants(); err != nil {
						t.Fatalf("after %d deletes: %v", k+1, err)
					}
				}
			}
			if tr.Len() != 0 || tr.Depth() != 0 {
				t.Fatalf("after deleting all: len=%d depth=%d", tr.Len(), tr.Depth())
			}
			// The tree must be fully reusable.
			insertAll(tr, items[:30])
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if tr.Len() != 30 {
				t.Fatalf("Len after reuse = %d", tr.Len())
			}
		})
	}
}

func TestDeleteNonexistent(t *testing.T) {
	tr := New(DefaultParams())
	insertAll(tr, uniformItems(40, 10))
	if tr.Delete(geom.R(2000, 2000, 2001, 2001), 999) {
		t.Fatal("delete of never-inserted rect succeeded")
	}
	// Same rect as an existing item but wrong data pointer.
	items := tr.Items()
	if tr.Delete(items[0].Rect, -12345) {
		t.Fatal("delete with wrong data pointer succeeded")
	}
	if tr.Len() != 40 {
		t.Fatalf("Len changed to %d", tr.Len())
	}
}

func TestDuplicateItems(t *testing.T) {
	tr := New(DefaultParams())
	r := geom.R(5, 5, 6, 6)
	for i := 0; i < 10; i++ {
		tr.Insert(r, int64(i))
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	got, _ := tr.Query(r)
	if len(got) != 10 {
		t.Fatalf("found %d duplicates, want 10", len(got))
	}
	// Delete a specific duplicate by data pointer.
	if !tr.Delete(r, 7) {
		t.Fatal("failed to delete duplicate 7")
	}
	got, _ = tr.Query(r)
	if len(got) != 9 {
		t.Fatalf("found %d after delete, want 9", len(got))
	}
	for _, it := range got {
		if it.Data == 7 {
			t.Fatal("deleted duplicate still present")
		}
	}
}

func TestLargerBranchingFactors(t *testing.T) {
	for _, max := range []int{8, 16, 64} {
		tr := New(Params{Max: max, Min: max / 2, Split: SplitQuadratic})
		items := uniformItems(500, int64(max))
		insertAll(tr, items)
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("M=%d: %v", max, err)
		}
		w := geom.R(100, 100, 300, 300)
		want := bruteSearch(items, w)
		got, _ := tr.Query(w)
		if len(got) != len(want) {
			t.Fatalf("M=%d: got %d, want %d", max, len(got), len(want))
		}
	}
}

func TestMetrics(t *testing.T) {
	tr := New(DefaultParams())
	items := uniformItems(200, 11)
	insertAll(tr, items)
	m := tr.ComputeMetrics()
	if m.Items != 200 {
		t.Errorf("Items = %d", m.Items)
	}
	if m.Nodes != tr.NodeCount() || m.Depth != tr.Depth() {
		t.Errorf("metrics inconsistent with tree accessors")
	}
	if m.Leaves != tr.LeafCount() {
		t.Errorf("Leaves = %d, want %d", m.Leaves, tr.LeafCount())
	}
	if m.Coverage <= 0 {
		t.Errorf("Coverage = %g", m.Coverage)
	}
	if m.OverlapMeasure > m.Overlap+1e-9 {
		t.Errorf("set-measure overlap %g exceeds pairwise %g", m.OverlapMeasure, m.Overlap)
	}
	if m.DeadSpace < -1e-9 {
		t.Errorf("DeadSpace = %g", m.DeadSpace)
	}
	// Leaf MBRs of a valid tree all lie within the tree bounds.
	bounds := tr.Bounds()
	for _, r := range tr.LeafRects() {
		if !bounds.Contains(r) {
			t.Errorf("leaf rect %v outside bounds %v", r, bounds)
		}
	}
}

func TestLevelRects(t *testing.T) {
	tr := New(DefaultParams())
	insertAll(tr, uniformItems(100, 12))
	levels := tr.LevelRects()
	if len(levels) != tr.Depth()+1 {
		t.Fatalf("levels = %d, want depth+1 = %d", len(levels), tr.Depth()+1)
	}
	if len(levels[0]) != 1 {
		t.Fatalf("root level has %d rects", len(levels[0]))
	}
	if len(levels[len(levels)-1]) != tr.LeafCount() {
		t.Fatalf("leaf level has %d rects, want %d", len(levels[len(levels)-1]), tr.LeafCount())
	}
	// Each level's union is contained in the level above's union.
	for i := 1; i < len(levels); i++ {
		upper := geom.MBRRects(levels[i-1]...)
		lower := geom.MBRRects(levels[i]...)
		if !upper.Contains(lower) {
			t.Errorf("level %d MBR %v not within level %d MBR %v", i, lower, i-1, upper)
		}
	}
}

// TestQuickInsertDeleteInvariants fills a tree, deletes every item in
// random order and fills it again, checking the structure and the
// stored items against a model after every delete. Emptying the tree
// makes CondenseTree reinsert orphaned subtrees above the leaf level,
// so the path climbs of AdjustTree and CondenseTree are exercised under
// every split kind and at the delta tree's wide nodes.
func TestQuickInsertDeleteInvariants(t *testing.T) {
	cases := []struct {
		params Params
		maxN   int // items per trial: 1..maxN
		trials int
	}{
		{Params{Max: 4, Min: 2, Split: SplitLinear}, 120, 40},
		{Params{Max: 4, Min: 2, Split: SplitQuadratic}, 120, 40},
		{Params{Max: 4, Min: 2, Split: SplitExhaustive}, 120, 40},
		{Params{Max: 32, Min: 8, Split: SplitLinear}, 1500, 6},
	}
	for ci, c := range cases {
		t.Run(fmt.Sprintf("%v/%d-%d", c.params.Split, c.params.Max, c.params.Min), func(t *testing.T) {
			rng := rand.New(rand.NewSource(15 + int64(ci)))
			// matches reports whether tr holds exactly the items of model.
			matches := func(tr *Tree, model map[int64]Item) bool {
				got := tr.Items()
				if len(got) != len(model) || tr.Len() != len(model) {
					return false
				}
				for _, it := range got {
					if want, ok := model[it.Data]; !ok || !want.Rect.Eq(it.Rect) {
						return false
					}
				}
				return true
			}
			f := func() bool {
				tr := New(c.params)
				n := 1 + rng.Intn(c.maxN)
				items := uniformRectItems(n, rng.Int63())
				model := make(map[int64]Item, n)
				for _, it := range items {
					tr.InsertItem(it)
					model[it.Data] = it
				}
				if err := tr.CheckInvariants(); err != nil || !matches(tr, model) {
					t.Logf("after %d inserts: %v", n, err)
					return false
				}
				for k, idx := range rng.Perm(n) {
					it := items[idx]
					if !tr.Delete(it.Rect, it.Data) {
						t.Logf("delete %d of %d: item %d not found", k+1, n, it.Data)
						return false
					}
					delete(model, it.Data)
					if err := tr.CheckInvariants(); err != nil || !matches(tr, model) {
						t.Logf("after delete %d of %d: %v", k+1, n, err)
						return false
					}
				}
				// The deletes released every node but the root.
				if free := len(tr.free); free != len(tr.nodes)-1 || tr.NodeCount() != 1 {
					t.Logf("emptied: %d of %d slab nodes free, want all but the root", free, len(tr.nodes))
					return false
				}
				for _, it := range uniformRectItems(n, rng.Int63()) {
					tr.InsertItem(it)
					model[it.Data] = it
				}
				if err := tr.CheckInvariants(); err != nil || !matches(tr, model) {
					t.Logf("after refilling %d: %v", n, err)
					return false
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: c.trials}); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestQuickSearchNeverMisses(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	f := func() bool {
		n := 1 + rng.Intn(150)
		items := uniformRectItems(n, rng.Int63())
		tr := New(DefaultParams())
		insertAll(tr, items)
		w := geom.WindowAt(rng.Float64()*1000, 50+rng.Float64()*200, rng.Float64()*1000, 50+rng.Float64()*200)
		want := bruteSearch(items, w)
		got, _ := tr.Query(w)
		if len(got) != len(want) {
			return false
		}
		for _, it := range got {
			if !want[it.Data] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestJoinPairsMatchesNestedLoop(t *testing.T) {
	a := New(DefaultParams())
	b := New(DefaultParams())
	itemsA := uniformRectItems(80, 17)
	itemsB := uniformRectItems(90, 18)
	insertAll(a, itemsA)
	insertAll(b, itemsB)

	pred := geom.Overlapping
	want := make(map[[2]int64]bool)
	for _, ia := range itemsA {
		for _, ib := range itemsB {
			if pred(ia.Rect, ib.Rect) {
				want[[2]int64{ia.Data, ib.Data}] = true
			}
		}
	}
	got := make(map[[2]int64]bool)
	JoinPairs(a, b, pred, func(x, y Item) bool {
		got[[2]int64{x.Data, y.Data}] = true
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("join found %d pairs, nested loop %d", len(got), len(want))
	}
	for k := range want {
		if !got[k] {
			t.Fatalf("join missed pair %v", k)
		}
	}
}

func TestJoinPairsCoveredBy(t *testing.T) {
	// Cities covered by regions: the paper's juxtaposition example.
	cities := New(DefaultParams())
	regions := New(DefaultParams())
	cities.Insert(geom.Pt(5, 5).Rect(), 1)
	cities.Insert(geom.Pt(15, 15).Rect(), 2)
	cities.Insert(geom.Pt(50, 50).Rect(), 3)
	regions.Insert(geom.R(0, 0, 10, 10), 100)   // covers city 1
	regions.Insert(geom.R(10, 10, 20, 20), 200) // covers city 2
	var pairs [][2]int64
	JoinPairs(cities, regions, geom.CoveredBy, func(c, r Item) bool {
		pairs = append(pairs, [2]int64{c.Data, r.Data})
		return true
	})
	if len(pairs) != 2 {
		t.Fatalf("pairs = %v", pairs)
	}
}

func TestJoinEarlyStop(t *testing.T) {
	a := New(DefaultParams())
	b := New(DefaultParams())
	insertAll(a, uniformRectItems(50, 19))
	insertAll(b, uniformRectItems(50, 20))
	count := 0
	JoinPairs(a, b, geom.Overlapping, func(_, _ Item) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("early stop count = %d", count)
	}
}

func TestVisitCountPrunes(t *testing.T) {
	// A small window on a large tree must visit far fewer nodes than
	// the whole tree — the point of having an R-tree at all.
	tr := New(DefaultParams())
	insertAll(tr, uniformItems(900, 21))
	total := tr.NodeCount()
	_, visited := tr.Query(geom.R(10, 10, 30, 30))
	if visited >= total/2 {
		t.Fatalf("small window visited %d of %d nodes — no pruning", visited, total)
	}
}

func TestConcurrentSearches(t *testing.T) {
	// R-tree searches are read-only; many readers may run in parallel
	// on a static (packed-style) tree — the paper's deployment mode.
	tr := New(DefaultParams())
	items := uniformItems(2000, 30)
	insertAll(tr, items)
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for q := 0; q < 200; q++ {
				w := geom.WindowAt(rng.Float64()*1000, 30, rng.Float64()*1000, 30)
				got, _ := tr.Query(w)
				for _, it := range got {
					if !it.Rect.Intersects(w) {
						errs <- "result outside window"
						return
					}
				}
			}
		}(int64(g))
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// SearchMetrics is ComputeMetrics without the three sweeps: every
// other field is equal, bit for bit, and Overlap, OverlapMeasure and
// DeadSpace are zero.
func TestSearchMetricsIsComputeMetricsSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 5, 400} {
		tr := New(Params{Max: 4, Min: 2, Split: SplitQuadratic})
		for i := 0; i < n; i++ {
			x, y := rng.Float64()*1000, rng.Float64()*1000
			tr.Insert(geom.R(x, y, x+rng.Float64()*30, y+rng.Float64()*30), int64(i))
		}
		full, search := tr.ComputeMetrics(), tr.SearchMetrics()
		if search.Overlap != 0 || search.OverlapMeasure != 0 || search.DeadSpace != 0 {
			t.Fatalf("n=%d: SearchMetrics computed a sweep: %+v", n, search)
		}
		if n == 400 && full.Overlap == 0 {
			t.Fatalf("n=%d: ComputeMetrics swept no overlap: %+v", n, full)
		}
		full.Overlap, full.OverlapMeasure, full.DeadSpace = 0, 0, 0
		if search != full {
			t.Fatalf("n=%d: SearchMetrics = %+v, want %+v", n, search, full)
		}
		if search.Coverage != geom.CoverageArea(tr.LeafRects()) {
			t.Fatalf("n=%d: walk summed coverage %v, CoverageArea %v", n, search.Coverage, geom.CoverageArea(tr.LeafRects()))
		}
		if search.Nodes != tr.NodeCount() || search.Leaves != len(tr.LeafRects()) {
			t.Fatalf("n=%d: walk counted %d nodes %d leaves, tree has %d and %d", n, search.Nodes, search.Leaves, tr.NodeCount(), len(tr.LeafRects()))
		}
	}
}
