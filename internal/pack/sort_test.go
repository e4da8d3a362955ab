package pack

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/par"
	"repro/internal/rtree"
	"repro/internal/workload"
)

// TestParallelSortStable checks that sortByKey — the one sort behind
// every grouper — returns exactly sort.SliceStable's order: integer
// keys with heavy ties, center keys with repeated coordinates and
// wholly equal centers, a slab of an earlier order (STR's second pass),
// at sizes from empty to a few thousand. (The name is older than the
// sort; nothing about it is parallel.)
func TestParallelSortStable(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2, 3, 17, 100, 1023, 2048, 4097} {
		// Few distinct keys => many ties => position is load-bearing.
		keys := make([]uint64, n)
		centers := make([]geom.Point, n)
		for i := range keys {
			keys[i] = uint64(rng.Intn(5))
			centers[i] = geom.Pt(float64(rng.Intn(4)), float64(rng.Intn(4))-0.5)
		}
		want := identityOrder(n)
		sort.SliceStable(want, func(i, j int) bool { return keys[want[i]] < keys[want[j]] })
		got := identityOrder(n)
		sortByKey(got, keys, cmp.Compare[uint64])
		if !slices.Equal(got, want) {
			t.Fatalf("n=%d: integer keys diverge from SliceStable", n)
		}

		lessXY := func(a, b geom.Point) bool {
			if a.X != b.X {
				return a.X < b.X
			}
			return a.Y < b.Y
		}
		want = identityOrder(n)
		sort.SliceStable(want, func(i, j int) bool { return lessXY(centers[want[i]], centers[want[j]]) })
		got = sortedByXY(centers)
		if !slices.Equal(got, want) {
			t.Fatalf("n=%d: center keys diverge from SliceStable", n)
		}

		// The middle half of the x-order, re-sorted by (y, x).
		slab := append([]int(nil), want[n/4:n-n/4]...)
		sort.SliceStable(slab, func(i, j int) bool {
			a, b := centers[slab[i]], centers[slab[j]]
			return lessXY(geom.Pt(a.Y, a.X), geom.Pt(b.Y, b.X))
		})
		sortByKey(got[n/4:n-n/4], centers, byYX)
		if !slices.Equal(got[n/4:n-n/4], slab) {
			t.Fatalf("n=%d: slab re-sort diverges from SliceStable", n)
		}
	}
}

// TestHilbertOrderMatchesSortByKey: the Hilbert grouper's one sort of
// key<<32|position words gives exactly sortByKey's (key, position)
// order — on the 200 000 clustered points BenchmarkPackTree packs, on
// 5 000 centers drawn from a 3×3 grid (nine keys, heavy ties) and on
// 100 copies of one point (every key 0) — so it packs the trees the
// comparator sort packed.
func TestHilbertOrderMatchesSortByKey(t *testing.T) {
	var clustered []geom.Rect
	for _, it := range workload.PointItems(workload.ClusteredPoints(200_000, 50, 30, 1985)) {
		clustered = append(clustered, it.Rect)
	}
	rng := rand.New(rand.NewSource(11))
	grid := make([]geom.Rect, 5000)
	for i := range grid {
		grid[i] = geom.Pt(float64(rng.Intn(3)), float64(rng.Intn(3))).Rect()
	}
	same := make([]geom.Rect, 100)
	for i := range same {
		same[i] = geom.Pt(4, 2).Rect()
	}
	for name, rects := range map[string][]geom.Rect{"clustered": clustered, "grid": grid, "one point": same} {
		want := identityOrder(len(rects))
		sortByKey(want, hilbertKeys(rects), cmp.Compare[uint64])
		got := slices.Concat(hilbertGrouper{}.Group(rects, 4)...)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: order differs from sortByKey's", name)
		}
	}
}

// TestParallelPackDeterminism: PACK runs on its caller's goroutine,
// and a relation's build runs several at once, one per store and
// picture (par.Do, as internal/relation runs them). For every packing
// method, at J in {10, 100, 900, 3000}, two groupers of the same rects
// running side by side each group exactly as a lone grouper does
// (TestParallelTreeMatchesSequential checks the trees). Under -race it
// also holds that the groupers share no state.
func TestParallelPackDeterminism(t *testing.T) {
	for _, j := range []int{10, 100, 900, 3000} {
		items := workload.PointItems(workload.UniformPoints(j, int64(j)))
		rects := make([]geom.Rect, len(items))
		for i, it := range items {
			rects[i] = it.Rect
		}
		for _, m := range allMethods() {
			t.Run(fmt.Sprintf("%s/J=%d", m, j), func(t *testing.T) {
				seq := Grouper(m).Group(rects, 4)
				var got [2][][]int
				_ = par.Do(len(got), len(got), func(w int) error {
					got[w] = Grouper(m).Group(rects, 4)
					return nil
				})
				for w := range got {
					if !reflect.DeepEqual(got[w], seq) {
						t.Fatalf("grouper %d: grouping differs from a lone grouper's", w)
					}
				}
			})
		}
	}
}

// TestParallelTreeMatchesSequential: two PACKs of the same items
// running side by side each build the tree a lone PACK builds, node
// rectangles at every level and leaf item order included, for every
// packing method at J in {10, 100, 900}.
func TestParallelTreeMatchesSequential(t *testing.T) {
	params := rtree.Params{Max: 4, Min: 2}
	for _, j := range []int{10, 100, 900} {
		items := workload.PointItems(workload.UniformPoints(j, int64(j)+1))
		for _, m := range allMethods() {
			seq := Tree(params, items, Options{Method: m})
			var got [2]*rtree.Tree
			_ = par.Do(len(got), len(got), func(w int) error {
				got[w] = Tree(params, items, Options{Method: m})
				return nil
			})
			for w := range got {
				if !reflect.DeepEqual(got[w].LevelRects(), seq.LevelRects()) {
					t.Fatalf("%s J=%d, PACK %d: level rects differ from a lone PACK's", m, j, w)
				}
				if !reflect.DeepEqual(got[w].Items(), seq.Items()) {
					t.Fatalf("%s J=%d, PACK %d: leaf item order differs from a lone PACK's", m, j, w)
				}
			}
		}
	}
}

var packed *rtree.Tree // keeps BenchmarkPackTree's builds from being optimized away

// BenchmarkPackTree times PACK of the engine's largest served input —
// pictbench window_read's 200 000 clustered points at the paper's
// branching factor — under the two curve/tile orders the engine and
// its examples pack with. It is the measurement behind the share of
// pictdb.Open that BenchmarkOpenWindowRead reports as pack-ms.
func BenchmarkPackTree(b *testing.B) {
	items := workload.PointItems(workload.ClusteredPoints(200_000, 50, 30, 1985))
	for _, m := range []Method{MethodHilbert, MethodSTR} {
		b.Run(m.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				packed = Tree(rtree.DefaultParams(), items, Options{Method: m})
			}
		})
	}
}

// A Hilbert PACK allocates per level, not per node: the grouper's key,
// order and group slices, and Bulk's one slab of entries (the nodes of
// every level share one slab). 20 000 points at the paper's branching factor make a tree of
// height 7, eight levels.
func TestHilbertPackAllocsPerLevel(t *testing.T) {
	items := workload.PointItems(workload.ClusteredPoints(20_000, 20, 30, 39))
	tr := Tree(rtree.DefaultParams(), items, Options{Method: MethodHilbert})
	levels := tr.Depth() + 1
	allocs := testing.AllocsPerRun(5, func() {
		Tree(rtree.DefaultParams(), items, Options{Method: MethodHilbert})
	})
	t.Logf("%d levels, %.0f allocations", levels, allocs)
	if limit := 10 * levels; allocs > float64(limit) {
		t.Fatalf("Hilbert PACK of %d items made %.0f allocations, more than %d for %d levels", len(items), allocs, limit, levels)
	}
}

// Nodes cut from a level's slab take live writes as nodes allocated one
// by one do: 1 000 mixed Inserts and Deletes on a packed tree — full
// leaves split, underfull ones are condensed and their entries
// reinserted — keep every invariant and every item, at the paper's
// branching factor and at a wider one.
func TestPackedTreeTakesWrites(t *testing.T) {
	for _, params := range []rtree.Params{rtree.DefaultParams(), {Max: 16, Min: 4}} {
		rng := rand.New(rand.NewSource(int64(params.Max)))
		items := workload.PointItems(workload.UniformPoints(3000, int64(params.Max)))
		tr := Tree(params, items, Options{Method: MethodHilbert})
		live := slices.Clone(items)
		for i := range 1000 {
			if rng.Intn(2) == 0 && len(live) > 0 {
				j := rng.Intn(len(live))
				if !tr.Delete(live[j].Rect, live[j].Data) {
					t.Fatalf("Max %d, write %d: Delete of a live item failed", params.Max, i)
				}
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
			} else {
				p := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
				it := rtree.Item{Rect: p.Rect(), Data: int64(10_000 + i)}
				tr.InsertItem(it)
				live = append(live, it)
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("Max %d, write %d: %v", params.Max, i, err)
			}
		}
		byData := func(a, b rtree.Item) int { return cmp.Compare(a.Data, b.Data) }
		got := tr.Items()
		slices.SortFunc(got, byData)
		slices.SortFunc(live, byData)
		if !reflect.DeepEqual(got, live) {
			t.Fatalf("Max %d: the tree holds %d items, %d were written", params.Max, len(got), len(live))
		}
	}
}
