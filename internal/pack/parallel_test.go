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
	"repro/internal/rtree"
	"repro/internal/workload"
)

// TestParallelSortStable checks that sortByKey — the one sort behind
// every grouper — returns exactly sort.SliceStable's order: integer
// keys with heavy ties, center keys with repeated coordinates and
// wholly equal centers, a slab of an earlier order (STR's second pass),
// at sizes from empty to past parallelThreshold. (The name is the one
// the test floor lists; nothing about the sort is parallel.)
func TestParallelSortStable(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2, 3, 17, 100, 1023, parallelThreshold, 2*parallelThreshold + 1} {
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
		sortByKey(want, hilbertKeys(rects, 1), cmp.Compare[uint64])
		for _, par := range []int{1, 2} {
			got := slices.Concat(hilbertGrouper{par: par}.Group(rects, 4)...)
			if !slices.Equal(got, want) {
				t.Fatalf("%s, par=%d: order differs from sortByKey's", name, par)
			}
		}
	}
}

// TestParallelPackDeterminism asserts the tentpole guarantee: for every
// packing method, a parallel build groups identically to the
// sequential build (TestParallelTreeMatchesSequential checks the trees
// built from those groupings), for seeds across J in {10, 100, 900} (plus one size past the real
// fan-out threshold).
func TestParallelPackDeterminism(t *testing.T) {
	defer func(old int) { parallelThreshold = old }(parallelThreshold)
	parallelThreshold = 4

	for _, j := range []int{10, 100, 900, 3000} {
		items := workload.PointItems(workload.UniformPoints(j, int64(j)))
		rects := make([]geom.Rect, len(items))
		for i, it := range items {
			rects[i] = it.Rect
		}
		for _, m := range allMethods() {
			t.Run(fmt.Sprintf("%s/J=%d", m, j), func(t *testing.T) {
				seq := GrouperWith(m, 1).Group(rects, 4)
				for _, par := range []int{2, 4, 8} {
					got := GrouperWith(m, par).Group(rects, 4)
					if !reflect.DeepEqual(got, seq) {
						t.Fatalf("par=%d grouping differs from sequential", par)
					}
				}
			})
		}
	}
}

// TestParallelTreeMatchesSequential builds in-memory trees at both
// parallelism extremes and checks the full structure (per-level node
// rectangles and leaf item order) matches.
func TestParallelTreeMatchesSequential(t *testing.T) {
	defer func(old int) { parallelThreshold = old }(parallelThreshold)
	parallelThreshold = 4

	params := rtree.Params{Max: 4, Min: 2}
	for _, j := range []int{10, 100, 900} {
		items := workload.PointItems(workload.UniformPoints(j, int64(j)+1))
		for _, m := range allMethods() {
			seq := Tree(params, items, Options{Method: m, Parallelism: 1})
			par := Tree(params, items, Options{Method: m, Parallelism: 8})
			if !reflect.DeepEqual(seq.LevelRects(), par.LevelRects()) {
				t.Fatalf("%s J=%d: level rects differ", m, j)
			}
			if !reflect.DeepEqual(seq.Items(), par.Items()) {
				t.Fatalf("%s J=%d: leaf item order differs", m, j)
			}
		}
	}
}

var packed *rtree.Tree // keeps BenchmarkPackTree's builds from being optimized away

// BenchmarkPackTree times PACK of the engine's largest served input —
// pictbench window_read's 200 000 clustered points at the paper's
// branching factor — under the two curve/tile orders the engine and
// its examples pack with, at the parallelism of one core and of the
// benchmark machine's two. It is the measurement behind the share of
// pictdb.Open that BenchmarkOpenWindowRead reports as pack-ms.
func BenchmarkPackTree(b *testing.B) {
	items := workload.PointItems(workload.ClusteredPoints(200_000, 50, 30, 1985))
	for _, m := range []Method{MethodHilbert, MethodSTR} {
		for _, par := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/par=%d", m, par), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					packed = Tree(rtree.DefaultParams(), items, Options{Method: m, Parallelism: par})
				}
			})
		}
	}
}
