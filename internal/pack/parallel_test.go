package pack

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/workload"
)

// TestParallelSortStable checks that the parallel merge sort matches
// sort.SliceStable exactly, including tie handling, across sizes that
// hit the sequential bypass, unbalanced chunks, and odd run counts.
func TestParallelSortStable(t *testing.T) {
	defer func(old int) { parallelThreshold = old }(parallelThreshold)
	parallelThreshold = 2

	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2, 3, 17, 100, 1023, 4096} {
		for _, par := range []int{1, 2, 3, 4, 7, 8, 16} {
			// Few distinct keys => many ties => stability is load-bearing.
			keys := make([]int, n)
			for i := range keys {
				keys[i] = rng.Intn(5)
			}
			want := identityOrder(n)
			sort.SliceStable(want, func(i, j int) bool { return keys[want[i]] < keys[want[j]] })
			got := identityOrder(n)
			parallelSortStable(got, par, func(a, b int) bool { return keys[a] < keys[b] })
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d par=%d: parallel sort diverges from SliceStable", n, par)
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
