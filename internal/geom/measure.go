package geom

import "sort"

// This file implements the quality measures of Section 3.1:
//
//	"Coverage" is defined as the total area of all the MBRs of all
//	leaf R-tree nodes, and "overlap" is defined as the total area
//	contained within two or more leaf MBRs.
//
// Coverage is a plain sum of areas. For overlap we provide two
// readings: OverlapPairwise sums the pairwise intersection areas
// (counting multiplicity, which is what reproduces the paper's Table 1
// — its INSERT overlap exceeds the total domain area at J >= 800, which
// a set measure cannot do), and OverlapMeasure computes the exact area
// of the region covered by at least two rectangles via coordinate
// compression.

// CoverageArea returns the sum of the areas of rects — the paper's C.
func CoverageArea(rects []Rect) float64 {
	sum := 0.0
	for _, r := range rects {
		sum += r.Area()
	}
	return sum
}

// OverlapPairwise returns the sum over all unordered pairs of rects of
// their intersection area — the paper's O as reported in Table 1. The
// rectangles are swept in ascending Min.X so only pairs whose
// x-extents overlap are examined: near-linear on packed trees whose
// leaves barely overlap, O(n^2) only when most pairs truly intersect.
// A pair apart in y is skipped before its intersection is formed: it
// would add exactly zero, so the sum — and the order it is taken in —
// is the same with or without the test.
func OverlapPairwise(rects []Rect) float64 {
	sorted := make([]Rect, 0, len(rects))
	for _, r := range rects {
		if !r.IsEmpty() {
			sorted = append(sorted, r)
		}
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Min.X < sorted[j].Min.X })
	sum := 0.0
	for i, ri := range sorted {
		for _, rj := range sorted[i+1:] {
			if rj.Min.X > ri.Max.X {
				break
			}
			if rj.Min.Y > ri.Max.Y || rj.Max.Y < ri.Min.Y {
				continue
			}
			sum += ri.Intersection(rj).Area()
		}
	}
	return sum
}

// UnionArea returns the exact area of the union of rects — the
// coordinate-compression reading used as the reference in tests
// (UnionAreaSweep is the production path via DeadSpace).
func UnionArea(rects []Rect) float64 {
	return measureAtLeast(rects, 1)
}

// OverlapMeasure returns the exact area of the region covered by two
// or more of rects — the set-measure reading of the paper's "overlap".
func OverlapMeasure(rects []Rect) float64 {
	return measureAtLeast(rects, 2)
}

// DeadSpace returns coverage minus union area: the amount of leaf MBR
// area counted redundantly, i.e. the "dead space" plus multiple
// counting that packing seeks to eliminate relative to the footprint.
// It uses the O(n log n) sweep so metrics stay cheap on large trees.
func DeadSpace(rects []Rect) float64 {
	return CoverageArea(rects) - UnionAreaSweep(rects)
}

// measureAtLeast returns the area of the region covered by at least k
// of rects, by a plane sweep over x: between adjacent x boundaries the
// covered-y length is measured from two sorted arrays of the active
// rectangles' y boundaries, maintained incrementally as rectangles
// enter and leave the sweep. No per-slab sorting happens, so the cost
// is O(n x active) — near-linear for tiled packings, where few leaves
// are active at any x.
func measureAtLeast(rects []Rect, k int) float64 {
	var evs []xEvent
	n := 0
	for _, r := range rects {
		if r.IsEmpty() || r.Area() == 0 {
			// Zero-area rectangles contribute nothing to any measure.
			continue
		}
		n++
		evs = append(evs,
			xEvent{x: r.Min.X, d: 1, yLo: r.Min.Y, yHi: r.Max.Y},
			xEvent{x: r.Max.X, d: -1, yLo: r.Min.Y, yHi: r.Max.Y})
	}
	if n < k {
		return 0
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].x < evs[j].x })
	var startsY, endsY []float64
	total := 0.0
	prevX := evs[0].x
	for i := 0; i < len(evs); {
		x := evs[i].x
		if x > prevX && len(startsY) >= k {
			total += (x - prevX) * coveredLength(startsY, endsY, k)
		}
		for i < len(evs) && evs[i].x == x {
			e := evs[i]
			if e.d > 0 {
				startsY = insertSorted(startsY, e.yLo)
				endsY = insertSorted(endsY, e.yHi)
			} else {
				startsY = removeSorted(startsY, e.yLo)
				endsY = removeSorted(endsY, e.yHi)
			}
			i++
		}
		prevX = x
	}
	return total
}

// xEvent is a sweep boundary: at coordinate x a rectangle with
// y-extent [yLo, yHi] enters (d=+1) or leaves (d=-1) the active set.
type xEvent struct {
	x, yLo, yHi float64
	d           int
}

// insertSorted inserts v into ascending-sorted vs.
func insertSorted(vs []float64, v float64) []float64 {
	i := sort.SearchFloat64s(vs, v)
	vs = append(vs, 0)
	copy(vs[i+1:], vs[i:])
	vs[i] = v
	return vs
}

// removeSorted removes one instance of v from ascending-sorted vs.
func removeSorted(vs []float64, v float64) []float64 {
	i := sort.SearchFloat64s(vs, v)
	return append(vs[:i], vs[i+1:]...)
}

// coveredLength returns the total y-length covered by at least k of
// the active intervals, given their start and end coordinates each in
// ascending order (both arrays have equal length).
func coveredLength(startsY, endsY []float64, k int) float64 {
	depth, i, j := 0, 0, 0
	length, prev := 0.0, 0.0
	for i < len(startsY) || j < len(endsY) {
		var y float64
		var d int
		if i < len(startsY) && startsY[i] <= endsY[j] {
			y, d = startsY[i], 1
			i++
		} else {
			y, d = endsY[j], -1
			j++
		}
		if depth >= k {
			length += y - prev
		}
		depth += d
		prev = y
	}
	return length
}

func dedupSorted(v []float64) []float64 {
	sort.Float64s(v)
	out := v[:0]
	for i, x := range v {
		if i == 0 || x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}

// PairwiseDisjoint reports whether no two of rects share interior
// area (boundary contact is allowed). It is the property guaranteed by
// Theorem 3.2's rotation packing for point objects.
func PairwiseDisjoint(rects []Rect) bool {
	for i := 0; i < len(rects); i++ {
		for j := i + 1; j < len(rects); j++ {
			if rects[i].Intersection(rects[j]).Area() > 0 {
				return false
			}
		}
	}
	return true
}
