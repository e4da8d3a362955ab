package pack

import (
	"math"

	"repro/internal/geom"
)

// strGrouper implements Sort-Tile-Recursive packing (Leutenegger,
// Lopez & Edgington, ICDE 1997), the best-known descendant of this
// paper's packing idea: sort by center x, cut into ceil(sqrt(n/max))
// vertical slabs of ~max*slabCount entries each, sort each slab by
// center y, and slice runs of max.
type strGrouper struct{}

func (strGrouper) Name() string { return "str" }

// byYX orders centers by y, then x.
func byYX(a, b geom.Point) int {
	return byXY(geom.Point{X: a.Y, Y: a.X}, geom.Point{X: b.Y, Y: b.X})
}

func (strGrouper) Group(rects []geom.Rect, max int) [][]int {
	n := len(rects)
	if n == 0 {
		return nil
	}
	centers := centersOf(rects)
	order := sortedByXY(centers)
	nodeCount := (n + max - 1) / max
	slabs := int(math.Ceil(math.Sqrt(float64(nodeCount))))
	perSlab := slabs * max

	// Slabs are consecutive ranges of the x-order: sort each by y and
	// slice it into runs of max.
	groups := make([][]int, 0, nodeCount)
	for start := 0; start < n; start += perSlab {
		end := start + perSlab
		if end > n {
			end = n
		}
		sortByKey(order[start:end], centers, byYX)
		groups = append(groups, slices2(order[start:end], max)...)
	}
	return groups
}
