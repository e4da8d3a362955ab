package pack

import (
	"repro/internal/geom"
)

// nnGrouper is the paper's PACK grouping (Section 3.3):
//
//	Order objects of DLIST by some spatial criterion
//	  {e.g. ascending x-coordinate};
//	while DLIST is not empty do
//	    I1 := first object from DLIST;
//	    I2 := NN(DLIST, I1); I3 := NN(DLIST, I1); I4 := NN(DLIST, I1);
//	    make a node of I1..I4;
//
// NN(DLIST, I) returns — and removes — the item of DLIST spatially
// closest to I. Distances are between rectangle centers (for the leaf
// level over point data this is the point distance the paper uses).
type nnGrouper struct{}

func (nnGrouper) Name() string { return "nn" }

func (nnGrouper) Group(rects []geom.Rect, max int) [][]int {
	centers := centersOf(rects)
	order := sortedByXY(centers)

	grid := newNNGrid(centers, order)
	groups := make([][]int, 0, (len(rects)+max-1)/max)
	for {
		seed, ok := grid.popFirst()
		if !ok {
			break
		}
		grp := make([]int, 1, max)
		grp[0] = seed
		for len(grp) < max {
			nn, ok := grid.popNearest(centers[seed])
			if !ok {
				break
			}
			grp = append(grp, nn)
		}
		groups = append(groups, grp)
	}
	return groups
}

// nnGrid accelerates the NN function with a uniform grid over the
// centers, so packing large static databases stays near O(n log n)
// rather than the naive O(n^2). Cells are searched in expanding rings
// around the query point; the search stops once the ring's minimum
// possible distance exceeds the best candidate found.
type nnGrid struct {
	cells     map[[2]int][]int
	centers   []geom.Point
	remaining []int // x-ordered queue of not-yet-consumed indices
	pos       int   // queue head
	taken     []bool
	origin    geom.Point
	cellSize  float64
	side      int // cells per axis
	alive     int
}

func newNNGrid(centers []geom.Point, order []int) *nnGrid {
	bounds := geom.MBR(centers...)
	// Aim for a handful of points per cell.
	n := len(centers)
	side := 1
	for side*side < n/4 {
		side++
	}
	w := bounds.Width()
	h := bounds.Height()
	size := 1.0
	if m := maxf(w, h); m > 0 {
		size = m / float64(side)
	}
	g := &nnGrid{
		cells:     make(map[[2]int][]int, side*side),
		centers:   centers,
		remaining: order,
		taken:     make([]bool, len(centers)),
		origin:    bounds.Min,
		cellSize:  size,
		side:      side,
		alive:     len(centers),
	}
	for _, i := range order {
		c := g.cellOf(centers[i])
		g.cells[c] = append(g.cells[c], i)
	}
	return g
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func (g *nnGrid) cellOf(p geom.Point) [2]int {
	return [2]int{
		int((p.X - g.origin.X) / g.cellSize),
		int((p.Y - g.origin.Y) / g.cellSize),
	}
}

// popFirst consumes the first remaining index in the spatial order.
func (g *nnGrid) popFirst() (int, bool) {
	for g.pos < len(g.remaining) {
		i := g.remaining[g.pos]
		g.pos++
		if !g.taken[i] {
			g.take(i)
			return i, true
		}
	}
	return 0, false
}

func (g *nnGrid) take(i int) {
	g.taken[i] = true
	g.alive--
}

// popNearest consumes and returns the remaining index whose center is
// closest to p. It scans cells in expanding square rings around p's
// cell and stops as soon as the closest possible point of the next
// ring is farther than the best candidate found.
func (g *nnGrid) popNearest(p geom.Point) (int, bool) {
	if g.alive == 0 {
		return 0, false
	}
	center := g.cellOf(p)
	best := -1
	bestD := 0.0
	for ring := 0; ring <= g.side+1; ring++ {
		if best >= 0 {
			// Points in ring r are at least (r-1)*cellSize away.
			minDist := float64(ring-1) * g.cellSize
			if minDist > 0 && minDist*minDist > bestD {
				break
			}
		}
		g.scanRing(center, ring, p, &best, &bestD)
	}
	if best < 0 {
		return 0, false
	}
	g.take(best)
	return best, true
}

// scanRing examines the cells at Chebyshev distance ring from center,
// updating best/bestD; it reports whether any live cell was seen.
func (g *nnGrid) scanRing(center [2]int, ring int, p geom.Point, best *int, bestD *float64) bool {
	seen := false
	visit := func(cx, cy int) {
		cell := g.cells[[2]int{cx, cy}]
		if len(cell) == 0 {
			return
		}
		live := cell[:0]
		for _, i := range cell {
			if g.taken[i] {
				continue
			}
			live = append(live, i)
			seen = true
			d := g.centers[i].DistSq(p)
			if *best < 0 || d < *bestD {
				*best, *bestD = i, d
			}
		}
		// Compact consumed entries so repeated scans stay cheap.
		g.cells[[2]int{cx, cy}] = live
	}
	if ring == 0 {
		visit(center[0], center[1])
		return seen
	}
	for dx := -ring; dx <= ring; dx++ {
		visit(center[0]+dx, center[1]-ring)
		visit(center[0]+dx, center[1]+ring)
	}
	for dy := -ring + 1; dy <= ring-1; dy++ {
		visit(center[0]-ring, center[1]+dy)
		visit(center[0]+ring, center[1]+dy)
	}
	return seen
}
