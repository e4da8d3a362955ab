package geom

import "sort"

// UnionAreaSweep computes the exact union area of rects with the
// classic plane sweep: x-sorted edge events over a segment tree on
// compressed y-coordinates, O(n log n). UnionArea reads the same area
// off measureAtLeast's incremental x-sweep, O(n × active). Both are
// kept: measureAtLeast also answers ≥k coverage (OverlapMeasure); the
// segment tree is the union for large leaf sets, and each
// property-tests the other.
func UnionAreaSweep(rects []Rect) float64 {
	type event struct {
		x      float64
		y1, y2 int // compressed y interval [y1, y2)
		delta  int
	}
	var ys []float64
	for _, r := range rects {
		if r.IsEmpty() || r.Area() == 0 {
			continue
		}
		ys = append(ys, r.Min.Y, r.Max.Y)
	}
	if len(ys) == 0 {
		return 0
	}
	ys = dedupSorted(ys)
	yIndex := make(map[float64]int, len(ys))
	for i, y := range ys {
		yIndex[y] = i
	}

	var events []event
	for _, r := range rects {
		if r.IsEmpty() || r.Area() == 0 {
			continue
		}
		y1, y2 := yIndex[r.Min.Y], yIndex[r.Max.Y]
		events = append(events, event{r.Min.X, y1, y2, +1}, event{r.Max.X, y1, y2, -1})
	}
	sort.Slice(events, func(i, j int) bool { return events[i].x < events[j].x })

	st := newCoverTree(ys)
	total := 0.0
	prevX := events[0].x
	for _, e := range events {
		total += st.covered() * (e.x - prevX)
		prevX = e.x
		st.update(1, 0, len(ys)-1, e.y1, e.y2, e.delta)
	}
	return total
}

// coverTree is a segment tree over y-slabs counting how many intervals
// cover each slab; covered() returns the total covered y-length.
type coverTree struct {
	ys    []float64
	count []int     // cover count of the node's whole range
	cov   []float64 // covered length within the node's range
}

func newCoverTree(ys []float64) *coverTree {
	n := len(ys)
	return &coverTree{ys: ys, count: make([]int, 4*n), cov: make([]float64, 4*n)}
}

func (t *coverTree) covered() float64 {
	if len(t.ys) < 2 {
		return 0
	}
	return t.cov[1]
}

// update adds delta to slabs [lo, hi) within node covering [l, r).
// Node indices are slab indices: node range [l, r) spans ys[l]..ys[r].
func (t *coverTree) update(node, l, r, lo, hi, delta int) {
	if r <= l || hi <= l || r <= lo {
		return
	}
	if lo <= l && r <= hi {
		t.count[node] += delta
	} else {
		mid := (l + r) / 2
		t.update(2*node, l, mid, lo, hi, delta)
		t.update(2*node+1, mid, r, lo, hi, delta)
	}
	switch {
	case t.count[node] > 0:
		t.cov[node] = t.ys[r] - t.ys[l]
	case r-l == 1:
		t.cov[node] = 0
	default:
		t.cov[node] = t.cov[2*node] + t.cov[2*node+1]
	}
}
