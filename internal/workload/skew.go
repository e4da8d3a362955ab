package workload

import (
	"math/rand"
	"sort"

	"repro/internal/geom"
)

// The skewed insert trace for the sharding tests. Hilbert-range
// sharding splits the key space evenly at creation, so any insert
// distribution that concentrates on a narrow slice of the Hilbert
// order lands on one hot shard — exactly the realistic pictorial case
// (map objects bunch geographically). The generator expresses that
// concentration directly in Hilbert-key order: the frame is cut into a
// grid of cells ranked by the Hilbert key of their centers, and cells
// are chosen non-uniformly along that ranking.

// skewGrid is the per-axis cell count of the Hilbert-ranked grid: 64²
// cells is fine-grained against 256 max shards while keeping setup
// cost trivial.
const skewGrid = 64

// hilbertCells returns the grid's cells sorted by the Hilbert key of
// their centers — the curve order the shard router uses.
func hilbertCells() []geom.Rect {
	w := (Frame.Max.X - Frame.Min.X) / skewGrid
	h := (Frame.Max.Y - Frame.Min.Y) / skewGrid
	type ranked struct {
		rect geom.Rect
		key  uint64
	}
	cells := make([]ranked, 0, skewGrid*skewGrid)
	for i := 0; i < skewGrid; i++ {
		for j := 0; j < skewGrid; j++ {
			r := geom.R(
				Frame.Min.X+float64(i)*w, Frame.Min.Y+float64(j)*h,
				Frame.Min.X+float64(i+1)*w, Frame.Min.Y+float64(j+1)*h,
			)
			cells = append(cells, ranked{rect: r, key: geom.HilbertKey(Frame, r.Center())})
		}
	}
	sort.Slice(cells, func(a, b int) bool { return cells[a].key < cells[b].key })
	out := make([]geom.Rect, len(cells))
	for i, c := range cells {
		out[i] = c.rect
	}
	return out
}

// pointIn draws a uniform point inside r.
func pointIn(rng *rand.Rand, r geom.Rect) geom.Point {
	return geom.Pt(
		r.Min.X+rng.Float64()*(r.Max.X-r.Min.X),
		r.Min.Y+rng.Float64()*(r.Max.Y-r.Min.Y),
	)
}

// HotHilbertPoints sends frac of the points into the first hotRange
// fraction of the Hilbert ordering ("90% of inserts into 10% of the key
// space"), the rest uniform over the frame. Same arguments, same
// points.
func HotHilbertPoints(n int, frac, hotRange float64, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	cells := hilbertCells()
	hot := int(hotRange * float64(len(cells)))
	if hot < 1 {
		hot = 1
	}
	out := make([]geom.Point, n)
	for i := range out {
		if rng.Float64() < frac {
			out[i] = pointIn(rng, cells[rng.Intn(hot)])
		} else {
			out[i] = pointIn(rng, cells[rng.Intn(len(cells))])
		}
	}
	return out
}
