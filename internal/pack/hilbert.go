package pack

import (
	"slices"

	"repro/internal/geom"
)

// hilbertGrouper orders rectangles by the Hilbert curve value of their
// centers (Kamel & Faloutsos, VLDB 1994) and slices consecutive runs.
// The Hilbert curve preserves locality better than raw x-ordering, so
// consecutive runs tend to be spatially compact without the explicit
// nearest-neighbor step of the paper's PACK.
//
// Once the bounds are known every key is a pure function of one
// center; one sort of (key, position) words orders them. The curve
// mapping itself lives in geom (geom.HilbertD and friends), where
// callers outside pack reach it too.
type hilbertGrouper struct{}

func (hilbertGrouper) Name() string { return "hilbert" }

func (hilbertGrouper) Group(rects []geom.Rect, max int) [][]int {
	n := len(rects)
	if n == 0 {
		return nil
	}
	// One sort of key<<32 | position words: a key is
	// geom.HilbertKeyBits = 32 bits and a position is below 2^32 (PACK
	// takes fewer than 2^32 items), so word order is (key, position)
	// order — sortByKey's — with no comparator call.
	words := hilbertKeys(rects)
	for i := range words {
		words[i] = words[i]<<32 | uint64(i)
	}
	slices.Sort(words)
	order := make([]int, n)
	for i, w := range words {
		order[i] = int(uint32(w))
	}
	return slices2(order, max)
}

// hilbertKeys returns the Hilbert key of every rectangle's center on
// the curve over their bounds.
func hilbertKeys(rects []geom.Rect) []uint64 {
	bounds := geom.MBRRects(rects...)
	side := uint32(1) << geom.HilbertOrder
	scaleX, scaleY := 0.0, 0.0
	if w := bounds.Width(); w > 0 {
		scaleX = float64(side-1) / w
	}
	if h := bounds.Height(); h > 0 {
		scaleY = float64(side-1) / h
	}
	keys := make([]uint64, len(rects))
	for i, r := range rects {
		c := r.Center()
		x := uint32((c.X - bounds.Min.X) * scaleX)
		y := uint32((c.Y - bounds.Min.Y) * scaleY)
		keys[i] = geom.HilbertD(geom.HilbertOrder, x, y)
	}
	return keys
}
