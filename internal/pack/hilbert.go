package pack

import (
	"cmp"

	"repro/internal/geom"
)

// hilbertGrouper orders rectangles by the Hilbert curve value of their
// centers (Kamel & Faloutsos, VLDB 1994) and slices consecutive runs.
// The Hilbert curve preserves locality better than raw x-ordering, so
// consecutive runs tend to be spatially compact without the explicit
// nearest-neighbor step of the paper's PACK.
//
// Once the bounds are known every key is an independent pure function
// of one center, so key computation fans out perfectly; one sort of
// (key, position) remains.
//
// The curve mapping itself lives in geom (geom.HilbertKey and
// friends) so the workload generators can derive curve keys without
// importing pack; the identifiers below re-export it for the sharding
// and routing layers, which historically reach it through pack.
type hilbertGrouper struct{ par int }

func (hilbertGrouper) Name() string { return "hilbert" }

// HilbertKeyBits is the width of the key space HilbertKey maps into:
// keys lie in [0, 1<<HilbertKeyBits). Hilbert-range sharding divides
// this space into contiguous per-shard ranges.
const HilbertKeyBits = geom.HilbertKeyBits

// HilbertKey quantizes p onto the Hilbert curve over bounds and
// returns its 1-D curve distance — the routing key Hilbert-range
// sharding assigns tuples by. See geom.HilbertKey.
func HilbertKey(bounds geom.Rect, p geom.Point) uint64 {
	return geom.HilbertKey(bounds, p)
}

func (g hilbertGrouper) Group(rects []geom.Rect, max int) [][]int {
	n := len(rects)
	if n == 0 {
		return nil
	}
	bounds := geom.MBRRects(rects...)
	side := uint32(1) << geom.HilbertOrder
	scaleX, scaleY := 0.0, 0.0
	if w := bounds.Width(); w > 0 {
		scaleX = float64(side-1) / w
	}
	if h := bounds.Height(); h > 0 {
		scaleY = float64(side-1) / h
	}
	keys := make([]uint64, n)
	parallelFor(n, g.par, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			c := rects[i].Center()
			x := uint32((c.X - bounds.Min.X) * scaleX)
			y := uint32((c.Y - bounds.Min.Y) * scaleY)
			keys[i] = geom.HilbertD(geom.HilbertOrder, x, y)
		}
	})
	order := identityOrder(n)
	sortByKey(order, keys, cmp.Compare[uint64])
	return slices2(order, max)
}
