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
// Once the bounds are known every key is an independent pure function
// of one center, so key computation fans out perfectly; one sort of
// (key, position) words remains.
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
	// One sort of key<<32 | position words: a key is HilbertKeyBits = 32
	// bits and a position is below 2^32 (PACK takes fewer than 2^32
	// items), so word order is (key, position) order — sortByKey's — with
	// no comparator call.
	words := hilbertKeys(rects, g.par)
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
func hilbertKeys(rects []geom.Rect, par int) []uint64 {
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
	parallelFor(len(rects), par, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			c := rects[i].Center()
			x := uint32((c.X - bounds.Min.X) * scaleX)
			y := uint32((c.Y - bounds.Min.Y) * scaleY)
			keys[i] = geom.HilbertD(geom.HilbertOrder, x, y)
		}
	})
	return keys
}
