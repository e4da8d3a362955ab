package pack

import (
	"slices"

	"repro/internal/geom"
)

// This file holds the sort every grouper orders its objects with
// (Hilbert's sorts packed words instead, to the same order). It runs on
// one goroutine and orders by (key, position), a total order, so its
// output is the same whatever algorithm the standard library sorts
// with.

// keyed is one object under sortByKey: its sort key and its position
// in the grouper's input.
type keyed[K any] struct {
	key K
	pos int
}

// sortByKey sorts idx — positions into keys — by (keys[p], p): PACK's
// "order objects of DLIST by some spatial criterion", ties in input
// order. cmp need not tell equal keys apart; position completes it to
// a total order (for coordinates that are not NaN), which is what makes
// the result independent of the sorting algorithm.
func sortByKey[K any](idx []int, keys []K, cmp func(a, b K) int) {
	pairs := make([]keyed[K], len(idx))
	for i, p := range idx {
		pairs[i] = keyed[K]{keys[p], p}
	}
	slices.SortFunc(pairs, func(a, b keyed[K]) int {
		if c := cmp(a.key, b.key); c != 0 {
			return c
		}
		return a.pos - b.pos
	})
	for i, kp := range pairs {
		idx[i] = kp.pos
	}
}

// byXY orders centers by x, then y.
func byXY(a, b geom.Point) int {
	switch {
	case a.X < b.X:
		return -1
	case a.X > b.X:
		return 1
	case a.Y < b.Y:
		return -1
	case a.Y > b.Y:
		return 1
	}
	return 0
}
