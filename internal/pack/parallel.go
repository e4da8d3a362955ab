package pack

import (
	"slices"
	"sync"

	"repro/internal/geom"
)

// This file holds the multi-core machinery behind Options.Parallelism
// and the one sort every grouper orders its objects with. For any
// parallelism level the results are identical to the sequential
// computation, so parallel PACK builds the same tree the paper's
// single-threaded PACK does (verified by TestParallelPackDeterminism):
//
//   - parallelFor partitions the key computation by index range and
//     each range writes only its own slots, so the combined output is
//     order-independent;
//   - sortByKey runs on one goroutine and orders by (key, position), a
//     total order, so its output is the same whatever algorithm the
//     standard library sorts with.

// parallelThreshold is the input size below which goroutine fan-out
// costs more than it saves; smaller inputs run sequentially. A var so
// determinism tests can lower it and exercise the parallel machinery
// on paper-sized inputs.
var parallelThreshold = 2048

// parallelFor runs fn over [0, n) split into at most par contiguous
// chunks, one goroutine each. fn must only write state owned by its
// index range. par <= 1 (or a small n) runs inline.
func parallelFor(n, par int, fn func(lo, hi int)) {
	if n < parallelThreshold || par <= 1 {
		if n > 0 {
			fn(0, n)
		}
		return
	}
	chunk := (n + par - 1) / par
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

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
