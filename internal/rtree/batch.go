package rtree

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/geom"
)

// This file adds the batched query entry points: many windows answered
// against one tree by a pool of worker goroutines. Single-query search
// is recursive descent with no shared mutable state (see the
// concurrency note on Tree), so batching needs no per-node locking —
// workers pull windows from an atomic cursor and write results into
// preassigned slots, making the output independent of goroutine
// scheduling: results[i] always answers windows[i], in tree order.

// batchWorkers normalizes a parallelism request: <= 0 means
// GOMAXPROCS, and there is never a reason to run more workers than
// windows.
func batchWorkers(parallelism, n int) int {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > n {
		parallelism = n
	}
	if parallelism < 1 {
		parallelism = 1
	}
	return parallelism
}

// QueryBatch answers every window against the tree, fanning the
// windows out over up to parallelism goroutines (0 or negative means
// runtime.GOMAXPROCS(0)). results[i] holds the items intersecting
// windows[i] in tree order — identical to calling Query(windows[i])
// sequentially — and the second return is the total number of node
// visits across the batch (the paper's measure A, summed).
func (t *Tree) QueryBatch(windows []geom.Rect, parallelism int) ([][]Item, int) {
	n := len(windows)
	if n == 0 {
		return nil, 0
	}
	results := make([][]Item, n)
	workers := batchWorkers(parallelism, n)
	if workers == 1 {
		visited := 0
		for i, w := range windows {
			var v int
			results[i], v = t.Query(w)
			visited += v
		}
		return results, visited
	}

	var cursor atomic.Int64
	var visits atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				items, v := t.Query(windows[i])
				results[i] = items
				visits.Add(int64(v))
			}
		}()
	}
	wg.Wait()
	return results, int(visits.Load())
}
