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
// workers pull windows from an atomic cursor and report each window's
// items under its own index, making the output independent of goroutine
// scheduling: what is reported for i always answers windows[i], in tree
// order.

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

// SearchBatch runs Search(windows[i]) for every window, fanning the
// windows out over up to parallelism goroutines (0 or negative means
// runtime.GOMAXPROCS(0)), and calls fn(i, item) for every item
// intersecting windows[i], in tree order. Calls for one window come
// from one goroutine, one after another; calls for different windows
// may run concurrently, so fn may keep per-window state without a lock
// and nothing else. It returns the total number of node visits across
// the batch (the paper's measure A, summed).
func (t *Tree) SearchBatch(windows []geom.Rect, parallelism int, fn func(i int, it Item)) int {
	n := len(windows)
	search := func(i int) int {
		return t.Search(windows[i], func(it Item) bool {
			fn(i, it)
			return true
		})
	}
	workers := batchWorkers(parallelism, n)
	if workers == 1 {
		visited := 0
		for i := range windows {
			visited += search(i)
		}
		return visited
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
				visits.Add(int64(search(i)))
			}
		}()
	}
	wg.Wait()
	return int(visits.Load())
}

// QueryBatch answers every window against the tree like SearchBatch.
// results[i] holds the items intersecting windows[i] in tree order —
// identical to calling Query(windows[i]) sequentially.
func (t *Tree) QueryBatch(windows []geom.Rect, parallelism int) ([][]Item, int) {
	if len(windows) == 0 {
		return nil, 0
	}
	results := make([][]Item, len(windows))
	visited := t.SearchBatch(windows, parallelism, func(i int, it Item) {
		results[i] = append(results[i], it)
	})
	return results, visited
}
