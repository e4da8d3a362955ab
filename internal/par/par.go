// Package par runs a fixed list of independent tasks on a bounded
// number of goroutines. It is the one fan-out of the build side and of
// Check: a relation's heap scans and index builds, and per-store
// checks.
package par

import (
	"runtime"
	"sync"
)

// Do runs fn(i) for i in [0, n) on up to workers goroutines (0 or less
// means runtime.GOMAXPROCS(0)) and returns the error of the lowest i
// that failed, so the result does not depend on scheduling. With one
// worker the tasks run inline in index order and the first failure
// stops the rest; otherwise tasks start in index order, every started
// goroutine is joined before Do returns, and a failure does not cancel
// the others. Because of the start order a task may wait for a
// lower-numbered one (never the reverse) at any worker count.
func Do(n, workers int, fn func(i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
			<-sem
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
