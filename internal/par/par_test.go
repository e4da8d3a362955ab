package par

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestDoRunsEveryTaskOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 100} {
		hits := make([]atomic.Int32, 50)
		if err := Do(len(hits), workers, func(i int) error {
			hits[i].Add(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := range hits {
			if n := hits[i].Load(); n != 1 {
				t.Fatalf("workers=%d: task %d ran %d times", workers, i, n)
			}
		}
	}
	if err := Do(0, 4, func(int) error { return errors.New("ran") }); err != nil {
		t.Fatalf("n=0 ran a task: %v", err)
	}
}

// The reported error is the lowest-numbered failure at any worker
// count, and every goroutine has returned by then.
func TestDoFirstErrorByIndex(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		var running atomic.Int32
		err := Do(20, workers, func(i int) error {
			running.Add(1)
			defer running.Add(-1)
			if i == 5 || i == 13 {
				return fmt.Errorf("task %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "task 5" {
			t.Fatalf("workers=%d: err = %v, want task 5", workers, err)
		}
		if n := running.Load(); n != 0 {
			t.Fatalf("workers=%d: %d tasks still running after Do returned", workers, n)
		}
	}
}

// A task may wait for a lower-numbered one without deadlock, even with
// two workers: tasks start in index order.
func TestDoLaterTaskMayWaitForEarlier(t *testing.T) {
	for _, workers := range []int{1, 2, 3} {
		ready := make(chan struct{})
		var saw atomic.Int32
		if err := Do(6, workers, func(i int) error {
			if i == 0 {
				close(ready)
				return nil
			}
			<-ready
			saw.Add(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if saw.Load() != 5 {
			t.Fatalf("workers=%d: %d waiters finished", workers, saw.Load())
		}
	}
}
