package rtree

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/geom"
)

// TestConcurrentMixedReads is the read-path stress test: one shared
// tree hammered by window queries and point probes from concurrent
// callers at once. Run under -race (make check) this certifies the
// concurrent-reader contract.
func TestConcurrentMixedReads(t *testing.T) {
	items := uniformRectItems(2000, 47)
	tr := New(DefaultParams())
	insertAll(tr, items)

	var wg sync.WaitGroup
	errs := make(chan string, 32)
	fail := func(msg string) {
		select {
		case errs <- msg:
		default:
		}
	}
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for q := 0; q < 120; q++ {
				switch q % 2 {
				case 0: // window query vs brute force
					w := geom.WindowAt(rng.Float64()*1000, 5+rng.Float64()*60, rng.Float64()*1000, 5+rng.Float64()*60)
					want := bruteSearch(items, w)
					got, _ := tr.Query(w)
					if len(got) != len(want) {
						fail("Query result size mismatch")
						return
					}
					for _, it := range got {
						if !want[it.Data] {
							fail("Query returned wrong item")
							return
						}
					}
				case 1: // point probes
					tr.ContainsPoint(geom.Pt(rng.Float64()*1000, rng.Float64()*1000))
				}
			}
		}(int64(g))
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
