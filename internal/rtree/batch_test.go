package rtree

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/geom"
)

// batchWindows generates n query windows over the [0,1000]^2 extent.
func batchWindows(n int, seed int64) []geom.Rect {
	rng := rand.New(rand.NewSource(seed))
	out := make([]geom.Rect, n)
	for i := range out {
		out[i] = geom.WindowAt(rng.Float64()*1000, 5+rng.Float64()*60, rng.Float64()*1000, 5+rng.Float64()*60)
	}
	return out
}

// TestQueryBatchMatchesSequential checks that the batched path returns
// exactly what per-window Query calls return — same items, same order,
// same total visit count — at every parallelism level.
func TestQueryBatchMatchesSequential(t *testing.T) {
	tr := New(DefaultParams())
	insertAll(tr, uniformRectItems(1500, 41))
	windows := batchWindows(64, 42)

	wantResults := make([][]Item, len(windows))
	wantVisits := 0
	for i, w := range windows {
		var v int
		wantResults[i], v = tr.Query(w)
		wantVisits += v
	}
	for _, par := range []int{0, 1, 2, 4, 8} {
		got, visits := tr.QueryBatch(windows, par)
		if !reflect.DeepEqual(got, wantResults) {
			t.Fatalf("par=%d: batch results differ from sequential queries", par)
		}
		if visits != wantVisits {
			t.Fatalf("par=%d: visits = %d, want %d", par, visits, wantVisits)
		}
	}
	if res, v := tr.QueryBatch(nil, 4); res != nil || v != 0 {
		t.Fatalf("empty batch: got %v, %d", res, v)
	}
}

// TestTotalNodeVisits checks the cumulative counter accumulates across
// batched and single queries and resets to zero.
func TestTotalNodeVisits(t *testing.T) {
	tr := New(DefaultParams())
	insertAll(tr, uniformRectItems(500, 45))
	tr.ResetNodeVisits()
	windows := batchWindows(16, 46)
	_, batchVisits := tr.QueryBatch(windows, 4)
	if got := tr.TotalNodeVisits(); got != int64(batchVisits) {
		t.Fatalf("TotalNodeVisits = %d, batch reported %d", got, batchVisits)
	}
	_, v := tr.Query(windows[0])
	if got := tr.TotalNodeVisits(); got != int64(batchVisits+v) {
		t.Fatalf("TotalNodeVisits = %d after extra query, want %d", got, batchVisits+v)
	}
	tr.ResetNodeVisits()
	if got := tr.TotalNodeVisits(); got != 0 {
		t.Fatalf("reset left %d", got)
	}
}

// TestConcurrentMixedReads is the read-path stress test: one shared
// tree hammered by QueryBatch, point probes and nearest-neighbor
// searches at once. Run under -race (make check) this certifies the
// concurrent-reader contract.
func TestConcurrentMixedReads(t *testing.T) {
	items := uniformRectItems(2000, 47)
	tr := New(DefaultParams())
	insertAll(tr, items)

	oracle := func(w geom.Rect) map[int64]bool { return bruteSearch(items, w) }

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
			for q := 0; q < 30; q++ {
				switch q % 2 {
				case 0: // batched window queries vs brute force
					windows := batchWindows(8, seed*1000+int64(q))
					results, _ := tr.QueryBatch(windows, 4)
					for i, w := range windows {
						want := oracle(w)
						if len(results[i]) != len(want) {
							fail("QueryBatch result size mismatch")
							return
						}
						for _, it := range results[i] {
							if !want[it.Data] {
								fail("QueryBatch returned wrong item")
								return
							}
						}
					}
				case 1: // point probes and NN
					pt := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
					tr.ContainsPoint(pt)
					if _, ok, _ := tr.NearestNeighbor(pt); !ok {
						fail("NearestNeighbor found nothing in a full tree")
						return
					}
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
