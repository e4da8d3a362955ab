package rtree_test

import (
	"testing"

	"repro/internal/pack"
	"repro/internal/rtree"
	"repro/internal/workload"
)

// The planner's figures of a packed tree come from one walk: pricing a
// tree at open and at every repack allocates nothing, whatever its size.
func TestSearchMetricsAllocatesNothing(t *testing.T) {
	items := workload.PointItems(workload.UniformPoints(10_000, 1985))
	tr := pack.Tree(rtree.DefaultParams(), items, pack.Options{Method: pack.MethodHilbert})
	var m rtree.Metrics
	if allocs := testing.AllocsPerRun(10, func() { m = tr.SearchMetrics() }); allocs != 0 {
		t.Fatalf("SearchMetrics of a %d-item packed tree: %v allocations, want 0", m.Items, allocs)
	}
	if m.Items != len(items) || m.Leaves == 0 || m.Coverage <= 0 {
		t.Fatalf("SearchMetrics = %+v", m)
	}
}
