// Package pack implements the paper's Section 3.3 PACK algorithm —
// nearest-neighbor bulk loading of R-trees — together with the
// alternatives it anticipates and spawned: plain lowest-x ordering
// (the paper's "order objects of DLIST by some spatial criterion"),
// the rotation packing that constructively realizes Theorem 3.2
// (zero-overlap leaves for point data), and two later descendants,
// Sort-Tile-Recursive (STR) and Hilbert-curve packing, provided as the
// "forthcoming" extensions the conclusion promises.
//
// Each strategy is an rtree.Grouper; rtree.Bulk applies it level by
// level bottom-up, exactly like the recursive PACK of the paper
// ("PACK is then called recursively using the list of leaf MBRs as
// data objects ... until the root is finally reached").
package pack

import (
	"fmt"
	"runtime"

	"repro/internal/geom"
	"repro/internal/rtree"
)

// Method selects a packing strategy.
type Method int

const (
	// MethodNN is the paper's PACK: order by ascending x, then group
	// each seed with its nearest neighbors.
	MethodNN Method = iota
	// MethodLowX sorts by x-coordinate and slices consecutive runs —
	// the simplest instance of the paper's "order ... by some spatial
	// criterion" step, without the nearest-neighbor refinement.
	MethodLowX
	// MethodSTR is Sort-Tile-Recursive packing (Leutenegger et al.),
	// the direct descendant of this paper's technique.
	MethodSTR
	// MethodHilbert orders objects by the Hilbert value of their
	// centers (Kamel & Faloutsos), another descendant.
	MethodHilbert
	// MethodRotate realizes Theorem 3.2: rotate the frame so all
	// x-coordinates are distinct, slice the rotated order. For point
	// data the resulting leaf MBRs are pairwise disjoint.
	MethodRotate
	// MethodNNArea is the paper's suggested refinement of PACK: group
	// members are chosen greedily by least MBR enlargement rather than
	// center distance (the exact simultaneous-minimum version "could be
	// combinatorially explosive").
	MethodNNArea
)

// String names the method.
func (m Method) String() string {
	switch m {
	case MethodNN:
		return "nn"
	case MethodLowX:
		return "lowx"
	case MethodSTR:
		return "str"
	case MethodHilbert:
		return "hilbert"
	case MethodRotate:
		return "rotate"
	case MethodNNArea:
		return "nn-area"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Options configures a packed build.
type Options struct {
	// Method selects the grouping strategy; the zero value is the
	// paper's nearest-neighbor PACK.
	Method Method
	// TrimToMultiple reproduces the paper's "integral multiple of
	// four" assumption: the item list is truncated to a multiple of
	// the branching factor before packing, so node counts match
	// Table 1 exactly. Trimmed items are NOT indexed; leave this off
	// for real use.
	TrimToMultiple bool
	// Parallelism is the number of goroutines a build may use for
	// spatial-key computation and node assembly. Zero means
	// runtime.GOMAXPROCS(0); 1 forces the sequential path. Every
	// level produces output identical to the sequential build, so
	// Table 1 numbers are unchanged at any setting.
	Parallelism int
}

// parallelism resolves the effective worker count.
func (o Options) parallelism() int {
	if o.Parallelism <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Parallelism
}

// Tree builds a packed R-tree over items with the given parameters.
func Tree(params rtree.Params, items []rtree.Item, opts Options) *rtree.Tree {
	if opts.TrimToMultiple {
		n := len(items) - len(items)%params.Max
		items = items[:n]
	}
	par := opts.parallelism()
	return rtree.BulkP(params, items, GrouperWith(opts.Method, par), par)
}

// Grouper returns the rtree.Grouper implementing the given method,
// running single-threaded (the paper's sequential PACK).
func Grouper(m Method) rtree.Grouper { return GrouperWith(m, 1) }

// GrouperWith returns the rtree.Grouper for the given method using up
// to par goroutines per level. Grouping output is identical for every
// par; 0 means runtime.GOMAXPROCS(0).
func GrouperWith(m Method, par int) rtree.Grouper {
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	switch m {
	case MethodLowX:
		return lowXGrouper{par: par}
	case MethodSTR:
		return strGrouper{par: par}
	case MethodHilbert:
		return hilbertGrouper{par: par}
	case MethodRotate:
		return rotateGrouper{par: par}
	case MethodNNArea:
		return nnAreaGrouper{par: par}
	default:
		return nnGrouper{par: par}
	}
}

// lowXGrouper sorts by center x (breaking ties by y) and slices
// consecutive groups of max.
type lowXGrouper struct{ par int }

func (lowXGrouper) Name() string { return "lowx" }

func (g lowXGrouper) Group(rects []geom.Rect, max int) [][]int {
	return slices2(sortedByXY(centersOf(rects, g.par)), max)
}

// centersOf computes all rectangle centers, in parallel chunks when
// par > 1, so comparison functions don't recompute them per probe.
func centersOf(rects []geom.Rect, par int) []geom.Point {
	centers := make([]geom.Point, len(rects))
	parallelFor(len(rects), par, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			centers[i] = rects[i].Center()
		}
	})
	return centers
}

// identityOrder returns [0, 1, ..., n).
func identityOrder(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}

// sortedByXY returns the positions of centers ordered by x, then y —
// the paper's example criterion, ascending x-coordinate.
func sortedByXY(centers []geom.Point) []int {
	order := identityOrder(len(centers))
	sortByKey(order, centers, byXY)
	return order
}

// slices2 cuts an ordered index list into consecutive groups of max.
// All groups share one backing array (capacity-clipped so a later
// append cannot clobber a neighbor), keeping the allocation count
// constant rather than linear in the group count.
func slices2(order []int, max int) [][]int {
	n := len(order)
	if n == 0 {
		return nil
	}
	groups := make([][]int, 0, (n+max-1)/max)
	backing := make([]int, n)
	copy(backing, order)
	for start := 0; start < n; start += max {
		end := start + max
		if end > n {
			end = n
		}
		groups = append(groups, backing[start:end:end])
	}
	return groups
}
