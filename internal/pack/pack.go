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
}

// Tree builds a packed R-tree over items with the given parameters, on
// the caller's goroutine: the paper's sequential PACK.
func Tree(params rtree.Params, items []rtree.Item, opts Options) *rtree.Tree {
	if opts.TrimToMultiple {
		n := len(items) - len(items)%params.Max
		items = items[:n]
	}
	return rtree.Bulk(params, items, Grouper(opts.Method))
}

// Grouper returns the rtree.Grouper implementing the given method.
func Grouper(m Method) rtree.Grouper {
	switch m {
	case MethodLowX:
		return lowXGrouper{}
	case MethodSTR:
		return strGrouper{}
	case MethodHilbert:
		return hilbertGrouper{}
	case MethodRotate:
		return rotateGrouper{}
	case MethodNNArea:
		return nnAreaGrouper{}
	default:
		return nnGrouper{}
	}
}

// lowXGrouper sorts by center x (breaking ties by y) and slices
// consecutive groups of max.
type lowXGrouper struct{}

func (lowXGrouper) Name() string { return "lowx" }

func (lowXGrouper) Group(rects []geom.Rect, max int) [][]int {
	return slices2(sortedByXY(centersOf(rects)), max)
}

// centersOf computes all rectangle centers once, so comparison
// functions don't recompute them per probe.
func centersOf(rects []geom.Rect) []geom.Point {
	centers := make([]geom.Point, len(rects))
	for i, r := range rects {
		centers[i] = r.Center()
	}
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
