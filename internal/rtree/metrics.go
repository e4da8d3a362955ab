package rtree

import "repro/internal/geom"

// This file computes the structural quality measures of the paper's
// Section 3.1 and Table 1.

// Metrics aggregates the paper's Table 1 columns for one tree.
type Metrics struct {
	Coverage       float64 // C: total area of all leaf-node MBRs
	Overlap        float64 // O: pairwise intersection area of leaf MBRs
	OverlapMeasure float64 // set-measure variant of O (area covered >= 2x)
	Depth          int     // D: edges from root to leaves
	Nodes          int     // N: total nodes including the root
	Leaves         int     // leaf nodes only
	Items          int     // stored data objects
	DeadSpace      float64 // leaf coverage minus union of leaf MBRs
}

// LeafRects returns the MBR of every leaf node. A tree whose root is a
// leaf has exactly one leaf rectangle (empty trees have none).
func (t *Tree) LeafRects() []geom.Rect {
	var out []geom.Rect
	t.walk(func(n *node, _ int) {
		if n.leaf && len(n.entries) > 0 {
			out = append(out, n.mbr())
		}
	})
	return out
}

// NodeCount returns the paper's N: every node in the tree including
// the root — every node of the slab that Delete has not released.
func (t *Tree) NodeCount() int { return len(t.nodes) - len(t.free) }

// LeafCount returns the number of leaf nodes.
func (t *Tree) LeafCount() int {
	count := 0
	t.walk(func(n *node, _ int) {
		if n.leaf {
			count++
		}
	})
	return count
}

// Coverage returns the paper's C: the total area of all leaf MBRs.
func (t *Tree) Coverage() float64 { return geom.CoverageArea(t.LeafRects()) }

// Overlap returns the paper's O: the total pairwise intersection area
// of leaf MBRs (multiplicity counted; see DESIGN.md).
func (t *Tree) Overlap() float64 { return geom.OverlapPairwise(t.LeafRects()) }

// SearchMetrics computes the measures a search-cost model reads —
// Items, Nodes, Leaves, Depth and Coverage — in one walk of the tree
// that allocates nothing. Leaves counts the non-empty leaves, and
// Coverage sums their areas in the order LeafRects lists them, so it
// equals CoverageArea of LeafRects bit for bit. Overlap and the two set
// measures each cost a sweep over the leaf rectangles and price
// nothing; they are left zero. ComputeMetrics is the full row.
func (t *Tree) SearchMetrics() Metrics {
	m := Metrics{Depth: t.Depth(), Items: t.Len(), Nodes: t.NodeCount()}
	t.walk(func(n *node, _ int) {
		if n.leaf && len(n.entries) > 0 {
			m.Leaves++
			m.Coverage += n.mbr().Area()
		}
	})
	return m
}

// ComputeMetrics gathers all structural measures of Table 1: the
// search metrics and the three sweeps over the leaf rectangles.
func (t *Tree) ComputeMetrics() Metrics {
	m := t.SearchMetrics()
	leaves := t.LeafRects()
	m.Overlap = geom.OverlapPairwise(leaves)
	m.OverlapMeasure = geom.OverlapMeasure(leaves)
	m.DeadSpace = geom.DeadSpace(leaves)
	return m
}

// LevelRects returns, for each level from the root (level 0) down to
// the leaves, the covering rectangles of the nodes at that level. The
// packviz tool renders these to show how PACK arranges each level
// (the paper's Figures 3.8b/3.8c).
func (t *Tree) LevelRects() [][]geom.Rect {
	if t.size == 0 {
		return nil
	}
	out := make([][]geom.Rect, t.height+1)
	t.walk(func(n *node, level int) {
		out[level] = append(out[level], n.mbr())
	})
	return out
}
