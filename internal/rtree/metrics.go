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
	var walk func(n *node)
	walk = func(n *node) {
		if n.leaf {
			if len(n.entries) > 0 {
				out = append(out, n.mbr())
			}
			return
		}
		for _, e := range n.entries {
			walk(e.child)
		}
	}
	walk(t.root)
	return out
}

// NodeCount returns the paper's N: every node in the tree including
// the root.
func (t *Tree) NodeCount() int {
	count := 0
	var walk func(n *node)
	walk = func(n *node) {
		count++
		if n.leaf {
			return
		}
		for _, e := range n.entries {
			walk(e.child)
		}
	}
	walk(t.root)
	return count
}

// LeafCount returns the number of leaf nodes.
func (t *Tree) LeafCount() int {
	count := 0
	var walk func(n *node)
	walk = func(n *node) {
		if n.leaf {
			count++
			return
		}
		for _, e := range n.entries {
			walk(e.child)
		}
	}
	walk(t.root)
	return count
}

// Coverage returns the paper's C: the total area of all leaf MBRs.
func (t *Tree) Coverage() float64 { return geom.CoverageArea(t.LeafRects()) }

// Overlap returns the paper's O: the total pairwise intersection area
// of leaf MBRs (multiplicity counted; see DESIGN.md).
func (t *Tree) Overlap() float64 { return geom.OverlapPairwise(t.LeafRects()) }

// SearchMetrics computes the measures a search-cost model reads —
// Coverage, Overlap, Depth, Nodes, Leaves, Items — from one walk of the
// tree and the pairwise sweep over its leaf rectangles. The two set
// measures, OverlapMeasure and DeadSpace, cost a plane sweep each and
// price nothing; they are left zero. ComputeMetrics is the full row.
func (t *Tree) SearchMetrics() Metrics {
	var leaves []geom.Rect
	nodes := 0
	var walk func(n *node)
	walk = func(n *node) {
		nodes++
		if n.leaf {
			if len(n.entries) > 0 {
				leaves = append(leaves, n.mbr())
			}
			return
		}
		for _, e := range n.entries {
			walk(e.child)
		}
	}
	walk(t.root)
	return Metrics{
		Coverage: geom.CoverageArea(leaves),
		Overlap:  geom.OverlapPairwise(leaves),
		Depth:    t.Depth(),
		Nodes:    nodes,
		Leaves:   len(leaves),
		Items:    t.Len(),
	}
}

// WithSetMeasures completes m, the tree's SearchMetrics, with
// OverlapMeasure and DeadSpace; the result equals ComputeMetrics.
func (t *Tree) WithSetMeasures(m Metrics) Metrics {
	leaves := t.LeafRects()
	m.OverlapMeasure = geom.OverlapMeasure(leaves)
	m.DeadSpace = geom.DeadSpace(leaves)
	return m
}

// ComputeMetrics gathers all structural measures of Table 1.
func (t *Tree) ComputeMetrics() Metrics { return t.WithSetMeasures(t.SearchMetrics()) }

// LevelRects returns, for each level from the root (level 0) down to
// the leaves, the covering rectangles of the nodes at that level. The
// packviz tool renders these to show how PACK arranges each level
// (the paper's Figures 3.8b/3.8c).
func (t *Tree) LevelRects() [][]geom.Rect {
	if t.size == 0 {
		return nil
	}
	out := make([][]geom.Rect, t.height+1)
	var walk func(n *node, level int)
	walk = func(n *node, level int) {
		out[level] = append(out[level], n.mbr())
		if n.leaf {
			return
		}
		for _, e := range n.entries {
			walk(e.child, level+1)
		}
	}
	walk(t.root, 0)
	return out
}
