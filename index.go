package pictdb

import (
	"repro/internal/pack"
	"repro/internal/rtree"
)

// Index-level public API: direct access to the R-tree and the packing
// algorithms for applications that want the spatial index without the
// relational machinery (the paper's Section 3 in isolation).

type (
	// Index is an R-tree spatial index.
	Index = rtree.Tree
	// IndexItem is one indexed object: an MBR plus an opaque int64.
	IndexItem = rtree.Item
	// IndexMetrics reports the paper's structural quality measures.
	IndexMetrics = rtree.Metrics
	// SplitKind selects Guttman's overflow split heuristic.
	SplitKind = rtree.SplitKind
	// PackMethod selects a packing strategy.
	PackMethod = pack.Method
)

// Split heuristics for dynamic inserts.
const (
	SplitQuadratic  = rtree.SplitQuadratic
	SplitLinear     = rtree.SplitLinear
	SplitExhaustive = rtree.SplitExhaustive
)

// DefaultRTreeParams returns the paper's configuration: branching
// factor 4 with m = 2 and the quadratic split.
func DefaultRTreeParams() RTreeParams { return rtree.DefaultParams() }

// NewIndex creates an empty dynamic R-tree (Guttman's INSERT/DELETE
// maintain it).
func NewIndex(params RTreeParams) *Index { return rtree.New(params) }

// PackIndex bulk-loads a packed R-tree over items using the paper's
// PACK algorithm or one of its descendants.
func PackIndex(params RTreeParams, items []IndexItem, opts PackOptions) *Index {
	return pack.Tree(params, items, opts)
}

// JoinIndexes performs a simultaneous traversal of two indexes,
// reporting item pairs whose rectangles satisfy pred — the primitive
// behind PSQL's juxtaposition. It returns the number of node pairs
// visited.
var JoinIndexes = rtree.JoinPairs
