// Package rtree implements Guttman's R-tree — the "two-dimensional
// B-tree" the paper builds on — with the dynamic INSERT and DELETE
// algorithms of [Guttman 1984], the recursive window SEARCH of the
// paper's Section 3.1, instrumented node-visit counting, the structural
// quality metrics of Section 3.1 (coverage, overlap, depth, node
// count), and a bulk-build entry point that the packing algorithms of
// package pack plug into.
//
// The tree stores Items: a minimal bounding rectangle plus an opaque
// int64 data pointer (in the pictorial database, a tuple identifier —
// the paper's "(I, tuple-identifier)" leaf entries).
package rtree

import (
	"fmt"

	"repro/internal/geom"
)

// Item is one spatial data object: its minimal bounding rectangle and
// the tuple identifier it indexes.
type Item struct {
	Rect geom.Rect
	Data int64
}

// entry is one slot of a node: a bounding rectangle plus either a child
// node (internal entries) or a data pointer (leaf entries), mirroring
// the paper's ENTRY record.
type entry struct {
	rect  geom.Rect
	child *node // non-nil for internal entries
	data  int64 // valid for leaf entries
}

func (e entry) item() Item { return Item{Rect: e.rect, Data: e.data} }

// node is an R-tree node, the paper's NODE record: CLASS is the leaf
// flag, DESC the entry array, VALID its length.
type node struct {
	leaf    bool
	entries []entry
	parent  *node
}

func newNode(leaf bool, capacity int) *node {
	return &node{leaf: leaf, entries: make([]entry, 0, capacity)}
}

// mbr returns the minimal bounding rectangle of all entries of n.
func (n *node) mbr() geom.Rect {
	out := geom.EmptyRect()
	for _, e := range n.entries {
		out = out.Union(e.rect)
	}
	return out
}

func (n *node) addEntry(e entry) {
	n.entries = append(n.entries, e)
	if e.child != nil {
		e.child.parent = n
	}
}

// removeEntryAt deletes entry i, preserving order of the rest.
func (n *node) removeEntryAt(i int) {
	n.entries = append(n.entries[:i], n.entries[i+1:]...)
}

// entryIndex returns the index of the entry pointing at child, or -1.
func (n *node) entryIndex(child *node) int {
	for i, e := range n.entries {
		if e.child == child {
			return i
		}
	}
	return -1
}

// SplitKind selects Guttman's node-splitting heuristic.
type SplitKind int

const (
	// SplitQuadratic is Guttman's quadratic-cost split (his default and
	// the variant assumed for the paper's INSERT baseline).
	SplitQuadratic SplitKind = iota
	// SplitLinear is Guttman's linear-cost split.
	SplitLinear
	// SplitExhaustive tries every 2-partition of the M+1 entries and
	// keeps the one with minimal total area; exponential in M, only
	// sensible for small branching factors such as the paper's 4.
	SplitExhaustive
)

// String names the split kind.
func (k SplitKind) String() string {
	switch k {
	case SplitQuadratic:
		return "quadratic"
	case SplitLinear:
		return "linear"
	case SplitExhaustive:
		return "exhaustive"
	default:
		return fmt.Sprintf("SplitKind(%d)", int(k))
	}
}

// Params configures an R-tree. The paper's experiments use a branching
// factor of four: Max=4, Min=2.
type Params struct {
	// Max is M, the maximum entries per node (branching factor).
	Max int
	// Min is m, the minimum entries per non-root node; must satisfy
	// 1 <= Min <= Max/2.
	Min int
	// Split selects the overflow splitting heuristic.
	Split SplitKind
}

// DefaultParams returns the paper's configuration: branching factor 4
// with m = 2 and the quadratic split.
func DefaultParams() Params { return Params{Max: 4, Min: 2, Split: SplitQuadratic} }

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.Max < 2 {
		return fmt.Errorf("rtree: Max must be at least 2, got %d", p.Max)
	}
	if p.Min < 1 || p.Min > p.Max/2 {
		return fmt.Errorf("rtree: Min must satisfy 1 <= Min <= Max/2, got Min=%d Max=%d", p.Min, p.Max)
	}
	return nil
}

// Tree is an in-memory R-tree.
//
// Concurrency: all read operations (Search, SearchWithin, Query,
// ContainsPoint, NearestNeighbor(s), JoinPairs, Items, the metrics
// walkers) are safe for any number of concurrent readers — they write
// nothing shared: each counts its visits in a local and returns the
// count. Mutations (Insert, Delete) require exclusive access: callers
// interleaving writes with reads must serialize externally, the usual
// R-tree contract.
type Tree struct {
	params Params
	root   *node
	height int // depth: edges from root to leaves; 0 when root is a leaf
	size   int // number of stored items
}

// New returns an empty R-tree with the given parameters. It panics if
// the parameters are invalid (a programming error, not a data error).
func New(params Params) *Tree {
	if err := params.Validate(); err != nil {
		panic(err)
	}
	return &Tree{
		params: params,
		root:   newNode(true, params.Max+1),
	}
}

// Params returns the tree's configuration.
func (t *Tree) Params() Params { return t.params }

// Len returns the number of items stored in the tree.
func (t *Tree) Len() int { return t.size }

// Depth returns the paper's D: the number of edges from the root down
// to the leaf level. A tree whose root is a leaf has depth 0.
func (t *Tree) Depth() int { return t.height }

// Bounds returns the MBR of everything in the tree (empty when the
// tree is empty).
func (t *Tree) Bounds() geom.Rect { return t.root.mbr() }
