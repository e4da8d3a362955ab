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

// entry is one slot of a node, the paper's ENTRY record: a bounding
// rectangle and a reference. In an internal node ref is the child's
// index in Tree.nodes, as the paper's NODE names a child by its disk
// address; in a leaf it is the data pointer. The node's leaf flag says
// which. An entry holds no pointer, so the collector never traces one.
type entry struct {
	rect geom.Rect
	ref  int64
}

func (e entry) item() Item { return Item{Rect: e.rect, Data: e.ref} }

// node is an R-tree node, the paper's NODE record: CLASS is the leaf
// flag, DESC the entry array, VALID its length.
type node struct {
	leaf    bool
	entries []entry
}

// mbr returns the minimal bounding rectangle of all entries of n.
func (n *node) mbr() geom.Rect {
	out := geom.EmptyRect()
	for _, e := range n.entries {
		out = out.Union(e.rect)
	}
	return out
}

// removeEntryAt deletes entry i, preserving order of the rest.
func (n *node) removeEntryAt(i int) {
	n.entries = append(n.entries[:i], n.entries[i+1:]...)
}

// step is one step of a descent: the index of the node passed through
// and the index of the entry followed out of it.
type step struct {
	n, i int
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
// Concurrency: all read operations (Search, Query, ContainsPoint,
// JoinPairs, Items, the metrics walkers) are safe for any number of
// concurrent readers — they write nothing shared: each counts its
// visits in a local and returns the count. Mutations (Insert, Delete)
// require exclusive access: callers interleaving writes with reads must
// serialize externally, the usual R-tree contract.
type Tree struct {
	params Params
	// nodes is the slab every node of the tree lives in; root and every
	// internal entry's ref index it. free lists the indices Delete has
	// released, for newNode to hand out again.
	nodes  []node
	free   []int
	root   int
	height int // depth: edges from root to leaves; 0 when root is a leaf
	size   int // number of stored items
	// path is the descent of the running Insert or Delete, root first:
	// AdjustTree and CondenseTree climb it, so no node keeps a link to
	// its parent. Mutations have exclusive access, so one slice serves.
	path []step
}

// New returns an empty R-tree with the given parameters. It panics if
// the parameters are invalid (a programming error, not a data error).
func New(params Params) *Tree {
	if err := params.Validate(); err != nil {
		panic(err)
	}
	t := &Tree{params: params}
	t.root = t.newNode(true)
	return t
}

// node returns the node at index i. The pointer stays valid only until
// the next newNode, which may grow the slab: code that allocates holds
// an index across the allocation, never a pointer.
func (t *Tree) node(i int) *node { return &t.nodes[i] }

// newNode returns the index of an empty node, reusing a released one
// when there is one. Its entries have capacity Max+1, room for the
// overflow a split then resolves.
func (t *Tree) newNode(leaf bool) int {
	if k := len(t.free); k > 0 {
		i := t.free[k-1]
		t.free = t.free[:k-1]
		t.nodes[i].leaf = leaf
		return i
	}
	t.nodes = append(t.nodes, node{leaf: leaf, entries: make([]entry, 0, t.params.Max+1)})
	return len(t.nodes) - 1
}

// freeNode releases node i, keeping its entries' capacity for reuse.
func (t *Tree) freeNode(i int) {
	t.nodes[i].entries = t.nodes[i].entries[:0]
	t.free = append(t.free, i)
}

// walk visits every node depth first, each before its children and the
// children in entry order, with the node's depth below the root.
func (t *Tree) walk(visit func(n *node, depth int)) { t.walkFrom(t.root, 0, visit) }

func (t *Tree) walkFrom(i, depth int, visit func(n *node, depth int)) {
	n := t.node(i)
	visit(n, depth)
	if n.leaf {
		return
	}
	for _, e := range n.entries {
		t.walkFrom(int(e.ref), depth+1, visit)
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
func (t *Tree) Bounds() geom.Rect { return t.node(t.root).mbr() }
