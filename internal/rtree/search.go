package rtree

import (
	"slices"
	"sync"

	"repro/internal/geom"
)

// This file implements the paper's Section 3.1 SEARCH procedure and its
// variants. Every search returns the number of R-tree nodes visited —
// the paper's measure A — so experiments can report search cost
// structurally, independent of hardware.
//
// Visit counts are returned to the caller and accumulated nowhere else,
// so any number of goroutines may search one tree concurrently; see the
// concurrency note on Tree.

// Search visits every item whose rectangle intersects window and calls
// fn on it; returning false from fn stops the search early. It returns
// the number of nodes visited. This is the INTERSECTS/visit form of
// the paper's SEARCH: a subtree is descended only when its bounding
// rectangle intersects the target window. SearchBatch's walk answers
// many windows; a single window keeps this one, which the Table 1
// point queries ran 10–37% faster than a one-window batched walk
// (EXPERIMENTS.md "PR 48").
func (t *Tree) Search(window geom.Rect, fn func(Item) bool) int {
	visited := 0
	var walk func(i int) bool
	walk = func(i int) bool {
		visited++
		n := t.node(i)
		// Index the entries rather than copy each one out: the copy
		// cost a window search about 5%.
		for k := range n.entries {
			e := &n.entries[k]
			if !e.rect.Intersects(window) {
				continue
			}
			if n.leaf {
				if !fn(e.item()) {
					return false
				}
			} else if !walk(int(e.ref)) {
				return false
			}
		}
		return true
	}
	walk(t.root)
	return visited
}

// SearchBatch is SEARCH for many windows in one descent. Each node is
// visited once however many windows reach it: the walk carries down to
// a child the windows that intersect the child's entry rectangle — the
// windows whose own Search would visit that child — and calls
// fn(w, item) for every item whose rectangle intersects windows[w],
// each item's windows in ascending order. Returning false from fn stops
// the search. It returns the number of nodes visited, which is the size
// of the union of the node sets the windows' single searches visit: the
// root once for any window, nothing for none. A one-window batch is
// Search itself: the same hits, in the same order, and the same count.
func (t *Tree) SearchBatch(windows []geom.Rect, fn func(w int, it Item) bool) int {
	switch len(windows) {
	case 0:
		return 0
	case 1:
		return t.Search(windows[0], func(it Item) bool { return fn(0, it) })
	}
	// The stack holds one set per node of the current path and the set
	// of the leaf entry being tested, none larger than the windows: need
	// bounds it.
	need := len(windows) * (t.height + 2)
	p := setStacks.Get().(*[]int32)
	*p = slices.Grow((*p)[:0], need)[:need]
	b := batchWalk{t: t, windows: windows, fn: fn, sets: *p}
	for w := range windows {
		b.sets[w] = int32(w)
	}
	b.walk(t.root, 0, len(windows))
	if cap(*p) <= maxPooledSets {
		setStacks.Put(p)
	}
	return b.visited
}

// setStacks holds the window-set stacks of batched searches.
var setStacks = sync.Pool{New: func() any { return new([]int32) }}

// maxPooledSets caps the stacks setStacks keeps: a batch of many
// windows over a tall tree leaves its stack to the collector.
const maxPooledSets = 32 << 10

// batchWalk is one SearchBatch descent. sets is a stack of window
// numbers: the set each node of the current path was entered with, a
// child's set written above its parent's.
type batchWalk struct {
	t       *Tree
	windows []geom.Rect
	fn      func(w int, it Item) bool
	sets    []int32
	visited int
}

// walk visits node i with the windows sets[lo:hi], the top of the
// stack, and reports false when fn stopped the search.
func (b *batchWalk) walk(i, lo, hi int) bool {
	b.visited++
	n := b.t.node(i)
	for k := range n.entries {
		e := &n.entries[k]
		top := hi
		for _, w := range b.sets[lo:hi] {
			if e.rect.Intersects(b.windows[w]) {
				b.sets[top] = w
				top++
			}
		}
		switch {
		case top == hi:
		case n.leaf:
			for _, w := range b.sets[hi:top] {
				if !b.fn(int(w), e.item()) {
					return false
				}
			}
		default:
			if !b.walk(int(e.ref), hi, top) {
				return false
			}
		}
	}
	return true
}

// Query returns all items intersecting window, in tree order, along
// with the number of nodes visited.
func (t *Tree) Query(window geom.Rect) ([]Item, int) {
	var out []Item
	visited := t.Search(window, func(it Item) bool {
		out = append(out, it)
		return true
	})
	return out, visited
}

// ContainsPoint answers the paper's Table 1 query "Is point (x,y)
// contained in the database?": it reports whether any stored item's
// rectangle contains p, along with the nodes visited. For point data
// the item rectangles are degenerate, so this is an exact-match probe.
func (t *Tree) ContainsPoint(p geom.Point) (bool, int) {
	window := p.Rect()
	found := false
	visited := t.Search(window, func(Item) bool {
		found = true
		return false
	})
	return found, visited
}

// Items returns every stored item in leaf order.
func (t *Tree) Items() []Item {
	out := make([]Item, 0, t.size)
	t.walk(func(n *node, _ int) {
		if n.leaf {
			for _, e := range n.entries {
				out = append(out, e.item())
			}
		}
	})
	return out
}

// JoinPairs performs the paper's juxtaposition primitive: a
// simultaneous traversal of two R-trees that reports every pair of
// items (a from t, b from u) whose rectangles satisfy pred, pruning
// subtree pairs whose MBRs do not intersect. pred receives the two
// item rectangles. It returns the number of node pairs visited, the
// cost unit for comparing against the nested-loop baseline.
//
// The intersection pruning rule is sound for any predicate that
// implies intersection (covered-by, covering, overlapping); for
// "disjoined" use a nested loop instead, since disjoint pairs are
// exactly the ones pruned.
func JoinPairs(t, u *Tree, pred func(a, b geom.Rect) bool, fn func(a, b Item) bool) int {
	visited := 0
	var walk func(i, j int) bool
	walk = func(i, j int) bool {
		visited++
		n, m := t.node(i), u.node(j)
		switch {
		case n.leaf && m.leaf:
			for _, ea := range n.entries {
				for _, eb := range m.entries {
					if pred(ea.rect, eb.rect) {
						if !fn(ea.item(), eb.item()) {
							return false
						}
					}
				}
			}
		case n.leaf:
			nm := n.mbr()
			for _, eb := range m.entries {
				if nm.Intersects(eb.rect) {
					if !walk(i, int(eb.ref)) {
						return false
					}
				}
			}
		case m.leaf:
			mm := m.mbr()
			for _, ea := range n.entries {
				if ea.rect.Intersects(mm) {
					if !walk(int(ea.ref), j) {
						return false
					}
				}
			}
		default:
			for _, ea := range n.entries {
				for _, eb := range m.entries {
					if ea.rect.Intersects(eb.rect) {
						if !walk(int(ea.ref), int(eb.ref)) {
							return false
						}
					}
				}
			}
		}
		return true
	}
	if t.size > 0 && u.size > 0 {
		walk(t.root, u.root)
	}
	return visited
}
