package rtree

import "repro/internal/geom"

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
// rectangle intersects the target window.
func (t *Tree) Search(window geom.Rect, fn func(Item) bool) int {
	visited := 0
	var walk func(n *node) bool
	walk = func(n *node) bool {
		visited++
		for _, e := range n.entries {
			if !e.rect.Intersects(window) {
				continue
			}
			if n.leaf {
				if !fn(e.item()) {
					return false
				}
			} else if !walk(e.child) {
				return false
			}
		}
		return true
	}
	walk(t.root)
	return visited
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
	var walk func(n *node)
	walk = func(n *node) {
		if n.leaf {
			for _, e := range n.entries {
				out = append(out, e.item())
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
	var walk func(n, m *node) bool
	walk = func(n, m *node) bool {
		visited++
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
					if !walk(n, eb.child) {
						return false
					}
				}
			}
		case m.leaf:
			mm := m.mbr()
			for _, ea := range n.entries {
				if ea.rect.Intersects(mm) {
					if !walk(ea.child, m) {
						return false
					}
				}
			}
		default:
			for _, ea := range n.entries {
				for _, eb := range m.entries {
					if ea.rect.Intersects(eb.rect) {
						if !walk(ea.child, eb.child) {
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
