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

// SearchWithin visits every item whose rectangle is wholly contained
// in window (the paper's WITHIN predicate at the leaves: "List all
// points and regions within target window"). Internal nodes are still
// pruned by intersection, since an object within the window may live
// in a leaf whose MBR merely intersects it. Returns nodes visited.
func (t *Tree) SearchWithin(window geom.Rect, fn func(Item) bool) int {
	visited := 0
	var walk func(n *node) bool
	walk = func(n *node) bool {
		visited++
		for _, e := range n.entries {
			if n.leaf {
				if window.Contains(e.rect) && !fn(e.item()) {
					return false
				}
			} else if e.rect.Intersects(window) && !walk(e.child) {
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

// NearestNeighbor returns the item whose rectangle is closest to p
// (minimal distance from p to the rectangle; an item containing p has
// distance 0), using branch-and-bound descent ordered by rectangle
// distance. The boolean is false when the tree is empty. The visit
// count is returned for cost accounting. This query is not in the 1985
// paper but became the canonical R-tree NN search (Roussopoulos,
// Kelley & Vincent, SIGMOD 1995) and PSQL-style languages need it for
// "nearest object" functions.
func (t *Tree) NearestNeighbor(p geom.Point) (Item, bool, int) {
	if t.size == 0 {
		return Item{}, false, 0
	}
	best := Item{}
	bestDist := -1.0
	visited := 0
	var walk func(n *node)
	walk = func(n *node) {
		visited++
		if n.leaf {
			for _, e := range n.entries {
				d := rectPointDist(e.rect, p)
				if bestDist < 0 || d < bestDist {
					best, bestDist = e.item(), d
				}
			}
			return
		}
		// Order children by distance; prune those no closer than best.
		type cand struct {
			d float64
			c *node
		}
		cands := make([]cand, 0, len(n.entries))
		for _, e := range n.entries {
			cands = append(cands, cand{rectPointDist(e.rect, p), e.child})
		}
		for i := 1; i < len(cands); i++ {
			for j := i; j > 0 && cands[j].d < cands[j-1].d; j-- {
				cands[j], cands[j-1] = cands[j-1], cands[j]
			}
		}
		for _, c := range cands {
			if bestDist >= 0 && c.d > bestDist {
				break
			}
			walk(c.c)
		}
	}
	walk(t.root)
	return best, true, visited
}

// rectPointDist returns the minimal distance from p to rectangle r
// (zero when r contains p).
func rectPointDist(r geom.Rect, p geom.Point) float64 {
	dx := 0.0
	if p.X < r.Min.X {
		dx = r.Min.X - p.X
	} else if p.X > r.Max.X {
		dx = p.X - r.Max.X
	}
	dy := 0.0
	if p.Y < r.Min.Y {
		dy = r.Min.Y - p.Y
	} else if p.Y > r.Max.Y {
		dy = p.Y - r.Max.Y
	}
	if dx == 0 {
		return dy
	}
	if dy == 0 {
		return dx
	}
	return geom.Pt(0, 0).Dist(geom.Pt(dx, dy))
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
