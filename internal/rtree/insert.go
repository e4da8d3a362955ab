package rtree

import "repro/internal/geom"

// This file implements Guttman's INSERT: ChooseLeaf descends into the
// entry needing least enlargement, the new object is added to a leaf,
// overflowing nodes are split (see split.go), and AdjustTree propagates
// rectangle updates and splits toward the root. This is the dynamic
// baseline the paper compares PACK against (Table 1, "GUTTMAN'S
// INSERT").

// Insert adds an item with the given rectangle and data pointer.
func (t *Tree) Insert(r geom.Rect, data int64) {
	t.insertEntry(entry{rect: r, data: data}, 0)
	t.size++
}

// InsertItem adds it to the tree.
func (t *Tree) InsertItem(it Item) { t.Insert(it.Rect, it.Data) }

// insertEntry places e at the given level above the leaves (level 0 =
// leaf). Reinsertion during CondenseTree uses level > 0 for orphaned
// subtrees.
func (t *Tree) insertEntry(e entry, level int) {
	n := t.chooseNode(e.rect, level)
	n.entries = append(n.entries, e)
	var split *node
	if len(n.entries) > t.params.Max {
		split = t.splitNode(n)
	}
	t.adjustTree(n, split)
}

// chooseNode is Guttman's ChooseLeaf generalized to a target level:
// descend from the root, at each step picking the entry whose
// rectangle needs the least enlargement to include r, breaking ties by
// smallest area. The descent is left in t.path for adjustTree.
func (t *Tree) chooseNode(r geom.Rect, level int) *node {
	t.path = t.path[:0]
	n := t.root
	depth := t.height
	for !n.leaf && depth > level {
		best := 0
		bestEnl := n.entries[0].rect.Enlargement(r)
		bestArea := n.entries[0].rect.Area()
		for i := 1; i < len(n.entries); i++ {
			enl := n.entries[i].rect.Enlargement(r)
			area := n.entries[i].rect.Area()
			if enl < bestEnl || (enl == bestEnl && area < bestArea) {
				best, bestEnl, bestArea = i, enl, area
			}
		}
		t.path = append(t.path, step{n, best})
		n = n.entries[best].child
		depth--
	}
	return n
}

// adjustTree is Guttman's AdjustTree: climb t.path from n to the
// root, fixing covering rectangles; when a split produced a new node
// nn, install its entry in the parent, splitting again on overflow. A
// root split grows the tree one level.
func (t *Tree) adjustTree(n, nn *node) {
	for k := len(t.path) - 1; k >= 0; k-- {
		p := t.path[k].n
		// Fix the covering rectangle of n's entry in its parent.
		p.entries[t.path[k].i].rect = n.mbr()
		if nn != nil {
			p.entries = append(p.entries, entry{rect: nn.mbr(), child: nn})
			nn = nil
			if len(p.entries) > t.params.Max {
				nn = t.splitNode(p)
			}
		}
		n = p
	}
	if nn != nil {
		// Root split: create a new root pointing at both halves.
		newRoot := newNode(false, t.params.Max+1)
		newRoot.entries = append(newRoot.entries,
			entry{rect: n.mbr(), child: n}, entry{rect: nn.mbr(), child: nn})
		t.root = newRoot
		t.height++
	}
}
