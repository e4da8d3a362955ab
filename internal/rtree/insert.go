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
	t.insertEntry(entry{rect: r, ref: data}, 0)
	t.size++
}

// InsertItem adds it to the tree.
func (t *Tree) InsertItem(it Item) { t.Insert(it.Rect, it.Data) }

// insertEntry places e at the given level above the leaves (level 0 =
// leaf). Reinsertion during CondenseTree uses level > 0 for orphaned
// subtrees.
func (t *Tree) insertEntry(e entry, level int) {
	n := t.chooseNode(e.rect, level)
	t.nodes[n].entries = append(t.nodes[n].entries, e)
	split := -1
	if len(t.nodes[n].entries) > t.params.Max {
		split = t.splitNode(n)
	}
	t.adjustTree(n, split)
}

// chooseNode is Guttman's ChooseLeaf generalized to a target level:
// descend from the root, at each step picking the entry whose
// rectangle needs the least enlargement to include r, breaking ties by
// smallest area. The descent is left in t.path for adjustTree.
func (t *Tree) chooseNode(r geom.Rect, level int) int {
	t.path = t.path[:0]
	i := t.root
	depth := t.height
	for n := t.node(i); !n.leaf && depth > level; n = t.node(i) {
		best := 0
		bestEnl := n.entries[0].rect.Enlargement(r)
		bestArea := n.entries[0].rect.Area()
		for j := 1; j < len(n.entries); j++ {
			enl := n.entries[j].rect.Enlargement(r)
			area := n.entries[j].rect.Area()
			if enl < bestEnl || (enl == bestEnl && area < bestArea) {
				best, bestEnl, bestArea = j, enl, area
			}
		}
		t.path = append(t.path, step{i, best})
		i = int(n.entries[best].ref)
		depth--
	}
	return i
}

// adjustTree is Guttman's AdjustTree: climb t.path from node n to the
// root, fixing covering rectangles; when a split produced a new node
// nn (-1 when none did), install its entry in the parent, splitting
// again on overflow. A root split grows the tree one level.
func (t *Tree) adjustTree(n, nn int) {
	for k := len(t.path) - 1; k >= 0; k-- {
		p := t.path[k].n
		// Fix the covering rectangle of n's entry in its parent.
		t.nodes[p].entries[t.path[k].i].rect = t.node(n).mbr()
		if nn >= 0 {
			t.nodes[p].entries = append(t.nodes[p].entries, entry{rect: t.node(nn).mbr(), ref: int64(nn)})
			nn = -1
			if len(t.nodes[p].entries) > t.params.Max {
				nn = t.splitNode(p)
			}
		}
		n = p
	}
	if nn >= 0 {
		// Root split: create a new root pointing at both halves.
		root := t.newNode(false)
		t.nodes[root].entries = append(t.nodes[root].entries,
			entry{rect: t.node(n).mbr(), ref: int64(n)}, entry{rect: t.node(nn).mbr(), ref: int64(nn)})
		t.root = root
		t.height++
	}
}
