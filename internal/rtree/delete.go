package rtree

import "repro/internal/geom"

// This file implements Guttman's DELETE: FindLeaf locates the leaf
// holding the record, the entry is removed, and CondenseTree
// eliminates underfull nodes, reinserting their orphaned entries at
// the appropriate level. Section 3.4 of the paper argues INSERT and
// DELETE keep working on PACKed trees, which the cartography example
// and the update-drift experiment exercise.

// Delete removes one item matching (r, data) exactly. It reports
// whether an item was found and removed.
func (t *Tree) Delete(r geom.Rect, data int64) bool {
	t.path = t.path[:0]
	leaf, idx := t.findLeaf(t.root, r, data)
	if leaf == nil {
		return false
	}
	leaf.removeEntryAt(idx)
	t.size--
	t.condenseTree(leaf)
	// If the root is an internal node with a single child, shorten the
	// tree.
	for !t.root.leaf && len(t.root.entries) == 1 {
		t.root = t.root.entries[0].child
		t.height--
	}
	return true
}

// findLeaf returns the leaf containing the exact entry and its index,
// descending only into subtrees whose rectangle contains r. The
// descent to that leaf is left in t.path for condenseTree.
func (t *Tree) findLeaf(n *node, r geom.Rect, data int64) (*node, int) {
	if n.leaf {
		for i, e := range n.entries {
			if e.data == data && e.rect.Eq(r) {
				return n, i
			}
		}
		return nil, -1
	}
	for i, e := range n.entries {
		if e.rect.Contains(r) {
			t.path = append(t.path, step{n, i})
			if leaf, j := t.findLeaf(e.child, r, data); leaf != nil {
				return leaf, j
			}
			t.path = t.path[:len(t.path)-1]
		}
	}
	return nil, -1
}

// condenseTree climbs t.path from leaf n to the root: underfull nodes
// are removed from their parents and their entries queued; covering
// rectangles are tightened. Queued leaf entries are reinserted at the
// leaf level and queued subtrees at their original level, preserving
// leaf depth. The climb ends before the first reinsertion, which
// descends a path of its own.
func (t *Tree) condenseTree(n *node) {
	type orphan struct {
		e     entry
		level int
	}
	var orphans []orphan
	for k := len(t.path) - 1; k >= 0; k-- {
		p, i := t.path[k].n, t.path[k].i
		if len(n.entries) < t.params.Min {
			p.removeEntryAt(i)
			for _, e := range n.entries {
				orphans = append(orphans, orphan{e: e, level: len(t.path) - 1 - k})
			}
		} else {
			p.entries[i].rect = n.mbr()
		}
		n = p
	}
	for _, o := range orphans {
		t.insertEntry(o.e, o.level)
	}
}
