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
	if leaf < 0 {
		return false
	}
	t.node(leaf).removeEntryAt(idx)
	t.size--
	t.condenseTree(leaf)
	// If the root is an internal node with a single child, shorten the
	// tree.
	for root := t.node(t.root); !root.leaf && len(root.entries) == 1; root = t.node(t.root) {
		old := t.root
		t.root = int(root.entries[0].ref)
		t.freeNode(old)
		t.height--
	}
	return true
}

// findLeaf returns the index of the leaf containing the exact entry and
// the entry's index in it (-1, -1 when there is none), descending only
// into subtrees whose rectangle contains r. The descent to that leaf is
// left in t.path for condenseTree.
func (t *Tree) findLeaf(i int, r geom.Rect, data int64) (int, int) {
	n := t.node(i)
	if n.leaf {
		for j, e := range n.entries {
			if e.ref == data && e.rect.Eq(r) {
				return i, j
			}
		}
		return -1, -1
	}
	for j, e := range n.entries {
		if e.rect.Contains(r) {
			t.path = append(t.path, step{i, j})
			if leaf, k := t.findLeaf(int(e.ref), r, data); leaf >= 0 {
				return leaf, k
			}
			t.path = t.path[:len(t.path)-1]
		}
	}
	return -1, -1
}

// condenseTree climbs t.path from leaf n to the root: underfull nodes
// are removed from their parents, their entries queued and the nodes
// released; covering rectangles are tightened. Queued leaf entries are
// reinserted at the leaf level and queued subtrees at their original
// level, preserving leaf depth. The climb ends before the first
// reinsertion, which descends a path of its own.
func (t *Tree) condenseTree(n int) {
	type orphan struct {
		e     entry
		level int
	}
	var orphans []orphan
	for k := len(t.path) - 1; k >= 0; k-- {
		p, i := t.path[k].n, t.path[k].i
		if len(t.nodes[n].entries) < t.params.Min {
			t.node(p).removeEntryAt(i)
			for _, e := range t.nodes[n].entries {
				orphans = append(orphans, orphan{e: e, level: len(t.path) - 1 - k})
			}
			t.freeNode(n)
		} else {
			t.nodes[p].entries[i].rect = t.node(n).mbr()
		}
		n = p
	}
	for _, o := range orphans {
		t.insertEntry(o.e, o.level)
	}
}
