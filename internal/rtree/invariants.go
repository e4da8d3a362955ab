package rtree

import "fmt"

// CheckInvariants validates the R-tree structural invariants of
// [Guttman 1984] §2: covering rectangles are exactly the MBR of the
// entries below them, every non-root node holds between m and M
// entries (the root at least 2 unless it is a leaf), all leaves lie at
// the same depth, and the recorded size and height match the
// structure. It also checks the slab: every child index lies inside
// it, and every slab node is reached exactly once or is on the free
// list. Bulk-built (packed) trees satisfy the same invariants, so
// packing checks use the same function. It returns nil when the tree
// is valid.
func (t *Tree) CheckInvariants() error {
	if t.root < 0 || t.root >= len(t.nodes) {
		return fmt.Errorf("rtree: root %d outside a slab of %d nodes", t.root, len(t.nodes))
	}
	if root := t.node(t.root); !root.leaf && len(root.entries) < 2 {
		return fmt.Errorf("rtree: internal root has %d entries, want >= 2", len(root.entries))
	}
	reached := make([]bool, len(t.nodes))
	for _, i := range t.free {
		if i < 0 || i >= len(t.nodes) || reached[i] {
			return fmt.Errorf("rtree: free node %d outside a slab of %d nodes or listed twice", i, len(t.nodes))
		}
		reached[i] = true
	}
	items := 0
	leafDepth := -1
	var walk func(i, depth int) error
	walk = func(i, depth int) error {
		if reached[i] {
			return fmt.Errorf("rtree: node %d at depth %d is reached twice or is free", i, depth)
		}
		reached[i] = true
		n := t.node(i)
		if i != t.root {
			if len(n.entries) < t.params.Min {
				return fmt.Errorf("rtree: node at depth %d underfull: %d < m=%d", depth, len(n.entries), t.params.Min)
			}
		}
		if len(n.entries) > t.params.Max {
			return fmt.Errorf("rtree: node at depth %d overfull: %d > M=%d", depth, len(n.entries), t.params.Max)
		}
		if n.leaf {
			if leafDepth == -1 {
				leafDepth = depth
			} else if leafDepth != depth {
				return fmt.Errorf("rtree: leaves at differing depths %d and %d", leafDepth, depth)
			}
			items += len(n.entries)
			return nil
		}
		for j, e := range n.entries {
			if e.ref < 0 || e.ref >= int64(len(t.nodes)) {
				return fmt.Errorf("rtree: internal entry %d at depth %d names node %d outside a slab of %d", j, depth, e.ref, len(t.nodes))
			}
			if got := t.node(int(e.ref)).mbr(); !got.Eq(e.rect) {
				return fmt.Errorf("rtree: entry rect %v != child MBR %v at depth %d", e.rect, got, depth)
			}
			if err := walk(int(e.ref), depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root, 0); err != nil {
		return err
	}
	for i, ok := range reached {
		if !ok {
			return fmt.Errorf("rtree: node %d is neither reached nor free", i)
		}
	}
	if items != t.size {
		return fmt.Errorf("rtree: size %d but %d items found", t.size, items)
	}
	wantDepth := leafDepth
	if t.size == 0 {
		wantDepth = 0
	}
	if t.height != wantDepth {
		return fmt.Errorf("rtree: height %d but leaves at depth %d", t.height, wantDepth)
	}
	return nil
}
