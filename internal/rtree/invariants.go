package rtree

import "fmt"

// CheckInvariants validates the R-tree structural invariants of
// [Guttman 1984] §2: covering rectangles are exactly the MBR of the
// entries below them, every non-root node holds between m and M
// entries (the root at least 2 unless it is a leaf), all leaves lie at
// the same depth, and the recorded size and height match the
// structure. Bulk-built (packed) trees may be
// checked with requireMinFill=false at the last group of each level,
// so packing checks use the same function. It returns nil when the
// tree is valid.
func (t *Tree) CheckInvariants() error {
	if t.root == nil {
		return fmt.Errorf("rtree: nil root")
	}
	if !t.root.leaf && len(t.root.entries) < 2 {
		return fmt.Errorf("rtree: internal root has %d entries, want >= 2", len(t.root.entries))
	}
	items := 0
	leafDepth := -1
	var walk func(n *node, depth int) error
	walk = func(n *node, depth int) error {
		if n != t.root {
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
			for _, e := range n.entries {
				if e.child != nil {
					return fmt.Errorf("rtree: leaf entry has a child pointer")
				}
			}
			return nil
		}
		for i, e := range n.entries {
			if e.child == nil {
				return fmt.Errorf("rtree: internal entry %d has no child", i)
			}
			if got := e.child.mbr(); !got.Eq(e.rect) {
				return fmt.Errorf("rtree: entry rect %v != child MBR %v at depth %d", e.rect, got, depth)
			}
			if err := walk(e.child, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root, 0); err != nil {
		return err
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
