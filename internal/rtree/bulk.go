package rtree

import (
	"fmt"

	"repro/internal/geom"
)

// Grouper is the pluggable heart of packing: it partitions one R-tree
// level's rectangles into node groups of at most max entries. The PACK
// algorithm of the paper, and its descendants (lowx sort, STR,
// Hilbert), are Groupers; Bulk applies one level by level, bottom-up,
// exactly as the paper's recursive PACK does ("PACK is then called
// recursively using the list of leaf MBRs as data objects ... until
// the root is finally reached").
type Grouper interface {
	// Name identifies the grouping strategy in reports.
	Name() string
	// Group partitions the indices 0..len(rects)-1 into groups of
	// size at most max. Every index must appear in exactly one group
	// and no group may be empty.
	Group(rects []geom.Rect, max int) [][]int
}

// Bulk builds a packed R-tree over items using grouper g at every
// level. Underfull trailing groups (possible when the item count is
// not a multiple of the branching factor) are rebalanced with a donor
// group so the result satisfies the same m-fill invariants as a
// dynamically built tree. Bulk panics if g violates its contract (a
// programming error in the grouper, not a data error).
func Bulk(params Params, items []Item, g Grouper) *Tree {
	if err := params.Validate(); err != nil {
		panic(err)
	}
	t := &Tree{params: params}
	if len(items) == 0 {
		t.root = newNode(true, params.Max+1)
		return t
	}

	// Build the leaf level.
	rects := make([]geom.Rect, len(items))
	for i, it := range items {
		rects[i] = it.Rect
	}
	groups := checkedGroups(g, rects, params)
	level := slab(len(groups), params, true)
	for gi, grp := range groups {
		n := &level[gi]
		for _, idx := range grp {
			n.entries = append(n.entries, entry{rect: items[idx].Rect, data: items[idx].Data})
		}
	}

	// Build internal levels until a single node remains.
	height := 0
	for len(level) > 1 {
		rects = rects[:len(level)]
		for i := range level {
			rects[i] = level[i].mbr()
		}
		groups = checkedGroups(g, rects, params)
		next := slab(len(groups), params, false)
		for gi, grp := range groups {
			n := &next[gi]
			for _, idx := range grp {
				n.entries = append(n.entries, entry{rect: rects[idx], child: &level[idx]})
			}
		}
		level = next
		height++
	}
	t.root = &level[0]
	t.height = height
	t.size = len(items)
	return t
}

// slab cuts a level of n nodes from one slab of nodes, and their
// entries from one slab of entries: each node's entries are an empty
// window of capacity Max+1, as newNode gives a node, so an Insert that
// overflows it, or the split that follows, reslices its own window and
// never a neighbour's.
func slab(n int, params Params, leaf bool) []node {
	nodes := make([]node, n)
	width := params.Max + 1
	entries := make([]entry, n*width)
	for i := range nodes {
		nodes[i] = node{leaf: leaf, entries: entries[i*width : i*width : (i+1)*width]}
	}
	return nodes
}

// checkedGroups runs the grouper, validates its output, and rebalances
// undersized groups.
func checkedGroups(g Grouper, rects []geom.Rect, params Params) [][]int {
	groups := g.Group(rects, params.Max)
	seen := make([]bool, len(rects))
	total := 0
	for _, grp := range groups {
		if len(grp) == 0 {
			panic(fmt.Sprintf("rtree: grouper %q produced an empty group", g.Name()))
		}
		if len(grp) > params.Max {
			panic(fmt.Sprintf("rtree: grouper %q produced a group of %d > max %d", g.Name(), len(grp), params.Max))
		}
		for _, idx := range grp {
			if idx < 0 || idx >= len(rects) || seen[idx] {
				panic(fmt.Sprintf("rtree: grouper %q produced invalid or duplicate index %d", g.Name(), idx))
			}
			seen[idx] = true
			total++
		}
	}
	if total != len(rects) {
		panic(fmt.Sprintf("rtree: grouper %q covered %d of %d rects", g.Name(), total, len(rects)))
	}
	return rebalance(groups, params)
}

// rebalance fixes groups smaller than the minimum fill by borrowing
// entries from a larger group, so packed trees satisfy the same
// invariants a dynamic tree does. A single group (the future root) is
// exempt.
func rebalance(groups [][]int, params Params) [][]int {
	if len(groups) < 2 {
		return groups
	}
	for i, grp := range groups {
		if len(grp) >= params.Min {
			continue
		}
		need := params.Min - len(grp)
		// Borrow from the group with the most entries; grouping
		// strategies order groups spatially, so prefer a neighbor.
		donor := -1
		for _, j := range []int{i - 1, i + 1} {
			if j >= 0 && j < len(groups) && len(groups[j])-need >= params.Min {
				donor = j
				break
			}
		}
		if donor < 0 {
			for j := range groups {
				if j != i && len(groups[j])-need >= params.Min {
					donor = j
					break
				}
			}
		}
		if donor < 0 {
			// No donor can spare entries, so every other group holds
			// fewer than Min+need <= 2*Min <= Max entries; merging with
			// a neighbor therefore cannot overflow Max.
			j := i - 1
			if j < 0 {
				j = i + 1
			}
			groups[j] = append(groups[j], grp...)
			groups = append(groups[:i], groups[i+1:]...)
			return rebalance(groups, params)
		}
		d := groups[donor]
		groups[i] = append(groups[i], d[len(d)-need:]...)
		groups[donor] = d[:len(d)-need]
	}
	return groups
}
