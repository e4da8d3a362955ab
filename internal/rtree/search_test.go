package rtree

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"testing"

	"repro/internal/geom"
)

// hilbertGrouper packs a level in Hilbert order of the rectangles'
// centres, the order every spatial index is packed in; package pack's
// groupers cannot be imported here.
type hilbertGrouper struct{}

func (hilbertGrouper) Name() string { return "hilbert" }

func (hilbertGrouper) Group(rects []geom.Rect, max int) [][]int {
	bounds := geom.EmptyRect()
	for _, r := range rects {
		bounds = bounds.Union(r)
	}
	order := make([]int, len(rects))
	for i := range order {
		order[i] = i
	}
	key := func(i int) uint64 { return geom.HilbertKey(bounds, rects[i].Center()) }
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(key(a), key(b)) })
	var groups [][]int
	for len(order) > 0 {
		n := min(max, len(order))
		groups = append(groups, order[:n:n])
		order = order[n:]
	}
	return groups
}

// hit is one answer of a search: window w and the item's data.
type hit struct {
	w    int
	data int64
}

// perWindow answers windows one Search at a time: every hit, in the
// order the searches report them, the visit counts, and the set of
// nodes each search loads.
func perWindow(t *Tree, windows []geom.Rect) (hits []hit, visits []int, nodes []map[int]bool) {
	for w, win := range windows {
		visits = append(visits, t.Search(win, func(it Item) bool {
			hits = append(hits, hit{w, it.Data})
			return true
		}))
		set := map[int]bool{}
		var walk func(i int)
		walk = func(i int) {
			set[i] = true
			if n := t.node(i); !n.leaf {
				for _, e := range n.entries {
					if e.rect.Intersects(win) {
						walk(int(e.ref))
					}
				}
			}
		}
		walk(t.root)
		nodes = append(nodes, set)
	}
	return hits, visits, nodes
}

func compareHits(a, b hit) int {
	if c := cmp.Compare(a.w, b.w); c != 0 {
		return c
	}
	return cmp.Compare(a.data, b.data)
}

// checkBatch holds SearchBatch to per-window Search on one tree: the
// same (window, item) multiset, each item's windows in ascending order,
// and a visit count equal to the size of the union of the windows' node
// sets, which for one window is Search's own count; a one-window batch
// also reports its hits in Search's order.
func checkBatch(t *testing.T, name string, tr *Tree, windows []geom.Rect) {
	t.Helper()
	want, visits, nodes := perWindow(tr, windows)
	var got []hit
	visited := tr.SearchBatch(windows, func(w int, it Item) bool {
		if n := len(got); n > 0 && got[n-1].data == it.Data && got[n-1].w >= w {
			t.Fatalf("%s: item %d reported for window %d after window %d", name, it.Data, w, got[n-1].w)
		}
		got = append(got, hit{w, it.Data})
		return true
	})
	if len(windows) == 1 && !slices.Equal(got, want) {
		t.Fatalf("%s, one window: batch reported %v, Search %v", name, got, want)
	}
	slices.SortFunc(got, compareHits)
	slices.SortFunc(want, compareHits)
	if !slices.Equal(got, want) {
		t.Fatalf("%s, %d windows: batch found %d hits, per-window searches %d", name, len(windows), len(got), len(want))
	}
	union := map[int]bool{}
	for w, set := range nodes {
		if len(set) != visits[w] {
			t.Fatalf("%s: window %d: Search counted %d visits, loaded %d nodes", name, w, visits[w], len(set))
		}
		for i := range set {
			union[i] = true
		}
	}
	if visited != len(union) {
		t.Fatalf("%s, %d windows: batch visited %d nodes, the windows' searches %d distinct ones", name, len(windows), visited, len(union))
	}
}

// FuzzSearchBatch builds dynamic trees and a Hilbert-packed one
// over items cut from data, and holds SearchBatch to per-window
// Search for 0–40 windows that may overlap, be points, segments or
// empty, or lie outside the tree's bounds.
func FuzzSearchBatch(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte("0123456789abcdefghijklmnopqrstuvwxyz"), uint8(3))
	f.Add(bytes.Repeat([]byte{9, 200, 0, 0}, 60), uint8(40))
	seed := make([]byte, 1200)
	for i := range seed {
		seed[i] = byte(i*37 + i/5)
	}
	f.Add(seed, uint8(17))
	f.Add(seed[:400], uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, nw uint8) {
		var windows []geom.Rect
		for w := 0; w < int(nw)%41; w++ {
			var b [4]byte
			for k := range b {
				if i := 4*w + k; i < len(data) {
					b[k] = data[i]
				} else {
					b[k] = byte(w * (k + 3))
				}
			}
			x, y := float64(b[0])*1.2-30, float64(b[1])*1.2-30
			switch {
			case b[2] == 255:
				windows = append(windows, geom.EmptyRect())
			case b[3] == 255:
				windows = append(windows, geom.R(x+1000, y, x+1010, y+10))
			default:
				windows = append(windows, geom.R(x, y, x+float64(b[2]%64), y+float64(b[3]%64)))
			}
		}
		var items []Item
		for i := 0; i+4 <= len(data) && len(items) < 400; i += 4 {
			x, y := float64(data[i]), float64(data[i+1])
			items = append(items, Item{Rect: geom.R(x, y, x+float64(data[i+2]%16), y+float64(data[i+3]%16)), Data: int64(len(items))})
		}
		// The paper's branching factor under both cheap splits, and the
		// wide nodes of a spatial index's delta tree.
		for _, p := range []Params{{Max: 4, Min: 2, Split: SplitQuadratic}, {Max: 4, Min: 2, Split: SplitLinear}, {Max: 32, Min: 8, Split: SplitLinear}} {
			tr := New(p)
			insertAll(tr, items)
			checkBatch(t, fmt.Sprintf("%s M=%d", p.Split, p.Max), tr, windows)
		}
		checkBatch(t, "packed", Bulk(DefaultParams(), items, hilbertGrouper{}), windows)
	})
}

// TestSearchBatchEarlyStop: returning false from fn ends the batch.
func TestSearchBatchEarlyStop(t *testing.T) {
	tr := New(DefaultParams())
	insertAll(tr, uniformItems(200, 4))
	windows := []geom.Rect{geom.R(0, 0, 600, 600), geom.R(400, 400, 1000, 1000), geom.R(0, 0, 1000, 1000)}
	count := 0
	tr.SearchBatch(windows, func(int, Item) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Fatalf("early stop reported %d hits, want 5", count)
	}
	if v := tr.SearchBatch(nil, func(int, Item) bool { return true }); v != 0 {
		t.Fatalf("no window visited %d nodes", v)
	}
}
