package rtree

import (
	"math"

	"repro/internal/geom"
)

// This file implements Guttman's SplitNode heuristics. All three take
// an overflowing node (M+1 entries), leave one group in place and
// return the new sibling holding the other group, respecting the
// minimum fill m.

// splitNode splits the overflowing node n in place and returns the new
// sibling node.
func (t *Tree) splitNode(n *node) *node {
	var groupA, groupB []entry
	switch t.params.Split {
	case SplitLinear:
		groupA, groupB = t.splitLinear(n.entries)
	case SplitExhaustive:
		groupA, groupB = t.splitExhaustive(n.entries)
	default:
		groupA, groupB = t.splitQuadratic(n.entries)
	}
	sibling := newNode(n.leaf, t.params.Max+1)
	n.entries = append(n.entries[:0], groupA...)
	sibling.entries = append(sibling.entries, groupB...)
	return sibling
}

// splitQuadratic is Guttman's quadratic split: PickSeeds chooses the
// pair wasting the most area if grouped together; PickNext repeatedly
// assigns the entry with the greatest difference of enlargement
// between the two groups.
func (t *Tree) splitQuadratic(entries []entry) (a, b []entry) {
	m := t.params.Min
	// PickSeeds: maximize d = area(J) - area(E1) - area(E2).
	seedA, seedB := 0, 1
	worst := math.Inf(-1)
	for i := 0; i < len(entries); i++ {
		for j := i + 1; j < len(entries); j++ {
			d := entries[i].rect.Union(entries[j].rect).Area() -
				entries[i].rect.Area() - entries[j].rect.Area()
			if d > worst {
				worst, seedA, seedB = d, i, j
			}
		}
	}
	a = append(a, entries[seedA])
	b = append(b, entries[seedB])
	rectA, rectB := entries[seedA].rect, entries[seedB].rect
	remaining := make([]entry, 0, len(entries)-2)
	for i, e := range entries {
		if i != seedA && i != seedB {
			remaining = append(remaining, e)
		}
	}
	for len(remaining) > 0 {
		// If one group must take all remaining entries to reach m, do so.
		if len(a)+len(remaining) == m {
			a = append(a, remaining...)
			break
		}
		if len(b)+len(remaining) == m {
			b = append(b, remaining...)
			break
		}
		// PickNext: entry with maximum |d1 - d2|.
		next, maxDiff := 0, -1.0
		for i, e := range remaining {
			d1 := rectA.Enlargement(e.rect)
			d2 := rectB.Enlargement(e.rect)
			if diff := math.Abs(d1 - d2); diff > maxDiff {
				maxDiff, next = diff, i
			}
		}
		e := remaining[next]
		remaining = append(remaining[:next], remaining[next+1:]...)
		d1 := rectA.Enlargement(e.rect)
		d2 := rectB.Enlargement(e.rect)
		// Prefer least enlargement; tie-break by area, then count.
		addToA := d1 < d2
		if d1 == d2 {
			if rectA.Area() != rectB.Area() {
				addToA = rectA.Area() < rectB.Area()
			} else {
				addToA = len(a) <= len(b)
			}
		}
		if addToA {
			a = append(a, e)
			rectA = rectA.Union(e.rect)
		} else {
			b = append(b, e)
			rectB = rectB.Union(e.rect)
		}
	}
	return a, b
}

// splitLinear is Guttman's linear split: LinearPickSeeds chooses the
// two entries with the greatest normalized separation along either
// dimension; the rest are assigned by least enlargement in arrival
// order.
func (t *Tree) splitLinear(entries []entry) (a, b []entry) {
	m := t.params.Min
	seedA, seedB := linearPickSeeds(entries)
	a = append(a, entries[seedA])
	b = append(b, entries[seedB])
	rectA, rectB := entries[seedA].rect, entries[seedB].rect
	rest := make([]entry, 0, len(entries)-2)
	for i, e := range entries {
		if i != seedA && i != seedB {
			rest = append(rest, e)
		}
	}
	for i, e := range rest {
		remaining := len(rest) - i // including e
		switch {
		case len(a)+remaining <= m:
			a = append(a, e)
			rectA = rectA.Union(e.rect)
			continue
		case len(b)+remaining <= m:
			b = append(b, e)
			rectB = rectB.Union(e.rect)
			continue
		}
		d1 := rectA.Enlargement(e.rect)
		d2 := rectB.Enlargement(e.rect)
		if d1 < d2 || (d1 == d2 && len(a) <= len(b)) {
			a = append(a, e)
			rectA = rectA.Union(e.rect)
		} else {
			b = append(b, e)
			rectB = rectB.Union(e.rect)
		}
	}
	return a, b
}

// linearPickSeeds returns the indices of the two entries with the
// greatest normalized separation along x or y.
func linearPickSeeds(entries []entry) (int, int) {
	type extreme struct {
		highLow  int // entry with the highest low side
		lowHigh  int // entry with the lowest high side
		sep      float64
		validSep bool
	}
	pick := func(lo func(geom.Rect) float64, hi func(geom.Rect) float64) extreme {
		minLo, maxLo := math.Inf(1), math.Inf(-1)
		minHi, maxHi := math.Inf(1), math.Inf(-1)
		hlIdx, lhIdx := 0, 0
		for i, e := range entries {
			l, h := lo(e.rect), hi(e.rect)
			if l > maxLo {
				maxLo, hlIdx = l, i
			}
			if l < minLo {
				minLo = l
			}
			if h < minHi {
				minHi, lhIdx = h, i
			}
			if h > maxHi {
				maxHi = h
			}
		}
		width := maxHi - minLo
		ex := extreme{highLow: hlIdx, lowHigh: lhIdx}
		if width > 0 && hlIdx != lhIdx {
			ex.sep = (maxLo - minHi) / width
			ex.validSep = true
		}
		return ex
	}
	ex := pick(func(r geom.Rect) float64 { return r.Min.X }, func(r geom.Rect) float64 { return r.Max.X })
	ey := pick(func(r geom.Rect) float64 { return r.Min.Y }, func(r geom.Rect) float64 { return r.Max.Y })
	best := ex
	if !best.validSep || (ey.validSep && ey.sep > best.sep) {
		best = ey
	}
	if best.highLow == best.lowHigh || !best.validSep {
		// Degenerate (all rectangles identical): fall back to the
		// first two entries.
		return 0, 1
	}
	return best.highLow, best.lowHigh
}

// splitExhaustive enumerates every 2-partition honoring the minimum
// fill and keeps the one with least total covering area, breaking ties
// by least overlap between the two covering rectangles. Cost is
// O(2^(M+1)); usable only for small M such as the paper's 4.
func (t *Tree) splitExhaustive(entries []entry) (a, b []entry) {
	m := t.params.Min
	n := len(entries)
	bestMask := -1
	bestArea := math.Inf(1)
	bestOverlap := math.Inf(1)
	// Fix entry 0 in group A to halve the symmetric search space.
	for mask := 0; mask < 1<<(n-1); mask++ {
		full := mask << 1 // bit i set => entry i in group B
		cntB := 0
		rectA, rectB := geom.EmptyRect(), geom.EmptyRect()
		for i := 0; i < n; i++ {
			if full&(1<<i) != 0 {
				cntB++
				rectB = rectB.Union(entries[i].rect)
			} else {
				rectA = rectA.Union(entries[i].rect)
			}
		}
		if cntB < m || n-cntB < m {
			continue
		}
		area := rectA.Area() + rectB.Area()
		ov := rectA.Intersection(rectB).Area()
		if area < bestArea || (area == bestArea && ov < bestOverlap) {
			bestArea, bestOverlap, bestMask = area, ov, full
		}
	}
	for i := 0; i < n; i++ {
		if bestMask&(1<<i) != 0 {
			b = append(b, entries[i])
		} else {
			a = append(a, entries[i])
		}
	}
	return a, b
}
