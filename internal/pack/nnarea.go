package pack

import (
	"sort"

	"repro/internal/geom"
)

// nnAreaGrouper implements the refinement the paper sketches at the
// end of §3.3: "it may be preferable to select the 4 items
// simultaneously from DLIST such that the area of the resulting
// associated MBR is minimized, but this could be combinatorially
// explosive". The exact version is exponential; this grouper is the
// natural greedy approximation: take the spatially first remaining
// item as the seed, then repeatedly add the remaining item whose
// inclusion enlarges the group MBR least (ties by distance), instead
// of the item nearest to the seed. For point data the two coincide
// often; for extended objects area-greedy grouping avoids the long
// thin groups center-distance grouping can produce.
type nnAreaGrouper struct{}

func (nnAreaGrouper) Name() string { return "nn-area" }

func (nnAreaGrouper) Group(rects []geom.Rect, max int) [][]int {
	n := len(rects)
	order := sortedByXY(centersOf(rects))
	taken := make([]bool, n)
	remaining := n

	// Candidate pruning: only consider the nearestK closest-by-center
	// remaining items when picking the least-enlargement member, so the
	// greedy step costs O(k) after an O(n) distance pass rather than
	// recomputing areas over everything. k is generous enough that the
	// greedy choice matches the unpruned one in practice.
	const nearestK = 24

	var groups [][]int
	pos := 0
	for remaining > 0 {
		seed := -1
		for pos < len(order) {
			if !taken[order[pos]] {
				seed = order[pos]
				pos++
				break
			}
			pos++
		}
		if seed < 0 {
			break
		}
		taken[seed] = true
		remaining--
		grp := []int{seed}
		mbr := rects[seed]

		for len(grp) < max && remaining > 0 {
			// Gather up to nearestK closest remaining candidates.
			type cand struct {
				idx int
				d   float64
			}
			var cands []cand
			center := mbr.Center()
			for i := 0; i < n; i++ {
				if taken[i] {
					continue
				}
				cands = append(cands, cand{i, rects[i].Center().DistSq(center)})
			}
			sort.Slice(cands, func(a, b int) bool { return cands[a].d < cands[b].d })
			if len(cands) > nearestK {
				cands = cands[:nearestK]
			}
			best, bestEnl, bestD := -1, 0.0, 0.0
			for _, c := range cands {
				enl := mbr.Enlargement(rects[c.idx])
				if best < 0 || enl < bestEnl || (enl == bestEnl && c.d < bestD) {
					best, bestEnl, bestD = c.idx, enl, c.d
				}
			}
			taken[best] = true
			remaining--
			grp = append(grp, best)
			mbr = mbr.Union(rects[best])
		}
		groups = append(groups, grp)
	}
	return groups
}
