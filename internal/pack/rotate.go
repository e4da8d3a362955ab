package pack

import (
	"repro/internal/geom"
)

// rotateGrouper constructively realizes the paper's Theorem 3.2: find
// a rotation angle under which all rectangle centers have distinct
// x-coordinates (Lemma 3.1 guarantees one exists for distinct points),
// sort by rotated x, and slice consecutive groups. For point data this
// yields pairwise-disjoint leaf MBRs in the *rotated* frame; the proof
// separates groups by vertical lines between consecutive x-runs.
//
// Note objection (1) of Section 3.2: the database frame itself is not
// rotated — only the ordering is computed in the rotated frame — so
// the disjointness guarantee applies to the rotated-frame MBRs. The
// axis-aligned MBRs stored in the tree may still touch; the
// TestRotatePackZeroOverlap property verifies disjointness in the
// rotated frame, the faithful reading of the theorem.
type rotateGrouper struct{}

func (rotateGrouper) Name() string { return "rotate" }

func (rotateGrouper) Group(rects []geom.Rect, max int) [][]int {
	if len(rects) == 0 {
		return nil
	}
	centers := centersOf(rects)
	rotated := geom.RotateAll(centers, geom.SeparatingAngle(centers))
	return slices2(sortedByXY(rotated), max)
}

// RotatePackAngle exposes the rotation angle that would be used for
// the given rectangles, so experiments can verify Theorem 3.2 in the
// rotated frame.
func RotatePackAngle(rects []geom.Rect) float64 {
	return geom.SeparatingAngle(centersOf(rects))
}
