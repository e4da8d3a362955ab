package geom

import (
	"fmt"
	"math"
)

// Segment is a line segment between two points. Highway sections in the
// paper's highways relation are segment objects.
type Segment struct {
	A, B Point
}

// Seg is shorthand for Segment{a, b}.
func Seg(a, b Point) Segment { return Segment{A: a, B: b} }

// Length returns the Euclidean length of s.
func (s Segment) Length() float64 { return s.A.Dist(s.B) }

// Rect returns the minimal bounding rectangle of s. Leaf entries for
// segment objects store this MBR.
func (s Segment) Rect() Rect { return MBR(s.A, s.B) }

// Midpoint returns the midpoint of s.
func (s Segment) Midpoint() Point {
	return Point{(s.A.X + s.B.X) / 2, (s.A.Y + s.B.Y) / 2}
}

// String formats the segment as "(x1,y1)-(x2,y2)".
func (s Segment) String() string {
	return fmt.Sprintf("%v-%v", s.A, s.B)
}

// onSegment reports whether point p, known to be collinear with s,
// lies within s's bounding box.
func (s Segment) onSegment(p Point) bool {
	return p.X >= math.Min(s.A.X, s.B.X)-1e-12 && p.X <= math.Max(s.A.X, s.B.X)+1e-12 &&
		p.Y >= math.Min(s.A.Y, s.B.Y)-1e-12 && p.Y <= math.Max(s.A.Y, s.B.Y)+1e-12
}

// Intersects reports whether segments s and t share at least one point.
func (s Segment) Intersects(t Segment) bool {
	d1 := Cross(t.A, t.B, s.A)
	d2 := Cross(t.A, t.B, s.B)
	d3 := Cross(s.A, s.B, t.A)
	d4 := Cross(s.A, s.B, t.B)
	if ((d1 > 0 && d2 < 0) || (d1 < 0 && d2 > 0)) &&
		((d3 > 0 && d4 < 0) || (d3 < 0 && d4 > 0)) {
		return true
	}
	switch {
	case d1 == 0 && t.onSegment(s.A):
		return true
	case d2 == 0 && t.onSegment(s.B):
		return true
	case d3 == 0 && s.onSegment(t.A):
		return true
	case d4 == 0 && s.onSegment(t.B):
		return true
	}
	return false
}
