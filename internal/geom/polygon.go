package geom

import (
	"fmt"
	"math"
)

// Polygon is a simple polygonal region given by its vertices in order
// (either winding). Regions in the paper — states, time zones, lakes —
// are polygon objects. The polygon is implicitly closed: the last
// vertex connects back to the first.
type Polygon struct {
	Vertices []Point
}

// Poly builds a polygon from its vertices.
func Poly(pts ...Point) Polygon { return Polygon{Vertices: pts} }

// RectPoly returns the polygon form of rectangle r.
func RectPoly(r Rect) Polygon {
	c := r.Corners()
	return Poly(c[0], c[1], c[2], c[3])
}

// Rect returns the minimal bounding rectangle of p. Leaf entries for
// region objects store this MBR; the region itself stays outside the
// R-tree, exactly as the paper prescribes (spatial objects are atomic
// at the leaf level and never decomposed into pictorial primitives).
func (p Polygon) Rect() Rect { return MBR(p.Vertices...) }

// Area returns the enclosed area of p via the shoelace formula,
// independent of winding direction. This implements the paper's
// example pictorial function "area" on region domains.
func (p Polygon) Area() float64 {
	n := len(p.Vertices)
	if n < 3 {
		return 0
	}
	sum := 0.0
	for i := 0; i < n; i++ {
		a, b := p.Vertices[i], p.Vertices[(i+1)%n]
		sum += a.X*b.Y - b.X*a.Y
	}
	return math.Abs(sum) / 2
}

// Perimeter returns the total boundary length of p.
func (p Polygon) Perimeter() float64 {
	n := len(p.Vertices)
	if n < 2 {
		return 0
	}
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += p.Vertices[i].Dist(p.Vertices[(i+1)%n])
	}
	return sum
}

// Centroid returns the area centroid of p (the mean vertex for
// degenerate polygons with fewer than three vertices or zero area).
func (p Polygon) Centroid() Point {
	n := len(p.Vertices)
	if n == 0 {
		return Point{}
	}
	a := 0.0
	var cx, cy float64
	for i := 0; i < n; i++ {
		v, w := p.Vertices[i], p.Vertices[(i+1)%n]
		cr := v.X*w.Y - w.X*v.Y
		a += cr
		cx += (v.X + w.X) * cr
		cy += (v.Y + w.Y) * cr
	}
	if math.Abs(a) < 1e-12 {
		var mx, my float64
		for _, v := range p.Vertices {
			mx += v.X
			my += v.Y
		}
		return Point{mx / float64(n), my / float64(n)}
	}
	return Point{cx / (3 * a), cy / (3 * a)}
}

// ContainsPoint reports whether q lies inside p (boundary inclusive),
// by the even-odd ray-crossing rule.
func (p Polygon) ContainsPoint(q Point) bool {
	n := len(p.Vertices)
	if n < 3 {
		return false
	}
	// Boundary check first: crossing parity is unreliable exactly on
	// the boundary.
	for i := 0; i < n; i++ {
		s := Segment{p.Vertices[i], p.Vertices[(i+1)%n]}
		if Collinear(s.A, s.B, q, 1e-9) && s.onSegment(q) {
			return true
		}
	}
	inside := false
	for i, j := 0, n-1; i < n; j, i = i, i+1 {
		vi, vj := p.Vertices[i], p.Vertices[j]
		if (vi.Y > q.Y) != (vj.Y > q.Y) {
			xCross := (vj.X-vi.X)*(q.Y-vi.Y)/(vj.Y-vi.Y) + vi.X
			if q.X < xCross {
				inside = !inside
			}
		}
	}
	return inside
}

// IntersectsRect reports whether the region p shares at least one
// point with rectangle r: exact refinement for window queries over
// region objects.
func (p Polygon) IntersectsRect(r Rect) bool {
	if r.IsEmpty() || !p.Rect().Intersects(r) {
		return false
	}
	for _, v := range p.Vertices {
		if r.ContainsPoint(v) {
			return true
		}
	}
	if p.ContainsPoint(r.Min) || p.ContainsPoint(r.Max) ||
		p.ContainsPoint(Point{r.Min.X, r.Max.Y}) || p.ContainsPoint(Point{r.Max.X, r.Min.Y}) {
		return true
	}
	n := len(p.Vertices)
	c := r.Corners()
	edges := [4]Segment{{c[0], c[1]}, {c[1], c[2]}, {c[2], c[3]}, {c[3], c[0]}}
	for i := 0; i < n; i++ {
		side := Segment{p.Vertices[i], p.Vertices[(i+1)%n]}
		for _, e := range edges {
			if side.Intersects(e) {
				return true
			}
		}
	}
	return false
}

// String formats the polygon as its vertex list.
func (p Polygon) String() string {
	return fmt.Sprintf("poly%v", p.Vertices)
}
