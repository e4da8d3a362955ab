package geom

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func unitSquare() Polygon { return Poly(Pt(0, 0), Pt(4, 0), Pt(4, 4), Pt(0, 4)) }

func TestPolygonArea(t *testing.T) {
	tests := []struct {
		name string
		p    Polygon
		want float64
	}{
		{"square", unitSquare(), 16},
		{"triangle", Poly(Pt(0, 0), Pt(4, 0), Pt(0, 3)), 6},
		{"clockwiseTriangle", Poly(Pt(0, 3), Pt(4, 0), Pt(0, 0)), 6},
		{"degenerateLine", Poly(Pt(0, 0), Pt(5, 5)), 0},
		{"lShape", Poly(Pt(0, 0), Pt(4, 0), Pt(4, 2), Pt(2, 2), Pt(2, 4), Pt(0, 4)), 12},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.p.Area(); math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("Area = %g, want %g", got, tt.want)
			}
		})
	}
}

func TestPolygonPerimeterCentroid(t *testing.T) {
	sq := unitSquare()
	if got := sq.Perimeter(); got != 16 {
		t.Errorf("Perimeter = %g, want 16", got)
	}
	c := sq.Centroid()
	if math.Abs(c.X-2) > 1e-12 || math.Abs(c.Y-2) > 1e-12 {
		t.Errorf("Centroid = %v, want (2,2)", c)
	}
}

func TestPolygonContainsPoint(t *testing.T) {
	l := Poly(Pt(0, 0), Pt(4, 0), Pt(4, 2), Pt(2, 2), Pt(2, 4), Pt(0, 4))
	in := []Point{{1, 1}, {3, 1}, {1, 3}, {0, 0}, {2, 2}, {4, 1}}
	out := []Point{{3, 3}, {5, 1}, {-1, 0}, {2.5, 2.5}}
	for _, p := range in {
		if !l.ContainsPoint(p) {
			t.Errorf("expected %v inside L-shape", p)
		}
	}
	for _, p := range out {
		if l.ContainsPoint(p) {
			t.Errorf("expected %v outside L-shape", p)
		}
	}
}

func TestPolygonIntersectsRect(t *testing.T) {
	tri := Poly(Pt(0, 0), Pt(10, 0), Pt(0, 10))
	tests := []struct {
		name string
		r    Rect
		want bool
	}{
		{"inside", R(1, 1, 2, 2), true},
		{"rectContainsPoly", R(-5, -5, 20, 20), true},
		{"edgeCrossing", R(4, 4, 8, 8), true}, // crosses the hypotenuse
		{"outsideHypotenuse", R(8, 8, 9, 9), false},
		{"farAway", R(50, 50, 60, 60), false},
		{"mbrOverlapsButPolyDoesNot", R(9, 9, 10, 10), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tri.IntersectsRect(tt.r); got != tt.want {
				t.Errorf("IntersectsRect(%v) = %v, want %v", tt.r, got, tt.want)
			}
		})
	}
}

func TestPolygonRect(t *testing.T) {
	tri := Poly(Pt(2, 1), Pt(10, 3), Pt(4, 9))
	want := R(2, 1, 10, 9)
	if got := tri.Rect(); !got.Eq(want) {
		t.Fatalf("Rect = %v, want %v", got, want)
	}
	if got := RectPoly(want).Area(); got != want.Area() {
		t.Fatalf("RectPoly area = %g, want %g", got, want.Area())
	}
}

// convexPolygon returns a random convex polygon of n vertices: points
// of a circle at sorted random angles.
func convexPolygon(rng *rand.Rand, n int) Polygon {
	c, r := Pt(rng.Float64()*100, rng.Float64()*100), 1+rng.Float64()*50
	angles := make([]float64, n)
	for i := range angles {
		angles[i] = rng.Float64() * 2 * math.Pi
	}
	slices.Sort(angles)
	vs := make([]Point, n)
	for i, a := range angles {
		vs[i] = Pt(c.X+r*math.Cos(a), c.Y+r*math.Sin(a))
	}
	return Polygon{Vertices: vs}
}

// TestQuickHullContainsAllPoints: a convex polygon is the hull of its
// vertices, so it contains each of them and every point between one of
// them and their mean.
func TestQuickHullContainsAllPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	f := func() bool {
		p := convexPolygon(rng, 3+rng.Intn(30))
		var m Point
		for _, v := range p.Vertices {
			m = m.Add(v)
		}
		m = m.Scale(1 / float64(len(p.Vertices)))
		for _, v := range p.Vertices {
			if !p.ContainsPoint(v) || !p.ContainsPoint(m.Add(v.Sub(m).Scale(0.99*rng.Float64()))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickPolygonAreaInsideMBR(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	f := func() bool {
		p := convexPolygon(rng, 3+rng.Intn(8))
		return p.Area() <= p.Rect().Area()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSegmentBasics(t *testing.T) {
	s := Seg(Pt(0, 0), Pt(3, 4))
	if got := s.Length(); got != 5 {
		t.Errorf("Length = %g, want 5", got)
	}
	if got := s.Midpoint(); !got.Eq(Pt(1.5, 2)) {
		t.Errorf("Midpoint = %v", got)
	}
	if got := s.Rect(); !got.Eq(R(0, 0, 3, 4)) {
		t.Errorf("Rect = %v", got)
	}
}

func TestSegmentIntersects(t *testing.T) {
	tests := []struct {
		name string
		a, b Segment
		want bool
	}{
		{"crossing", Seg(Pt(0, 0), Pt(4, 4)), Seg(Pt(0, 4), Pt(4, 0)), true},
		{"parallel", Seg(Pt(0, 0), Pt(4, 0)), Seg(Pt(0, 1), Pt(4, 1)), false},
		{"collinearOverlap", Seg(Pt(0, 0), Pt(4, 0)), Seg(Pt(2, 0), Pt(6, 0)), true},
		{"collinearDisjoint", Seg(Pt(0, 0), Pt(1, 0)), Seg(Pt(2, 0), Pt(3, 0)), false},
		{"touchingEndpoint", Seg(Pt(0, 0), Pt(2, 2)), Seg(Pt(2, 2), Pt(4, 0)), true},
		{"tShape", Seg(Pt(0, 0), Pt(4, 0)), Seg(Pt(2, -1), Pt(2, 1)), true},
		{"nearMiss", Seg(Pt(0, 0), Pt(4, 0)), Seg(Pt(5, -1), Pt(5, 1)), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.Intersects(tt.b); got != tt.want {
				t.Errorf("Intersects = %v, want %v", got, tt.want)
			}
			if got := tt.b.Intersects(tt.a); got != tt.want {
				t.Errorf("Intersects not symmetric")
			}
		})
	}
}
