package geom

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestCoverageArea(t *testing.T) {
	rects := []Rect{R(0, 0, 10, 10), R(5, 5, 15, 15), EmptyRect()}
	if got := CoverageArea(rects); got != 200 {
		t.Fatalf("CoverageArea = %g, want 200", got)
	}
	if got := CoverageArea(nil); got != 0 {
		t.Fatalf("CoverageArea(nil) = %g, want 0", got)
	}
}

func TestOverlapPairwise(t *testing.T) {
	tests := []struct {
		name  string
		rects []Rect
		want  float64
	}{
		{"disjoint", []Rect{R(0, 0, 1, 1), R(5, 5, 6, 6)}, 0},
		{"pair", []Rect{R(0, 0, 10, 10), R(5, 5, 15, 15)}, 25},
		// Three identical unit squares: 3 pairs of overlap 1 each.
		{"tripleIdentical", []Rect{R(0, 0, 1, 1), R(0, 0, 1, 1), R(0, 0, 1, 1)}, 3},
		{"touching", []Rect{R(0, 0, 1, 1), R(1, 0, 2, 1)}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := OverlapPairwise(tt.rects); got != tt.want {
				t.Errorf("OverlapPairwise = %g, want %g", got, tt.want)
			}
		})
	}
}

func TestUnionArea(t *testing.T) {
	tests := []struct {
		name  string
		rects []Rect
		want  float64
	}{
		{"empty", nil, 0},
		{"single", []Rect{R(0, 0, 4, 5)}, 20},
		{"disjoint", []Rect{R(0, 0, 1, 1), R(2, 2, 3, 3)}, 2},
		{"overlapPair", []Rect{R(0, 0, 10, 10), R(5, 5, 15, 15)}, 175},
		{"nested", []Rect{R(0, 0, 10, 10), R(2, 2, 4, 4)}, 100},
		{"identicalTriple", []Rect{R(0, 0, 2, 2), R(0, 0, 2, 2), R(0, 0, 2, 2)}, 4},
		{"cross", []Rect{R(0, 4, 10, 6), R(4, 0, 6, 10)}, 36},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := UnionArea(tt.rects); math.Abs(got-tt.want) > 1e-9 {
				t.Errorf("UnionArea = %g, want %g", got, tt.want)
			}
		})
	}
}

func TestOverlapMeasure(t *testing.T) {
	tests := []struct {
		name  string
		rects []Rect
		want  float64
	}{
		{"disjoint", []Rect{R(0, 0, 1, 1), R(2, 2, 3, 3)}, 0},
		{"pair", []Rect{R(0, 0, 10, 10), R(5, 5, 15, 15)}, 25},
		// Region covered >=2 times is still the same 2x2 square even
		// with three copies — unlike the pairwise sum.
		{"identicalTriple", []Rect{R(0, 0, 2, 2), R(0, 0, 2, 2), R(0, 0, 2, 2)}, 4},
		{"cross", []Rect{R(0, 4, 10, 6), R(4, 0, 6, 10)}, 4},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := OverlapMeasure(tt.rects); math.Abs(got-tt.want) > 1e-9 {
				t.Errorf("OverlapMeasure = %g, want %g", got, tt.want)
			}
		})
	}
}

func TestDeadSpace(t *testing.T) {
	// Two 10x10 squares overlapping in a 5x5 region: coverage 200,
	// union 175, dead space 25.
	rects := []Rect{R(0, 0, 10, 10), R(5, 5, 15, 15)}
	if got := DeadSpace(rects); math.Abs(got-25) > 1e-9 {
		t.Fatalf("DeadSpace = %g, want 25", got)
	}
}

func TestPairwiseDisjoint(t *testing.T) {
	if !PairwiseDisjoint([]Rect{R(0, 0, 1, 1), R(2, 0, 3, 1), R(1, 0, 2, 1)}) {
		t.Error("boundary contact should count as disjoint")
	}
	if PairwiseDisjoint([]Rect{R(0, 0, 2, 2), R(1, 1, 3, 3)}) {
		t.Error("interior overlap should not be disjoint")
	}
}

func TestQuickUnionBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	f := func() bool {
		n := 2 + rng.Intn(6)
		rects := make([]Rect, n)
		for i := range rects {
			rects[i] = randRect(rng)
		}
		union := UnionArea(rects)
		cover := CoverageArea(rects)
		maxA := 0.0
		for _, r := range rects {
			maxA = math.Max(maxA, r.Area())
		}
		// max single area <= union <= sum of areas.
		return union <= cover+1e-6 && union >= maxA-1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickOverlapMeasureBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	f := func() bool {
		n := 2 + rng.Intn(6)
		rects := make([]Rect, n)
		for i := range rects {
			rects[i] = randRect(rng)
		}
		om := OverlapMeasure(rects)
		op := OverlapPairwise(rects)
		union := UnionArea(rects)
		// The >=2-covered region is inside the union and never exceeds
		// the pairwise multiplicity sum.
		return om <= union+1e-6 && om <= op+1e-6 && om >= -1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickCoverageIdentity(t *testing.T) {
	// coverage == union + sum over k>=2 of area covered at least k
	// times; verify the k=2 truncation: union + overlapMeasure <=
	// coverage for sets of at most 2 rectangles, with equality.
	rng := rand.New(rand.NewSource(22))
	f := func() bool {
		a, b := randRect(rng), randRect(rng)
		rects := []Rect{a, b}
		lhs := UnionArea(rects) + OverlapMeasure(rects)
		return math.Abs(lhs-CoverageArea(rects)) < 1e-6*(1+lhs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestUnionAreaSweepBasics(t *testing.T) {
	tests := []struct {
		name  string
		rects []Rect
		want  float64
	}{
		{"empty", nil, 0},
		{"single", []Rect{R(0, 0, 4, 5)}, 20},
		{"disjoint", []Rect{R(0, 0, 1, 1), R(2, 2, 3, 3)}, 2},
		{"overlapPair", []Rect{R(0, 0, 10, 10), R(5, 5, 15, 15)}, 175},
		{"nested", []Rect{R(0, 0, 10, 10), R(2, 2, 4, 4)}, 100},
		{"identicalTriple", []Rect{R(0, 0, 2, 2), R(0, 0, 2, 2), R(0, 0, 2, 2)}, 4},
		{"cross", []Rect{R(0, 4, 10, 6), R(4, 0, 6, 10)}, 36},
		{"degenerate", []Rect{R(1, 1, 1, 5), R(2, 2, 6, 2)}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := UnionAreaSweep(tt.rects); math.Abs(got-tt.want) > 1e-9 {
				t.Errorf("UnionAreaSweep = %g, want %g", got, tt.want)
			}
		})
	}
}

func TestQuickSweepMatchesGrid(t *testing.T) {
	// The O(n log n) sweep and the O(n^2) grid must agree exactly on
	// random rectangle sets — two independent implementations
	// property-testing each other.
	rng := rand.New(rand.NewSource(23))
	f := func() bool {
		n := 1 + rng.Intn(40)
		rects := make([]Rect, n)
		for i := range rects {
			rects[i] = randRect(rng)
		}
		a := UnionArea(rects)
		b := UnionAreaSweep(rects)
		return math.Abs(a-b) < 1e-6*(1+a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// The y test in OverlapPairwise skips only pairs that add exactly zero,
// so the sum is bit-identical to the sweep that forms every
// intersection — planner estimates printed from it do not move.
func TestOverlapPairwiseSkipIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 50; trial++ {
		rects := make([]Rect, 2+rng.Intn(300))
		for i := range rects {
			x, y := rng.Float64()*1000, rng.Float64()*1000
			rects[i] = R(x, y, x+rng.Float64()*80, y+rng.Float64()*80)
			if rng.Intn(10) == 0 {
				rects[i] = Pt(x, y).Rect()
			}
		}
		rects[0] = EmptyRect()
		sorted := make([]Rect, 0, len(rects))
		for _, r := range rects {
			if !r.IsEmpty() {
				sorted = append(sorted, r)
			}
		}
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].Min.X < sorted[j].Min.X })
		want := 0.0
		for i, ri := range sorted {
			for _, rj := range sorted[i+1:] {
				if rj.Min.X > ri.Max.X {
					break
				}
				want += ri.Intersection(rj).Area()
			}
		}
		if got := OverlapPairwise(rects); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: OverlapPairwise = %v, full sweep %v", trial, got, want)
		}
	}
}
