package geom

import (
	"math"
	"math/rand"
	"testing"
)

// xy2d is the classic bit-at-a-time Hilbert conversion, one curve level
// per step: the reference HilbertD's table walk must equal.
func xy2d(order uint, x, y uint32) uint64 {
	var d uint64
	for s := uint32(1) << (order - 1); s > 0; s >>= 1 {
		var rx, ry uint32
		if x&s > 0 {
			rx = 1
		}
		if y&s > 0 {
			ry = 1
		}
		d += uint64(s) * uint64(s) * uint64((3*rx)^ry)
		// Rotate the quadrant.
		if ry == 0 {
			if rx == 1 {
				x = s - 1 - x
				y = s - 1 - y
			}
			x, y = y, x
		}
	}
	return d
}

func TestHilbertDMatchesXY2DExhaustively(t *testing.T) {
	for order := uint(0); order <= 10; order++ {
		side := uint32(1) << order
		for x := range side {
			for y := range side {
				if got, want := HilbertD(order, x, y), xy2d(order, x, y); got != want {
					t.Fatalf("order %d: HilbertD(%d, %d) = %d, xy2d %d", order, x, y, got, want)
				}
			}
		}
	}
}

// At the full order, and with bits set above the order (both ignore
// them), over a million seeded cells.
func TestHilbertDMatchesXY2DAtFullOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 1_000_000; i++ {
		x, y := rng.Uint32(), rng.Uint32()
		if i%2 == 0 {
			x, y = x&(1<<HilbertOrder-1), y&(1<<HilbertOrder-1)
		}
		if got, want := HilbertD(HilbertOrder, x, y), xy2d(HilbertOrder, x, y); got != want {
			t.Fatalf("HilbertD(%d, %d, %d) = %d, xy2d %d", HilbertOrder, x, y, got, want)
		}
	}
	for _, order := range []uint{11, 13, 15} {
		for i := 0; i < 10_000; i++ {
			x, y := rng.Uint32(), rng.Uint32()
			if got, want := HilbertD(order, x, y), xy2d(order, x, y); got != want {
				t.Fatalf("HilbertD(%d, %d, %d) = %d, xy2d %d", order, x, y, got, want)
			}
		}
	}
}

func TestHilbertDRefusesOrderAboveGrid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("HilbertD accepted an order above HilbertOrder")
		}
	}()
	HilbertD(HilbertOrder+1, 0, 0)
}

// HilbertKey's quantization clamps points outside its bounds to the
// grid's edge cells and maps a degenerate axis to cell 0; the key of
// every such point is xy2d's key of the clamped cell.
func TestHilbertKeyClampsLikeXY2D(t *testing.T) {
	last := uint32(1)<<HilbertOrder - 1
	bounds := R(-10, 20, 90, 70)
	cases := []struct {
		name   string
		bounds Rect
		p      Point
		x, y   uint32
	}{
		{"min corner", bounds, Pt(-10, 20), 0, 0},
		{"max corner", bounds, Pt(90, 70), last, last},
		{"left of bounds", bounds, Pt(-1e9, 45), 0, last / 2},
		{"above bounds", bounds, Pt(40, 1e300), last / 2, last},
		{"below and right", bounds, Pt(1e9, -1e9), last, 0},
		{"infinite", bounds, Pt(math.Inf(1), math.Inf(-1)), last, 0},
		{"zero-width bounds", R(5, 0, 5, 10), Pt(7, 10), 0, last},
		{"point bounds", R(5, 5, 5, 5), Pt(-3, 8), 0, 0},
	}
	for _, c := range cases {
		got := HilbertKey(c.bounds, c.p)
		if want := xy2d(HilbertOrder, c.x, c.y); got != want {
			t.Errorf("%s: HilbertKey = %d, xy2d of cell (%d, %d) %d", c.name, got, c.x, c.y, want)
		}
	}
}
