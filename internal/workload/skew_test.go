package workload

import (
	"testing"

	"repro/internal/pack"
)

func TestHotHilbertPointsDeterministicAndInFrame(t *testing.T) {
	a := HotHilbertPoints(400, 0.9, 0.1, 11)
	b := HotHilbertPoints(400, 0.9, 0.1, 11)
	for i := range a {
		if !a[i].Eq(b[i]) {
			t.Fatalf("same seed diverged at %d", i)
		}
		if !Frame.ContainsPoint(a[i]) {
			t.Fatalf("point %v outside frame", a[i])
		}
	}
}

// TestHotSkewConcentratesHilbertKeys checks the acceptance-criteria
// workload really is skewed in the router's terms: at 0.9 into 0.1, at
// least 85% of the points must fall in the first 10% of the Hilbert
// key space (90% aimed there, plus strays from the uniform remainder).
func TestHotSkewConcentratesHilbertKeys(t *testing.T) {
	pts := HotHilbertPoints(4000, 0.9, 0.1, 3)
	cut := (uint64(1) << pack.HilbertKeyBits) / 10 // 10% of the key space
	in := 0
	for _, p := range pts {
		if pack.HilbertKey(Frame, p) < cut {
			in++
		}
	}
	if frac := float64(in) / float64(len(pts)); frac < 0.85 {
		t.Fatalf("0.9 into 0.1 put only %.2f of points in the first 10%% of the key space", frac)
	}
}
