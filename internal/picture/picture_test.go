package picture

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/geom"
)

func TestAddAndGet(t *testing.T) {
	p := New("us-map", geom.R(0, 0, 1000, 1000))
	if p.Name() != "us-map" || p.Len() != 0 {
		t.Fatal("fresh picture wrong")
	}
	id1 := p.AddPoint("DC", geom.Pt(770, 380))
	id2 := p.AddSegment("I-95", geom.Seg(geom.Pt(700, 100), geom.Pt(800, 900)))
	id3 := p.AddRegion("MD", geom.Poly(geom.Pt(740, 350), geom.Pt(800, 350), geom.Pt(800, 420), geom.Pt(740, 420)))
	if id1 == id2 || id2 == id3 {
		t.Fatal("ids not unique")
	}
	if p.Len() != 3 {
		t.Fatalf("Len = %d", p.Len())
	}
	o, ok := p.Get(id1)
	if !ok || o.Kind != KindPoint || o.Label != "DC" {
		t.Fatalf("Get point = %+v, %v", o, ok)
	}
	if _, ok := p.Get(999); ok {
		t.Fatal("Get of missing id succeeded")
	}
}

func TestObjectMBR(t *testing.T) {
	p := New("m", geom.R(0, 0, 100, 100))
	pt, _ := p.Get(p.AddPoint("p", geom.Pt(5, 5)))
	if !pt.MBR().Eq(geom.Pt(5, 5).Rect()) {
		t.Errorf("point MBR = %v", pt.MBR())
	}
	seg, _ := p.Get(p.AddSegment("s", geom.Seg(geom.Pt(1, 9), geom.Pt(7, 2))))
	if !seg.MBR().Eq(geom.R(1, 2, 7, 9)) {
		t.Errorf("segment MBR = %v", seg.MBR())
	}
	reg, _ := p.Get(p.AddRegion("r", geom.Poly(geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(5, 8))))
	if !reg.MBR().Eq(geom.R(0, 0, 10, 8)) {
		t.Errorf("region MBR = %v", reg.MBR())
	}
}

func TestIntersectsWindowRefinement(t *testing.T) {
	p := New("m", geom.R(0, 0, 100, 100))
	// A diagonal segment whose MBR intersects the window but whose
	// geometry does not.
	id := p.AddSegment("diag", geom.Seg(geom.Pt(0, 0), geom.Pt(100, 100)))
	o, _ := p.Get(id)
	w := geom.R(60, 0, 100, 40) // below the diagonal
	if !o.MBR().Intersects(w) {
		t.Fatal("test setup wrong: MBR should intersect")
	}
	if o.IntersectsWindow(w) {
		t.Fatal("exact geometry should not intersect")
	}
	if !o.IntersectsWindow(geom.R(40, 40, 60, 60)) {
		t.Fatal("segment should intersect a window on the diagonal")
	}
}

func TestObjectsOrdered(t *testing.T) {
	p := New("m", geom.R(0, 0, 10, 10))
	p.AddPoint("c", geom.Pt(3, 3))
	p.AddPoint("a", geom.Pt(1, 1))
	p.AddPoint("b", geom.Pt(2, 2))
	objs := p.Objects()
	if len(objs) != 3 {
		t.Fatalf("Objects = %d", len(objs))
	}
	for i := 1; i < len(objs); i++ {
		if objs[i-1].ID >= objs[i].ID {
			t.Fatal("objects not ordered by id")
		}
	}
}

func TestAnchor(t *testing.T) {
	p := New("m", geom.R(0, 0, 10, 10))
	seg, _ := p.Get(p.AddSegment("s", geom.Seg(geom.Pt(0, 0), geom.Pt(10, 10))))
	if got := seg.Anchor(); !got.Eq(geom.Pt(5, 5)) {
		t.Errorf("segment anchor = %v", got)
	}
	reg, _ := p.Get(p.AddRegion("r", geom.Poly(geom.Pt(0, 0), geom.Pt(4, 0), geom.Pt(4, 4), geom.Pt(0, 4))))
	if got := reg.Anchor(); !got.Eq(geom.Pt(2, 2)) {
		t.Errorf("region anchor = %v", got)
	}
}

func TestRenderContainsMarksAndLabels(t *testing.T) {
	p := New("m", geom.R(0, 0, 100, 100))
	p.AddPoint("CITY", geom.Pt(50, 50))
	p.AddRegion("", geom.Poly(geom.Pt(10, 10), geom.Pt(90, 10), geom.Pt(90, 90), geom.Pt(10, 90)))
	r := DefaultRenderer()
	out := r.Render(geom.R(0, 0, 100, 100), p.Objects())
	if !strings.Contains(out, "*") {
		t.Error("render missing point mark")
	}
	if !strings.Contains(out, "#") {
		t.Error("render missing region boundary")
	}
	if !strings.Contains(out, "CITY") {
		t.Error("render missing label")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != r.Height+2 {
		t.Errorf("render has %d lines, want %d", len(lines), r.Height+2)
	}
	for _, ln := range lines {
		if len(ln) != r.Width+2 {
			t.Errorf("render line width %d, want %d", len(ln), r.Width+2)
		}
	}
}

func TestRenderClipsToWindow(t *testing.T) {
	p := New("m", geom.R(0, 0, 100, 100))
	p.AddPoint("OUT", geom.Pt(90, 90))
	r := Renderer{Width: 20, Height: 10, Labels: true}
	out := r.Render(geom.R(0, 0, 50, 50), p.Objects())
	if strings.Contains(out, "*") || strings.Contains(out, "OUT") {
		t.Error("object outside window was rendered")
	}
}

func TestRenderDegenerate(t *testing.T) {
	p := New("m", geom.R(0, 0, 10, 10))
	p.AddPoint("x", geom.Pt(5, 5))
	if out := (Renderer{Width: 1, Height: 1}).Render(geom.R(0, 0, 10, 10), p.Objects()); out != "" {
		t.Error("degenerate renderer should produce empty output")
	}
	if out := DefaultRenderer().Render(geom.EmptyRect(), p.Objects()); out != "" {
		t.Error("empty window should produce empty output")
	}
}

// TestConcurrentAddAndRead is the -race check on Picture's lock: one
// writer places points while readers resolve ids and enumerate, the
// access pattern of an online shard split (AddPoint beside the
// executor's loc resolution).
func TestConcurrentAddAndRead(t *testing.T) {
	p := New("m", geom.R(0, 0, 100, 100))
	first := p.AddPoint("seed", geom.Pt(1, 1))
	const n = 500
	done := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			started <- struct{}{}
			for {
				select {
				case <-done:
					return
				default:
				}
				if _, ok := p.Get(first); !ok {
					t.Error("seed object vanished")
					return
				}
				if objs := p.Objects(); len(objs) == 0 || len(objs) > n+1 || p.Len() < len(objs) {
					t.Errorf("Objects returned %d of %d", len(objs), p.Len())
					return
				}
			}
		}()
	}
	<-started
	<-started
	for i := 0; i < n; i++ {
		p.AddPoint("w", geom.Pt(float64(i%100), 2))
	}
	close(done)
	wg.Wait()
	if p.Len() != n+1 {
		t.Fatalf("Len = %d, want %d", p.Len(), n+1)
	}
}
