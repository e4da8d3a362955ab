package picture

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/geom"
)

func TestAddAndGet(t *testing.T) {
	p := New("us-map", geom.R(0, 0, 1000, 1000))
	if p.Name() != "us-map" {
		t.Fatal("fresh picture wrong")
	}
	id1 := p.AddPoint("DC", geom.Pt(770, 380))
	id2 := p.AddSegment("I-95", geom.Seg(geom.Pt(700, 100), geom.Pt(800, 900)))
	id3 := p.AddRegion("MD", geom.Poly(geom.Pt(740, 350), geom.Pt(800, 350), geom.Pt(800, 420), geom.Pt(740, 420)))
	if id1 == id2 || id2 == id3 {
		t.Fatal("ids not unique")
	}
	o, ok := p.Get(id1)
	if !ok || o.Kind != KindPoint || o.Label != "DC" {
		t.Fatalf("Get point = %+v, %v", o, ok)
	}
	if _, ok := p.Get(999); ok {
		t.Fatal("Get of missing id succeeded")
	}
	// A stored object lives in its tuple: once released, the picture
	// no longer answers for it, and its id is not handed out again.
	p.Release(id1)
	if _, ok := p.Get(id1); ok {
		t.Fatal("Get of a released object succeeded")
	}
	if _, ok := p.Get(id2); !ok {
		t.Fatal("releasing one object dropped another")
	}
	if id4 := p.AddPoint("x", geom.Pt(1, 1)); id4 <= id3 {
		t.Fatalf("id %d handed out after %d", id4, id3)
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

// TestReserveMovesAllocator: ids ascend, and after Reserve(n) every new
// id is above n — how a reload keeps new objects off the stored ids.
func TestReserveMovesAllocator(t *testing.T) {
	p := New("m", geom.R(0, 0, 10, 10))
	a := p.AddPoint("a", geom.Pt(1, 1))
	b := p.AddPoint("b", geom.Pt(2, 2))
	if a >= b {
		t.Fatalf("ids %d then %d", a, b)
	}
	p.Reserve(41)
	if c := p.AddPoint("c", geom.Pt(3, 3)); c != 42 {
		t.Fatalf("after Reserve(41) the next id is %d, want 42", c)
	}
	p.Reserve(7) // below the allocator: no effect
	if d := p.AddPoint("d", geom.Pt(4, 4)); d != 43 {
		t.Fatalf("after Reserve(7) the next id is %d, want 43", d)
	}
}

// staged returns the objects ids name on p, in order.
func staged(t *testing.T, p *Picture, ids ...ObjectID) []Object {
	t.Helper()
	out := make([]Object, len(ids))
	for i, id := range ids {
		o, ok := p.Get(id)
		if !ok {
			t.Fatalf("object %d not staged", id)
		}
		out[i] = o
	}
	return out
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
	objs := staged(t, p,
		p.AddPoint("CITY", geom.Pt(50, 50)),
		p.AddRegion("", geom.Poly(geom.Pt(10, 10), geom.Pt(90, 10), geom.Pt(90, 90), geom.Pt(10, 90))))
	r := DefaultRenderer()
	out := r.Render(geom.R(0, 0, 100, 100), objs)
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
	objs := staged(t, p, p.AddPoint("OUT", geom.Pt(90, 90)))
	r := Renderer{Width: 20, Height: 10, Labels: true}
	out := r.Render(geom.R(0, 0, 50, 50), objs)
	if strings.Contains(out, "*") || strings.Contains(out, "OUT") {
		t.Error("object outside window was rendered")
	}
}

func TestRenderDegenerate(t *testing.T) {
	p := New("m", geom.R(0, 0, 10, 10))
	objs := staged(t, p, p.AddPoint("x", geom.Pt(5, 5)))
	if out := (Renderer{Width: 1, Height: 1}).Render(geom.R(0, 0, 10, 10), objs); out != "" {
		t.Error("degenerate renderer should produce empty output")
	}
	if out := DefaultRenderer().Render(geom.EmptyRect(), objs); out != "" {
		t.Error("empty window should produce empty output")
	}
}

// TestConcurrentAddAndRead is the -race check on Picture's lock: one
// writer places and releases points while readers resolve staged ids,
// the access pattern of inserts beside one another (AddPoint, an
// insert's Get, its Release once the tuple is stored).
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
			}
		}()
	}
	<-started
	<-started
	var ids []ObjectID
	for i := 0; i < n; i++ {
		ids = append(ids, p.AddPoint("w", geom.Pt(float64(i%100), 2)))
		if i%2 == 1 {
			p.Release(ids[i-1])
		}
	}
	close(done)
	wg.Wait()
	for i, id := range ids {
		if _, ok := p.Get(id); ok != (i%2 == 1) {
			t.Fatalf("object %d staged %v after %d adds", id, ok, n)
		}
	}
}
