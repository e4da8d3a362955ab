package rtree

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// joinFixture builds two in-memory trees over overlapping random
// rectangle sets.
func joinFixture(t testing.TB, n int, seed int64) (*Tree, *Tree) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	randRect := func() geom.Rect {
		x, y := rng.Float64()*1000, rng.Float64()*1000
		return geom.Rect{Min: geom.Pt(x, y), Max: geom.Pt(x+rng.Float64()*20, y+rng.Float64()*20)}
	}
	a := New(Params{Max: 8, Min: 4})
	b := New(Params{Max: 8, Min: 4})
	for i := 0; i < n; i++ {
		a.Insert(randRect(), int64(i))
		b.Insert(randRect(), int64(1000000+i))
	}
	return a, b
}

// TestJuxtaposeMatchesJoinPairs: Juxtapose collects exactly what
// JoinPairs emits — same pairs, same order, same node-pair visit count.
func TestJuxtaposeMatchesJoinPairs(t *testing.T) {
	a, b := joinFixture(t, 800, 42)
	pred := func(x, y geom.Rect) bool { return x.Intersects(y) }

	var want []JoinPair
	wantVisited := JoinPairs(a, b, pred, func(x, y Item) bool {
		want = append(want, JoinPair{A: x, B: y})
		return true
	})
	if len(want) == 0 {
		t.Fatal("fixture produced no join pairs")
	}

	got, visited := Juxtapose(a, b, pred, 1)
	if visited != wantVisited {
		t.Errorf("visited %d node pairs, JoinPairs visited %d", visited, wantVisited)
	}
	if len(got) != len(want) {
		t.Fatalf("%d pairs, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("pair %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestJuxtaposeCoveredBy exercises a non-symmetric predicate (the
// paper's covered-by) so an argument swap cannot hide.
func TestJuxtaposeCoveredBy(t *testing.T) {
	a, b := joinFixture(t, 400, 7)
	pred := func(x, y geom.Rect) bool { return y.Contains(x) }
	var want []JoinPair
	wantVisited := JoinPairs(a, b, pred, func(x, y Item) bool {
		want = append(want, JoinPair{A: x, B: y})
		return true
	})
	got, visited := Juxtapose(a, b, pred, 1)
	if visited != wantVisited || len(got) != len(want) {
		t.Fatalf("%d pairs / %d visits, want %d / %d", len(got), visited, len(want), wantVisited)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("pair %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestJuxtaposeEmpty: joins touching an empty tree produce nothing and
// visit nothing.
func TestJuxtaposeEmpty(t *testing.T) {
	a, _ := joinFixture(t, 50, 3)
	empty := New(Params{Max: 8, Min: 4})
	if pairs, visited := Juxtapose(a, empty, func(x, y geom.Rect) bool { return x.Intersects(y) }, 1); len(pairs) != 0 || visited != 0 {
		t.Fatalf("join with empty tree: %d pairs, %d visits", len(pairs), visited)
	}
	if pairs, visited := Juxtapose(empty, a, func(x, y geom.Rect) bool { return x.Intersects(y) }, 1); len(pairs) != 0 || visited != 0 {
		t.Fatalf("join from empty tree: %d pairs, %d visits", len(pairs), visited)
	}
}
