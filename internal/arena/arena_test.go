package arena

import "testing"

// TestCutsNeverShare cuts past several backing arrays and checks that
// every cut is zero when handed out and keeps what was written to it,
// whatever was cut after it.
func TestCutsNeverShare(t *testing.T) {
	var s Slab[int]
	var cuts [][]int
	for i := range 40 {
		c := s.Cut(1 + i%7)
		for j := range c {
			if c[j] != 0 {
				t.Fatalf("cut %d handed out %d at %d, want zero", i, c[j], j)
			}
			c[j] = i + 1
		}
		if cap(c) != len(c) {
			t.Fatalf("cut %d has capacity %d past its length %d: an append would write into the next cut", i, cap(c), len(c))
		}
		cuts = append(cuts, c)
	}
	for i, c := range cuts {
		for _, v := range c {
			if v != i+1 {
				t.Fatalf("cut %d reads %d, want %d", i, v, i+1)
			}
		}
	}
}

// TestReturnReusesTheTail hands back the unused end of the latest cut:
// the next cut reuses it, zeroed. A tail that is not the latest cut's end
// stays cut.
func TestReturnReusesTheTail(t *testing.T) {
	var s Slab[int]
	a := s.Cut(10)
	for i := range a {
		a[i] = 7
	}
	s.Return(a[6:])
	b := s.Cut(4)
	if &b[0] != &a[6] {
		t.Fatal("the cut after Return did not reuse the returned tail")
	}
	for _, v := range b {
		if v != 0 {
			t.Fatalf("a reused tail reads %d, want zero", v)
		}
	}
	c := s.Cut(3)
	s.Return(b[2:]) // not the end of the latest cut
	if d := s.Cut(2); &d[0] == &b[2] {
		t.Fatal("a tail that was not the latest cut's end was cut again")
	}
	_ = c
}

// TestResetSizesAndBounds checks what a slab keeps for its next
// statement: an array that held the statement is reused from its start,
// cleared; a statement that outgrew its array leaves one array of what
// it cut and an eighth more; and nothing past keepBytes is kept.
func TestResetSizesAndBounds(t *testing.T) {
	var s Slab[int64]
	first := s.Cut(10)
	first[0] = 1
	s.Reset()
	if again := s.Cut(10); &again[0] != &first[0] || again[0] != 0 {
		t.Fatal("Reset did not hand the cleared array to the next statement")
	}
	s.Reset()
	for range 10 {
		s.Cut(100) // outgrows the 64-element array
	}
	s.Reset()
	if len(s.buf) != 0 || cap(s.buf) != 1000+1000/8 {
		t.Fatalf("after a statement of 1000 elements the slab holds %d of %d, want 0 of 1125", len(s.buf), cap(s.buf))
	}
	held := s.Cut(1000)
	s.Reset()
	if again := s.Cut(1000); &again[0] != &held[0] {
		t.Fatal("a statement the array holds did not reuse it")
	}
	s.Reset()
	keepLen := keepBytes / 8
	s.Cut(10)
	s.Cut(2 * keepLen)
	s.Reset()
	if cap(s.buf) != keepLen {
		t.Fatalf("after a statement past keepBytes the slab holds %d elements, want keepBytes' %d", cap(s.buf), keepLen)
	}
	s.Reset()
	var fresh Slab[int64]
	fresh.Cut(keepLen + 1)
	fresh.Reset()
	if fresh.buf != nil {
		t.Fatalf("Reset kept an array of %d elements, more than keepBytes holds (%d)", cap(fresh.buf), keepLen)
	}
}

// TestNilSlabAllocates is the nil slab every read outside a statement
// uses: each cut is fresh memory, and Return does nothing.
func TestNilSlabAllocates(t *testing.T) {
	var s *Slab[int]
	a, b := s.Cut(3), s.Cut(3)
	if len(a) != 3 || &a[0] == &b[0] {
		t.Fatal("a nil slab's cuts share memory")
	}
	s.Return(a)
}
