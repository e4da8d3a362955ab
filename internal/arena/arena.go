// Package arena is the bump allocator of one statement's scratch
// slices (DESIGN.md §11). A Slab cuts slices from one backing array and
// only grows while its statement runs, so no two cuts share memory;
// Reset clears what was cut and keeps the array, sized to what the
// statement cut, for the next statement.
package arena

import "unsafe"

// keepBytes caps the backing array a Slab keeps across Reset, so a
// pooled slab retains at most this much, whatever its largest statement
// needed; a statement that needs more allocates the rest as it goes.
// The bound is per slab: a sync.Pool keeps arenas per P, and its victim
// cache keeps the previous generation through one collection, so the
// pooled memory of a statement arena with three slabs is up to about
// 3 × keepBytes per P, twice that until the second collection.
const keepBytes = 256 << 10

// minLen is the smallest backing array a Slab allocates, in elements.
const minLen = 64

// Slab is a bump allocator of T. The zero Slab is ready for use, and a
// nil *Slab allocates every cut afresh.
type Slab[T any] struct {
	buf []T // buf[:len] is cut; buf[len:cap] is zero
	cut int // elements cut since the last Reset, returned ones excluded
}

// Cut returns n zero elements that no other cut shares. When the
// backing array has no room for them, one of n elements (minLen at
// least) is allocated, and the old one is left to the slices already
// cut from it.
func (s *Slab[T]) Cut(n int) []T {
	if s == nil {
		return make([]T, n)
	}
	s.cut += n
	l := len(s.buf)
	if n > cap(s.buf)-l {
		s.buf, l = make([]T, 0, max(n, minLen)), 0
	}
	s.buf = s.buf[:l+n]
	return s.buf[l : l+n : l+n]
}

// Return hands back tail, the unused end of the latest cut, cleared, for
// the next cut to reuse. A tail that is not the end of the latest cut
// stays cut.
func (s *Slab[T]) Return(tail []T) {
	l := len(tail)
	if s == nil || l == 0 || l > len(s.buf) || &tail[l-1] != &s.buf[len(s.buf)-1] {
		return
	}
	clear(tail)
	s.buf = s.buf[:len(s.buf)-l]
	s.cut -= l
}

// Reset ends a statement: everything cut since the last Reset is
// cleared, so the slab holds no pointer the statement wrote. A statement
// that outgrew the array it started with leaves the slab one array of
// what it cut and an eighth more, up to keepBytes, so the next statement
// like it allocates nothing; an array longer than keepBytes is dropped.
// Slices cut before Reset must no longer be used.
func (s *Slab[T]) Reset() {
	keepLen := int(keepBytes / unsafe.Sizeof(*new(T)))
	clear(s.buf)
	switch {
	case s.cut > len(s.buf):
		s.buf = make([]T, 0, min(s.cut+s.cut/8, keepLen))
	case cap(s.buf) > keepLen:
		s.buf = nil
	default:
		s.buf = s.buf[:0]
	}
	s.cut = 0
}
