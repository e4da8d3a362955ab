package relation

import (
	"testing"

	"repro/internal/arena"
	"repro/internal/geom"
	"repro/internal/picture"
)

// BenchmarkDecodeRecord times the read of one heap record as a fetch or
// scan makes it, into a statement's arena that one tupleArena cuts from
// and that is reset every arenaTuples records, as statements reset it:
// window_read's three-column point record (name, pop, loc carrying its
// object), its select list (name, pop) needed and the loc not. "kept"
// and "rejected" test its where-term, pop > k, which keeps the record or
// rejects it before anything is decoded; "no-term" decodes it with no
// term at all. Every cell walks and validates the whole record once, so
// the three differ by what is decoded after the walk.
func BenchmarkDecodeRecord(b *testing.B) {
	obj := picture.Object{ID: 91_234, Kind: picture.KindPoint, Point: geom.Pt(412.5, 833.25)}
	rec := appendBody(nil, carrying(Tuple{S("site-91234"), I(48_000), L("points", obj.ID)}, obj), true)
	need := []bool{true, true, false}
	for _, c := range []struct {
		name  string
		terms []Term
		kept  bool
	}{
		{"kept", []Term{{Col: 1, Op: OpGt, Val: I(20_000)}}, true},
		{"rejected", []Term{{Col: 1, Op: OpGt, Val: I(50_000)}}, false},
		{"no-term", nil, true},
	} {
		b.Run(c.name, func(b *testing.B) {
			var slab arena.Slab[Value]
			var a tupleArena
			b.ReportAllocs()
			b.SetBytes(int64(len(rec)))
			for i := range b.N {
				if i%arenaTuples == 0 {
					a.close()
					slab.Reset()
					a = tupleArena{src: &slab, arity: 3, left: arenaTuples, block: arenaTuples}
				}
				if _, ok, err := a.decode(rec, need, c.terms); err != nil || ok != c.kept {
					b.Fatalf("decode kept=%v, %v; want kept=%v", ok, err, c.kept)
				}
			}
		})
	}
}
