package relation

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/picture"
	"repro/internal/storage"
)

// FuzzDecodeTuple feeds arbitrary bytes to the heap record decoder: a
// record is the tuple body, the objects loc columns carry included.
// Seeds are records: a valid one and its truncations, a bogus type tag,
// a record per object kind with its object cut short and with a bad
// kind byte, and records of the values where a term's comparison has
// corners: a NaN, both zeros, 2^53+1 (which rounds to 2^53 as a
// float64), numbers beside a string holding one, and strings sharing a
// prefix. Properties: the decoders never panic; any body DecodeTuple
// accepts re-encodes, with the objects its locs carry, and re-decodes to
// the same tuple (round-trip stability) — together the guarantee
// Database.Check relies on when it re-decodes every stored record. The
// decode of a fetch or scan — the terms tested on the record's bytes,
// then a kept record decoded into an arena slot (tupleArena.decode) — is
// held to a reference that decodes the whole tuple and applies the terms
// to its values (holdsRef): it fails on exactly the bodies DecodeTuple
// fails on, with the same error, fails as corrupt when a term names a
// column past the tuple's last, and otherwise keeps exactly what the
// reference keeps, with every needed column as DecodeTuple reads it and
// every other one zeroed. Terms, the needed columns and the slot are
// derived from the input (fuzzTerms); on top of them every single term
// over the tuple's first columns, one column past its last, every
// operator and a set of corner values is held to the reference too.
func FuzzDecodeTuple(f *testing.F) {
	good := appendBody(nil, Tuple{S("abc"), I(5), F(0.5)}, false)
	f.Add(bytes.Clone(good))
	for cut := 1; cut < len(good); cut++ {
		f.Add(bytes.Clone(good[:cut]))
	}
	f.Add([]byte{})
	bad := bytes.Clone(good)
	bad[1] = 200
	f.Add(bad)
	for _, obj := range []picture.Object{
		{ID: 7, Kind: picture.KindPoint, Label: "a point", Point: geom.Pt(3.5, -7.25)},
		{ID: 42, Kind: picture.KindSegment, Segment: geom.Seg(geom.Pt(0, 0), geom.Pt(10, 20))},
		{ID: 9001, Kind: picture.KindRegion, Label: "région", Region: geom.Poly(geom.Pt(0, 0), geom.Pt(4, 0), geom.Pt(4, 4))},
	} {
		rec := appendBody(nil, carrying(Tuple{F(3.25), L("map", obj.ID), S("")}, obj), true)
		f.Add(rec)
		at := bytes.Index(rec, picture.EncodeObject(obj))
		f.Add(bytes.Clone(rec[:at+len(picture.EncodeObject(obj))-3])) // geometry cut short
		kind := bytes.Clone(rec)
		kind[at+8] = 99
		f.Add(kind)
	}
	f.Add(appendBody(nil, Tuple{L("", 0), I(-1)}, false))
	for _, tu := range []Tuple{
		{F(math.NaN()), F(-math.NaN()), I(3)},
		{F(math.Copysign(0, -1)), F(0), I(0)},
		{I(1<<53 + 1), I(1 << 53), F(1 << 53)},
		{S("5"), I(5), F(5), L("", 0)},
		{S("ab"), S("abc"), S("a"), S("")},
	} {
		f.Add(appendBody(nil, tu, false))
	}
	// A record wider than the offsets a fetch keeps on its stack, kept,
	// with a column past the stack needed.
	for k := int64(0); ; k++ {
		wide := make(Tuple, startsOnStack+4)
		for i := range wide {
			wide[i] = I(k + int64(i))
		}
		wide[3], wide[startsOnStack+1] = S("third"), S("past the stack")
		rec := appendBody(nil, wide, false)
		terms, need, _ := fuzzTerms(rec, wide)
		if len(terms) > 0 && wants(need, startsOnStack+1) && keptRef(terms, wide) {
			f.Add(rec)
			break
		}
	}
	// A kept record whose loc column a term tests and the statement does
	// not need: it must come back without its object.
	pt := picture.Object{ID: 5, Kind: picture.KindPoint, Point: geom.Pt(1, 2)}
	for k := int64(0); ; k++ {
		tu := carrying(Tuple{I(k), S("name"), L("map", pt.ID)}, pt)
		rec := appendBody(nil, tu, true)
		terms, need, _ := fuzzTerms(rec, tu)
		if len(terms) > 0 && terms[0].Col == 2 && !wants(need, 2) && keptRef(terms, tu) {
			f.Add(rec)
			break
		}
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		tup, err := DecodeTuple(body)
		checkDecode(t, body, tup, err)
		if _, skipErr := DecodeTupleCols(body, make([]bool, len(body))); (skipErr == nil) != (err == nil) {
			t.Fatalf("decode needing no column: %v, DecodeTuple: %v (input %x)", skipErr, err, body)
		}
		if err != nil {
			return // rejecting is always fine; panicking is not
		}
		checkEachTerm(t, body, tup)
		re := appendBody(nil, tup, true)
		tup2, err := DecodeTuple(re)
		if err != nil {
			t.Fatalf("re-encoding of accepted input failed to decode: %v (input %x)", err, body)
		}
		if !bytes.Equal(appendBody(nil, tup2, true), re) {
			t.Fatalf("decode/encode round-trip unstable for input %x", body)
		}
	})
}

// fuzzValues are the values a derived term compares with, besides the
// stored value itself: the corners of the numeric comparison, strings
// sharing a prefix, and locs.
var fuzzValues = []Value{
	I(0), I(5), I(1 << 53), I(1<<53 + 1), I(math.MinInt64),
	F(0), F(math.Copysign(0, -1)), F(math.NaN()), F(0.5), F(math.Inf(1)), F(1 << 53),
	S(""), S("a"), S("ab"), S("abc"), S("5"),
	L("map", 7), L("", 0),
}

// fuzzTerms derives from data's bytes the terms, the needed columns and
// the arena arity checkDecode decodes it under. full is what DecodeTuple
// made of data, nil when it failed: a term's column reaches one past the
// tuple's last, and its value is sometimes the stored value itself, so
// that equalities hold.
func fuzzTerms(data []byte, full Tuple) (terms []Term, need []bool, arity int) {
	seed := uint32(len(data))
	for _, b := range data {
		seed = seed*31 + uint32(b)
	}
	n := 1 + seed%5 // shorter than some tuples: the rest is needed
	if seed%7 == 0 {
		n = startsOnStack + 8 // reaching past the offsets a fetch keeps on its stack
	}
	need = make([]bool, n)
	for i := range need {
		need[i] = seed>>(3+i)&1 == 1
	}
	// An arity under the tuple's width decodes into a fresh slice; one
	// past startsOnStack keeps the offsets off the stack.
	if arity = int(seed / 3 % 6); arity == 5 {
		arity = startsOnStack + 2
	}
	cols := uint32(6)
	if full != nil {
		cols = uint32(len(full)) + 2
	}
	h := seed
	for range seed / 11 % 4 {
		h = h*1664525 + 1013904223
		tm := Term{Col: int(h % cols), Op: Op(h >> 8 % 6), Val: fuzzValues[h>>12%uint32(len(fuzzValues))]}
		if tm.Col < len(full) && h>>24%3 == 0 {
			tm.Val = full[tm.Col]
		}
		terms = append(terms, tm)
	}
	return terms, need, arity
}

// holdsRef is the decision a term is held to: the test a where-term made
// of a whole decoded tuple before terms were tested on a record's bytes
// — psql's boundTerm.holds, numbers as their float64 images, strings
// bytewise, any other pair comparing as equal-ordered and unequal — and
// Value.Eq for OpSame, as LookupEqual's scan applied it.
func holdsRef(t Term, v Value) bool {
	if t.Op == OpSame {
		return v.Eq(t.Val)
	}
	number := func(v Value) (float64, bool) {
		switch v.Type {
		case TypeInt:
			return float64(v.Int), true
		case TypeFloat:
			return v.Float, true
		}
		return 0, false
	}
	eq, c := false, 0
	a, aok := number(v)
	b, bok := number(t.Val)
	switch {
	case v.Type == TypeString && t.Val.Type == TypeString:
		c = strings.Compare(v.Str, t.Val.Str)
		eq = c == 0
	case aok && bok:
		eq = a == b
		switch {
		case a < b:
			c = -1
		case a > b:
			c = 1
		}
	}
	switch t.Op {
	case OpEq:
		return eq
	case OpLt:
		return c < 0
	case OpLe:
		return c <= 0
	case OpGt:
		return c > 0
	default:
		return c >= 0
	}
}

// keptRef reports whether every term lies inside full and holds of it
// by holdsRef.
func keptRef(terms []Term, full Tuple) bool {
	for _, tm := range terms {
		if tm.Col >= len(full) || !holdsRef(tm, full[tm.Col]) {
			return false
		}
	}
	return true
}

// checkDecode runs tupleArena.decode on data under the terms, needed
// columns and arity fuzzTerms derives and compares it with full, err —
// what DecodeTuple made of the same bytes.
func checkDecode(t *testing.T, data []byte, full Tuple, err error) {
	t.Helper()
	terms, need, arity := fuzzTerms(data, full)
	a := tupleArena{arity: arity, left: 1, block: 1}
	got, ok, gerr := a.decode(data, need, terms)
	if err != nil {
		if gerr == nil || gerr.Error() != err.Error() {
			t.Fatalf("decode error %v, DecodeTuple error %v (input %x, terms %+v)", gerr, err, data, terms)
		}
		return
	}
	for _, tm := range terms {
		if tm.Col >= len(full) {
			if !errors.Is(gerr, storage.ErrCorrupt) {
				t.Fatalf("a term on column %d of a %d-column tuple: decode error %v, want ErrCorrupt (input %x)", tm.Col, len(full), gerr, data)
			}
			return
		}
	}
	if gerr != nil {
		t.Fatalf("decode error %v, DecodeTuple accepts (input %x, terms %+v)", gerr, data, terms)
	}
	if want := keptRef(terms, full); ok != want {
		t.Fatalf("decode kept=%v, the reference %v (input %x, terms %+v)", ok, want, data, terms)
	}
	if !ok {
		if got != nil || a.free != nil {
			t.Fatalf("a rejected record came back as %v and took a slot (input %x)", got, data)
		}
		return
	}
	if len(got) != len(full) {
		t.Fatalf("the kept tuple has %d columns, DecodeTuple %d (input %x)", len(got), len(full), data)
	}
	for i, v := range got {
		want := Value{Type: full[i].Type}
		if wants(need, i) {
			want = full[i]
		}
		// Compared as encoded, where a NaN equals itself, and by Str,
		// which carries a loc's object.
		if !bytes.Equal(EncodeTuple(Tuple{v}), EncodeTuple(Tuple{want})) || v.Str != want.Str {
			t.Fatalf("kept column %d = %+v, want %+v (input %x)", i, v, want, data)
		}
	}
	if len(got) <= arity && cap(got) != arity {
		t.Fatalf("a %d-column tuple did not use its %d-value slot (input %x)", len(got), arity, data)
	}
}

// checkEachTerm holds match's decision on full's record data to
// holdsRef for one term at a time: on each of the tuple's first columns,
// under every operator, against every fuzzValue and the stored value,
// and a term one column past the last fails as corrupt.
func checkEachTerm(t *testing.T, data []byte, full Tuple) {
	t.Helper()
	var starts [startsOnStack]int
	for col := range min(len(full), 6) {
		for op := OpEq; op <= OpSame; op++ {
			for _, val := range append(fuzzValues[:len(fuzzValues):len(fuzzValues)], full[col]) {
				tm := Term{Col: col, Op: op, Val: val}
				_, ok, err := match(data, []Term{tm}, starts[:])
				if want := holdsRef(tm, full[col]); err != nil || ok != want {
					t.Fatalf("term %+v on %+v: kept=%v, err %v; the reference keeps %v (input %x)", tm, full[col], ok, err, want, data)
				}
			}
		}
	}
	if _, _, err := match(data, []Term{{Col: len(full), Op: OpLe}}, starts[:]); !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("a term past the last of %d columns: %v, want ErrCorrupt (input %x)", len(full), err, data)
	}
}
