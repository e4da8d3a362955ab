package relation

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/pager"
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
// operator and a set of corner values is held to the reference too. The
// reload's reading of an accepted body — a loc's picture name and object
// bytes straight from its column's span — names the picture, object id
// and MBR DecodeTuple's value carries (checkLocSpans).
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
	// A record wider than the spans a decode keeps on its stack, kept,
	// with a column past the stack needed.
	for k := int64(0); ; k++ {
		wide := make(Tuple, spansOnStack+4)
		for i := range wide {
			wide[i] = I(k + int64(i))
		}
		wide[3], wide[spansOnStack+1] = S("third"), S("past the stack")
		rec := appendBody(nil, wide, false)
		terms, need, _ := fuzzTerms(rec, wide)
		if len(terms) > 0 && wants(need, spansOnStack+1) && keptRef(terms, wide) {
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
		checkLocSpans(t, body, tup)
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
		n = spansOnStack + 8 // reaching past the spans a decode keeps on its stack
	}
	need = make([]bool, n)
	for i := range need {
		need[i] = seed>>(3+i)&1 == 1
	}
	// An arity under the tuple's width decodes into a fresh slice; one
	// past spansOnStack keeps the spans off the stack.
	if arity = int(seed / 3 % 6); arity == 5 {
		arity = spansOnStack + 2
	}
	cols := uint32(6)
	if full != nil {
		cols = uint32(len(full)) + 2
	}
	h := seed
	for range seed / 11 % 4 {
		h = h*1664525 + 1013904223
		tm := Term{Col: int(h % cols), Op: Op(h >> 8 % 5), Val: fuzzValues[h>>12%uint32(len(fuzzValues))]}
		if tm.Col < len(full) && h>>24%3 == 0 {
			tm.Val = full[tm.Col]
		}
		terms = append(terms, tm)
	}
	return terms, need, arity
}

// holdsRef is the decision a term is held to: the test a where-term made
// of a whole decoded tuple before terms were tested on a record's bytes
// — numbers as their float64 images, strings bytewise, any other pair
// comparing as equal-ordered and unequal.
func holdsRef(t Term, v Value) bool {
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
	var stack [spansOnStack]span
	cols := stack[:]
	for col := range min(len(full), 6) {
		for op := OpEq; op <= OpGe; op++ {
			for _, val := range append(fuzzValues[:len(fuzzValues):len(fuzzValues)], full[col]) {
				tm := Term{Col: col, Op: op, Val: val}
				_, ok, err := match(data, []Term{tm}, cols)
				if want := holdsRef(tm, full[col]); err != nil || ok != want {
					t.Fatalf("term %+v on %+v: kept=%v, err %v; the reference keeps %v (input %x)", tm, full[col], ok, err, want, data)
				}
			}
		}
	}
	if _, _, err := match(data, []Term{{Col: len(full), Op: OpLe}}, cols); !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("a term past the last of %d columns: %v, want ErrCorrupt (input %x)", len(full), err, data)
	}
}

// checkLocSpans holds the reload's reading of full's record data — each
// column's span, a loc's picture name and object bytes read straight
// from it (span.loc) — to DecodeTuple's values: a loc carrying an object
// names the same picture, object id and MBR, and a zero loc or a column
// of another type carries none.
func checkLocSpans(t *testing.T, data []byte, full Tuple) {
	t.Helper()
	cols, err := walk(data, nil)
	if err != nil || len(cols) != len(full) {
		t.Fatalf("walk: %d spans, %v; DecodeTuple: %d columns (input %x)", len(cols), err, len(full), data)
	}
	for i, c := range cols {
		v := full[i]
		pic, obj, ok := c.loc(data)
		if carries := v.Type == TypeLoc && v.Str != ""; ok != carries {
			t.Fatalf("column %d (%+v): span.loc ok=%v (input %x)", i, v, ok, data)
		}
		if !ok {
			continue
		}
		want, _ := v.LocMBR()
		got := picture.EncodedMBR(obj)
		same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
		if string(pic) != v.Loc.Picture || picture.ObjectID(binary.LittleEndian.Uint64(obj)) != v.Loc.Object ||
			!same(got.Min.X, want.Min.X) || !same(got.Min.Y, want.Min.Y) || !same(got.Max.X, want.Max.X) || !same(got.Max.Y, want.Max.Y) {
			t.Fatalf("column %d: span reads %q, object %d, MBR %v; DecodeTuple %+v, MBR %v (input %x)",
				i, pic, binary.LittleEndian.Uint64(obj), got, v, want, data)
		}
	}
}

// lookupFuzzValues caps the values FuzzLookupMatchesScan stores, and
// lookupFuzzString the bytes of each stored string.
const lookupFuzzValues, lookupFuzzString = 64, 64

// FuzzLookupMatchesScan holds the B-tree's answer to a term to the
// scan's and to the reference's. The input picks the column's type
// (typ%3: int, float, string), the type of the term's value (typ>>2%5:
// the column's, int, float, string or loc), the operator (op%5), the
// value (term: a little-endian word for a number or a loc's object, the
// bytes for a string) and the stored values (vals: words for a number
// column, 0xff-separated strings for a string one). The relation is built
// twice from them: without a B-tree, and with one bulk-loaded over the
// first half of the values and kept up by Insert for the rest. The ids
// Lookup returns and FetchWhere keeps under the term, the ids ScanCols
// keeps under it, and the values holdsRef keeps must be the same
// records. Lookup's ids ascend, every one of them FetchWhere drops holds
// a NaN, and Lookup answers exactly when the column has a B-tree and the
// value is of the column's type. Seeds: the corners of the comparison —
// -0, +0 and NaN beside 1 (the float column on which an equality lookup
// once answered by its access path), both infinities and NaNs of both
// signs, the run of int64s around 2^53, strings sharing a prefix and the
// empty string, and values of another type than the column's — under
// every operator.
func FuzzLookupMatchesScan(f *testing.F) {
	words := func(ws ...uint64) []byte {
		var out []byte
		for _, w := range ws {
			out = binary.LittleEndian.AppendUint64(out, w)
		}
		return out
	}
	floats := func(fs ...float64) []byte {
		var ws []uint64
		for _, x := range fs {
			ws = append(ws, math.Float64bits(x))
		}
		return words(ws...)
	}
	ints := func(ns ...int64) []byte {
		var ws []uint64
		for _, n := range ns {
			ws = append(ws, uint64(n))
		}
		return words(ws...)
	}
	const intCol, floatCol, stringCol = 0, 1, 2
	const asInt, asFloat, asString, asLoc = 1 << 2, 2 << 2, 3 << 2, 4 << 2
	zeros := floats(math.Copysign(0, -1), 0, math.NaN(), 1)
	infs := floats(math.Inf(-1), -math.NaN(), math.Inf(1), math.NaN(), 5, math.Copysign(0, -1))
	run := ints(1<<53-2, 1<<53-1, 1<<53, 1<<53+1, 1<<53+2, 1<<53+3, -1<<53-1, -1<<53, math.MinInt64, math.MaxInt64)
	strs := []byte("\xffa\xffab\xffab\xffabc\xffabd\xffb")
	for op := range uint8(5) {
		for _, v := range []float64{0, math.Copysign(0, -1), math.NaN(), 1} {
			f.Add(uint8(floatCol), op, floats(v), zeros)
		}
		for _, v := range []float64{math.Inf(1), math.Inf(-1), -math.NaN(), 5} {
			f.Add(uint8(floatCol), op, floats(v), infs)
		}
		for _, v := range []int64{1 << 53, 1<<53 + 1, 1<<53 - 1, -1 << 53, math.MinInt64} {
			f.Add(uint8(intCol), op, ints(v), run)
		}
		for _, v := range []string{"ab", "", "abc", "a\xff"} {
			f.Add(uint8(stringCol), op, []byte(v), strs)
		}
		f.Add(uint8(intCol|asFloat), op, floats(1<<53), run)
		f.Add(uint8(floatCol|asInt), op, ints(0), zeros)
		f.Add(uint8(stringCol|asInt), op, ints(5), strs)
		f.Add(uint8(intCol|asString), op, []byte("5"), run)
		f.Add(uint8(floatCol|asLoc), op, ints(7), infs)
		f.Add(uint8(floatCol), op, floats(0), []byte{}) // no values at all
	}

	f.Fuzz(func(t *testing.T, typ, op uint8, term, vals []byte) {
		word := func(b []byte) uint64 {
			var w [8]byte
			copy(w[:], b)
			return binary.LittleEndian.Uint64(w[:])
		}
		valueOf := func(ty Type, b []byte) Value {
			switch ty {
			case TypeInt:
				return I(int64(word(b)))
			case TypeFloat:
				return F(math.Float64frombits(word(b)))
			case TypeString:
				return S(string(b))
			}
			return L("map", picture.ObjectID(word(b)))
		}
		colType := []Type{TypeInt, TypeFloat, TypeString}[typ%3]
		valType := colType
		if k := typ >> 2 % 5; k > 0 {
			valType = []Type{TypeInt, TypeFloat, TypeString, TypeLoc}[k-1]
		}
		tm := Term{Col: 0, Op: Op(op % 5), Val: valueOf(valType, term)}
		terms := []Term{tm}
		var values []Value
		if colType == TypeString {
			for _, s := range bytes.Split(vals, []byte{0xff}) {
				values = append(values, S(string(s[:min(len(s), lookupFuzzString)])))
			}
		} else {
			for b := vals; len(b) > 0; b = b[min(len(b), 8):] {
				values = append(values, valueOf(colType, b))
			}
		}
		values = values[:min(len(values), lookupFuzzValues)]
		var want []int
		for i, v := range values {
			if holdsRef(tm, v) {
				want = append(want, i)
			}
		}

		// build stores the values in a fresh relation and returns it with
		// the position of the value each id names.
		build := func(indexed bool) (*Relation, map[storage.TupleID]int) {
			p := pager.OpenMem(64)
			t.Cleanup(func() { p.Close() })
			rel := New(p, "r", MustSchema("v:"+colType.String()), nil)
			pos := map[storage.TupleID]int{}
			for i, v := range values {
				if indexed && i == len(values)/2 {
					if err := rel.CreateIndex("v"); err != nil {
						t.Fatal(err)
					}
				}
				id, err := rel.Insert(Tuple{v})
				if err != nil {
					t.Fatal(err)
				}
				pos[id] = i
			}
			if indexed && len(values) == 0 {
				if err := rel.CreateIndex("v"); err != nil {
					t.Fatal(err)
				}
			}
			return rel, pos
		}
		check := func(how string, got []int) {
			t.Helper()
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Fatalf("%s keeps %v, the reference %v (term %+v, values %v)", how, got, want, tm, values)
			}
		}

		plain, pos := build(false)
		if _, ok := plain.Lookup(tm); ok {
			t.Fatalf("Lookup answered without a B-tree (term %+v)", tm)
		}
		var scanned []int
		if err := plain.ScanCols(nil, nil, terms, func(id storage.TupleID, _ Tuple) bool {
			scanned = append(scanned, pos[id])
			return true
		}); err != nil {
			t.Fatal(err)
		}
		check("ScanCols", scanned)

		indexed, pos := build(true)
		ids, ok := indexed.Lookup(tm)
		if ok != (valType == colType) {
			t.Fatalf("Lookup ok=%v for a %v value on a %v column", ok, valType, colType)
		}
		if !ok {
			return
		}
		if !slices.IsSortedFunc(ids, storage.TupleID.Compare) {
			t.Fatalf("Lookup ids %v not ascending", ids)
		}
		tuples, err := indexed.FetchWhere(nil, ids, nil, terms)
		if err != nil {
			t.Fatal(err)
		}
		var fetched []int
		for i, tu := range tuples {
			v := values[pos[ids[i]]]
			if tu == nil {
				if v.Type != TypeFloat || !math.IsNaN(v.Float) {
					t.Fatalf("Lookup returned %v, which the term %+v rejects and is not a NaN", v, tm)
				}
				continue
			}
			fetched = append(fetched, pos[ids[i]])
		}
		check("Lookup then FetchWhere", fetched)
	})
}
