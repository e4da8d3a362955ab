package relation

import (
	"bytes"
	"testing"

	"repro/internal/geom"
	"repro/internal/picture"
)

// FuzzDecodeTuple feeds arbitrary bytes to the heap record decoder: a
// record is the tuple body, the objects loc columns carry included.
// Seeds are records: a valid one and its truncations, a bogus type tag,
// and a record per object kind with its object cut short and with a bad
// kind byte. Properties: the decoders never panic; any body DecodeTuple
// accepts re-encodes, with the objects its locs carry, and re-decodes to
// the same tuple (round-trip stability) — together the guarantee
// Database.Check relies on when it re-decodes every stored record. The
// batch fetch's decode — into an arena slot, the terms' columns first
// (decodeKept) — is held to the same decoder: it fails on exactly the
// bodies DecodeTuple fails on, with the same error, and on the others
// agrees with it on every needed column, whatever the masks and
// whatever the slot's capacity; with no column needed, the loc's object
// is validated all the same.
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

	f.Fuzz(func(t *testing.T, body []byte) {
		tup, err := DecodeTuple(body)
		checkDecodeKept(t, body, tup, err)
		if _, skipErr := DecodeTupleCols(body, make([]bool, len(body))); (skipErr == nil) != (err == nil) {
			t.Fatalf("decode needing no column: %v, DecodeTuple: %v (input %x)", skipErr, err, body)
		}
		if err != nil {
			return // rejecting is always fine; panicking is not
		}
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

// checkDecodeKept runs decodeKept on data under masks and a slot
// capacity derived from its bytes and compares it with full, err — what
// DecodeTuple made of the same bytes.
func checkDecodeKept(t *testing.T, data []byte, full Tuple, err error) {
	t.Helper()
	seed := uint32(len(data))
	for _, b := range data {
		seed = seed*31 + uint32(b)
	}
	mask := func(bits uint32) []bool {
		m := make([]bool, 1+bits%5) // shorter than some tuples: the rest is needed
		for i := range m {
			m[i] = bits>>(3+i)&1 == 1
		}
		return m
	}
	need, test := mask(seed), mask(seed/7)
	for _, accept := range []bool{true, false} {
		slot := make(Tuple, seed%4, seed%4+seed/3%6) // stale values the decode must overwrite
		for i := range slot {
			slot[i] = S("stale")
		}
		var shown Tuple
		got, ok, gerr := decodeKept(data, need, test, func(tt Tuple) bool {
			shown = append(Tuple(nil), tt...)
			return accept
		}, slot[:0])
		if (gerr == nil) != (err == nil) || (err != nil && gerr.Error() != err.Error()) {
			t.Fatalf("decodeKept error %v, DecodeTuple error %v (input %x)", gerr, err, data)
		}
		if err != nil {
			continue
		}
		if ok != accept {
			t.Fatalf("decodeKept kept=%v under a keep answering %v (input %x)", ok, accept, data)
		}
		agree := func(what string, part Tuple, m []bool) {
			if len(part) != len(full) {
				t.Fatalf("%s has %d columns, DecodeTuple %d (input %x)", what, len(part), len(full), data)
			}
			for i, v := range part {
				want := Value{Type: full[i].Type}
				if i >= len(m) || m[i] {
					want = full[i]
				}
				// Compared as encoded: a NaN equals itself there.
				if !bytes.Equal(EncodeTuple(Tuple{v}), EncodeTuple(Tuple{want})) {
					t.Fatalf("%s column %d = %+v, want %+v (input %x)", what, i, v, want, data)
				}
			}
		}
		agree("the tuple keep was shown", shown, test)
		if !accept {
			continue
		}
		agree("the kept tuple", got, need)
		if len(got) > 0 && len(got) <= cap(slot) && &got[0] != &slot[:1][0] {
			t.Fatalf("a %d-column tuple did not use its %d-value slot (input %x)", len(got), cap(slot), data)
		}
	}
}
