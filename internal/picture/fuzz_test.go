package picture

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/geom"
)

// FuzzDecodeObject feeds arbitrary bytes to the object decoder on its
// own (FuzzDecodeTuple reaches it only inside a tuple's loc column).
// Seeds are one encoding of each kind, their truncations and a bogus
// kind. Properties: the decoder never panics, ObjectLen accepts exactly
// what it accepts, EncodedMBR of an accepted input is the decoded
// object's MBR bit for bit, and any input it accepts re-encodes to bytes
// that decode and re-encode to themselves.
func FuzzDecodeObject(f *testing.F) {
	for _, o := range []Object{
		{ID: 1, Kind: KindPoint, Label: "a point", Point: geom.Pt(3.5, -7.25)},
		{ID: 42, Kind: KindSegment, Segment: geom.Seg(geom.Pt(0, 0), geom.Pt(10, 20))},
		{ID: 9001, Kind: KindRegion, Label: "région", Region: geom.Poly(geom.Pt(0, 0), geom.Pt(4, 0), geom.Pt(4, 4))},
	} {
		good := EncodeObject(o)
		for cut := 0; cut <= len(good); cut++ {
			f.Add(bytes.Clone(good[:cut]))
		}
		bad := bytes.Clone(good)
		bad[8] = 99
		f.Add(bad)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		o, err := DecodeObject(data)
		if n, lerr := ObjectLen(data); (lerr == nil) != (err == nil) || (err == nil && n > len(data)) {
			t.Fatalf("ObjectLen = %d, %v; DecodeObject error %v (input %x)", n, lerr, err, data)
		}
		if err != nil {
			return // rejecting is always fine; panicking is not
		}
		if got, want := EncodedMBR(data), o.MBR(); rectBits(got) != rectBits(want) {
			t.Fatalf("EncodedMBR = %v, the decoded object's MBR %v (input %x)", got, want, data)
		}
		re := EncodeObject(o)
		o2, err := DecodeObject(re)
		if err != nil {
			t.Fatalf("re-encoding of accepted input failed to decode: %v (input %x)", err, data)
		}
		if !bytes.Equal(EncodeObject(o2), re) {
			t.Fatalf("decode/encode round-trip unstable for input %x", data)
		}
	})
}

// rectBits is r's corners as bits, so that NaN coordinates compare.
func rectBits(r geom.Rect) [4]uint64 {
	return [4]uint64{math.Float64bits(r.Min.X), math.Float64bits(r.Min.Y), math.Float64bits(r.Max.X), math.Float64bits(r.Max.Y)}
}
