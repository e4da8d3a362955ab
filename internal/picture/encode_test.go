package picture

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

func TestEncodeDecodeObjectRoundtrip(t *testing.T) {
	objs := []Object{
		{ID: 1, Kind: KindPoint, Label: "a point", Point: geom.Pt(3.5, -7.25)},
		{ID: 42, Kind: KindSegment, Label: "", Segment: geom.Seg(geom.Pt(0, 0), geom.Pt(10, 20))},
		{ID: 9001, Kind: KindRegion, Label: "région", Region: geom.Poly(
			geom.Pt(0, 0), geom.Pt(4, 0), geom.Pt(4, 4), geom.Pt(0, 4), geom.Pt(-1, 2))},
	}
	for _, o := range objs {
		got, err := DecodeObject(EncodeObject(o))
		if err != nil {
			t.Fatalf("%v: %v", o.Kind, err)
		}
		if got.ID != o.ID || got.Kind != o.Kind || got.Label != o.Label {
			t.Fatalf("metadata lost: %+v vs %+v", got, o)
		}
		if !got.MBR().Eq(o.MBR()) {
			t.Fatalf("geometry changed: %v vs %v", got.MBR(), o.MBR())
		}
	}
}

func TestDecodeObjectCorrupt(t *testing.T) {
	good := EncodeObject(Object{ID: 5, Kind: KindSegment, Label: "x",
		Segment: geom.Seg(geom.Pt(1, 1), geom.Pt(2, 2))})
	for cut := 0; cut < len(good); cut++ {
		if _, err := DecodeObject(good[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	bad := append([]byte(nil), good...)
	bad[8] = 99 // bogus kind
	if _, err := DecodeObject(bad); err == nil {
		t.Fatal("bogus kind accepted")
	}
	// A point record claiming two vertices is invalid.
	p := EncodeObject(Object{ID: 1, Kind: KindPoint, Point: geom.Pt(1, 1)})
	seg := EncodeObject(Object{ID: 1, Kind: KindSegment, Segment: geom.Seg(geom.Pt(1, 1), geom.Pt(2, 2))})
	mixed := append([]byte(nil), seg...)
	mixed[8] = byte(KindPoint)
	if _, err := DecodeObject(mixed); err == nil {
		t.Fatal("point with two vertices accepted")
	}
	_ = p
}

// ObjectLen accepts what DecodeObject accepts and measures the
// encoding it decodes, whatever follows it.
func TestObjectLenMatchesDecode(t *testing.T) {
	for _, o := range []Object{
		{ID: 1, Kind: KindPoint, Label: "p", Point: geom.Pt(3, 4)},
		{ID: 2, Kind: KindSegment, Segment: geom.Seg(geom.Pt(0, 0), geom.Pt(10, 20))},
		{ID: 3, Kind: KindRegion, Label: "r", Region: geom.Poly(geom.Pt(0, 0), geom.Pt(4, 0), geom.Pt(4, 4))},
	} {
		enc := EncodeObject(o)
		for cut := 0; cut <= len(enc); cut++ {
			rec := append(enc[:cut:cut], "tail"...)
			n, lerr := ObjectLen(rec)
			_, derr := DecodeObject(rec)
			if (lerr == nil) != (derr == nil) {
				t.Fatalf("object %d cut at %d: ObjectLen %v, DecodeObject %v", o.ID, cut, lerr, derr)
			}
			if cut == len(enc) && n != len(enc) {
				t.Fatalf("object %d: ObjectLen %d, encoding %d bytes", o.ID, n, len(enc))
			}
		}
	}
}

func TestQuickEncodeRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func() bool {
		var o Object
		o.ID = ObjectID(1 + rng.Intn(1_000_000))
		o.Label = randLabel(rng)
		switch rng.Intn(3) {
		case 0:
			o.Kind = KindPoint
			o.Point = geom.Pt(rng.NormFloat64()*1000, rng.NormFloat64()*1000)
		case 1:
			o.Kind = KindSegment
			o.Segment = geom.Seg(
				geom.Pt(rng.NormFloat64()*1000, rng.NormFloat64()*1000),
				geom.Pt(rng.NormFloat64()*1000, rng.NormFloat64()*1000))
		default:
			o.Kind = KindRegion
			n := 3 + rng.Intn(10)
			pts := make([]geom.Point, n)
			for i := range pts {
				pts[i] = geom.Pt(rng.NormFloat64()*1000, rng.NormFloat64()*1000)
			}
			o.Region = geom.Polygon{Vertices: pts}
		}
		got, err := DecodeObject(EncodeObject(o))
		if err != nil {
			return false
		}
		if got.ID != o.ID || got.Kind != o.Kind || got.Label != o.Label {
			return false
		}
		switch o.Kind {
		case KindPoint:
			return got.Point.Eq(o.Point)
		case KindSegment:
			return got.Segment.A.Eq(o.Segment.A) && got.Segment.B.Eq(o.Segment.B)
		default:
			if len(got.Region.Vertices) != len(o.Region.Vertices) {
				return false
			}
			for i := range o.Region.Vertices {
				if !got.Region.Vertices[i].Eq(o.Region.Vertices[i]) {
					return false
				}
			}
			return true
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func randLabel(rng *rand.Rand) string {
	n := rng.Intn(12)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + rng.Intn(26))
	}
	return string(b)
}
