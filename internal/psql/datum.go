package psql

import (
	"fmt"
	"strings"

	"repro/internal/geom"
	"repro/internal/picture"
	"repro/internal/relation"
)

// DatumKind classifies runtime values. It is a byte, so that Bool
// shares Kind's word in a Datum.
type DatumKind uint8

const (
	// KindNull is the absence of a value.
	KindNull DatumKind = iota
	// KindBool is a boolean.
	KindBool
	// KindInt is a 64-bit integer.
	KindInt
	// KindFloat is a float64.
	KindFloat
	// KindString is a string.
	KindString
	// KindLoc is a pictorial pointer (a relation.LocRef).
	KindLoc
	// KindRect is an area value: an evaluated area literal or the MBR
	// of a loc.
	KindRect
)

// String names the kind.
func (k DatumKind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindBool:
		return "bool"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindLoc:
		return "loc"
	case KindRect:
		return "area"
	default:
		return fmt.Sprintf("DatumKind(%d)", int(k))
	}
}

// Datum is one runtime value during query evaluation. A loc datum read
// from a tuple carries its object's encoding in Str and MBR in Rect.
// Kind is one byte and Bool sits beside it in the first word, which
// keeps a Datum at 96 bytes (TestDatumSize).
type Datum struct {
	Kind  DatumKind
	Bool  bool
	Int   int64
	Float float64
	Str   string
	Loc   relation.LocRef
	Rect  geom.Rect
}

// Convenience constructors.
func null() Datum             { return Datum{Kind: KindNull} }
func boolD(b bool) Datum      { return Datum{Kind: KindBool, Bool: b} }
func intD(v int64) Datum      { return Datum{Kind: KindInt, Int: v} }
func floatD(v float64) Datum  { return Datum{Kind: KindFloat, Float: v} }
func stringD(s string) Datum  { return Datum{Kind: KindString, Str: s} }
func rectD(r geom.Rect) Datum { return Datum{Kind: KindRect, Rect: r} }
func locD(l relation.LocRef) Datum {
	return Datum{Kind: KindLoc, Loc: l}
}

// setFromValue writes a stored relation value to out as a runtime
// datum; a loc keeps the object its tuple carries.
func setFromValue(out *Datum, v *relation.Value) {
	switch v.Type {
	case relation.TypeInt:
		*out = intD(v.Int)
	case relation.TypeFloat:
		*out = floatD(v.Float)
	case relation.TypeString:
		*out = stringD(v.Str)
	case relation.TypeLoc:
		*out = locD(v.Loc)
		out.Str = v.Str
		out.Rect, _ = v.LocMBR()
	default:
		*out = null()
	}
}

// LocObject returns the object a loc datum's tuple carries, decoded
// whole; ok is false when the datum carries none.
func (d Datum) LocObject() (o picture.Object, ok bool) {
	if d.Kind != KindLoc {
		return picture.Object{}, false
	}
	return relation.Value{Type: relation.TypeLoc, Loc: d.Loc, Str: d.Str}.LocObject()
}

// IsNumeric reports whether the datum is an int or float.
func (d Datum) IsNumeric() bool { return d.Kind == KindInt || d.Kind == KindFloat }

// AsFloat returns the numeric value as a float64.
func (d Datum) AsFloat() float64 {
	if d.Kind == KindInt {
		return float64(d.Int)
	}
	return d.Float
}

// Truth returns the boolean value of d; non-bools are errors.
func (d Datum) Truth() (bool, error) {
	if d.Kind != KindBool {
		return false, fmt.Errorf("psql: %s value used as a condition", d.Kind)
	}
	return d.Bool, nil
}

// String renders the datum for result display.
func (d Datum) String() string {
	switch d.Kind {
	case KindNull:
		return "null"
	case KindBool:
		if d.Bool {
			return "true"
		}
		return "false"
	case KindInt:
		return fmt.Sprintf("%d", d.Int)
	case KindFloat:
		return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.3f", d.Float), "0"), ".")
	case KindString:
		return d.Str
	case KindLoc:
		return d.Loc.String()
	case KindRect:
		return d.Rect.String()
	default:
		return "?"
	}
}

// compare orders two datums, promoting ints to floats. It returns an
// error for incomparable kinds.
func compare(a, b *Datum) (int, error) {
	if a.IsNumeric() && b.IsNumeric() {
		av, bv := a.AsFloat(), b.AsFloat()
		switch {
		case av < bv:
			return -1, nil
		case av > bv:
			return 1, nil
		}
		return 0, nil
	}
	if a.Kind == KindString && b.Kind == KindString {
		return strings.Compare(a.Str, b.Str), nil
	}
	if a.Kind == KindLoc && b.Kind == KindLoc {
		if c := strings.Compare(a.Loc.Picture, b.Loc.Picture); c != 0 {
			return c, nil
		}
		switch {
		case a.Loc.Object < b.Loc.Object:
			return -1, nil
		case a.Loc.Object > b.Loc.Object:
			return 1, nil
		}
		return 0, nil
	}
	return 0, fmt.Errorf("psql: cannot compare %s with %s", a.Kind, b.Kind)
}
