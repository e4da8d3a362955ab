// Package relation implements the alphanumeric side of the pictorial
// database and its integration points with the pictorial side:
// schemas over alphanumeric and pictorial domains, binary tuple
// encoding for heap storage, order-preserving key encodings for B-tree
// indexes, and Relation — a heap-backed table with secondary B-tree
// indexes on alphanumeric columns and packed R-tree indexes on its loc
// column, one per associated picture (§2.1 of the paper: "a pictorial
// relation could be associated with more than one picture ... one
// identifier is required for each picture association").
package relation

import (
	"fmt"
	"strings"

	"repro/internal/geom"
	"repro/internal/picture"
)

// Type enumerates the column domains: the usual alphanumeric domains
// plus the pictorial pointer domain of the paper's "loc" columns.
type Type int

const (
	// TypeInt is a 64-bit integer domain.
	TypeInt Type = iota
	// TypeFloat is a float64 domain.
	TypeFloat
	// TypeString is a string domain.
	TypeString
	// TypeLoc is the pictorial pointer domain: values reference a
	// spatial object on a picture.
	TypeLoc
)

// String names the type.
func (t Type) String() string {
	switch t {
	case TypeInt:
		return "int"
	case TypeFloat:
		return "float"
	case TypeString:
		return "string"
	case TypeLoc:
		return "loc"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// Column is one schema column.
type Column struct {
	Name string
	Type Type
}

// Schema describes a relation's columns.
type Schema struct {
	Columns []Column
}

// NewSchema builds a schema from "name:type" specs, e.g.
// NewSchema("city:string", "population:int", "loc:loc").
func NewSchema(specs ...string) (Schema, error) {
	var s Schema
	for _, spec := range specs {
		name, typ, ok := strings.Cut(spec, ":")
		if !ok {
			return Schema{}, fmt.Errorf("relation: bad column spec %q (want name:type)", spec)
		}
		var t Type
		switch typ {
		case "int":
			t = TypeInt
		case "float":
			t = TypeFloat
		case "string":
			t = TypeString
		case "loc":
			t = TypeLoc
		default:
			return Schema{}, fmt.Errorf("relation: unknown type %q in %q", typ, spec)
		}
		if s.ColumnIndex(name) >= 0 {
			return Schema{}, fmt.Errorf("relation: duplicate column %q", name)
		}
		s.Columns = append(s.Columns, Column{Name: name, Type: t})
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error, for static schemas.
func MustSchema(specs ...string) Schema {
	s, err := NewSchema(specs...)
	if err != nil {
		panic(err)
	}
	return s
}

// ColumnIndex returns the index of the named column, or -1.
func (s Schema) ColumnIndex(name string) int {
	for i, c := range s.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// LocColumn returns the index of the first loc-typed column, or -1.
func (s Schema) LocColumn() int {
	for i, c := range s.Columns {
		if c.Type == TypeLoc {
			return i
		}
	}
	return -1
}

// Arity returns the number of columns.
func (s Schema) Arity() int { return len(s.Columns) }

// LocRef is a pictorial pointer: the paper's backward identifier from
// a tuple to the spatial object representing it on a picture.
type LocRef struct {
	Picture string
	Object  picture.ObjectID
}

// IsZero reports whether the ref points nowhere.
func (l LocRef) IsZero() bool { return l.Picture == "" && l.Object == 0 }

// String formats the ref as "picture#id".
func (l LocRef) String() string { return fmt.Sprintf("%s#%d", l.Picture, l.Object) }

// Value is one column value. Exactly the field matching Type is
// meaningful, except that a loc read from a stored tuple carries its
// object's encoding (picture.EncodeObject) in Str; one built with L
// carries none.
type Value struct {
	Type  Type
	Int   int64
	Float float64
	Str   string
	Loc   LocRef
}

// I, F, S and L construct values of each domain.
func I(v int64) Value   { return Value{Type: TypeInt, Int: v} }
func F(v float64) Value { return Value{Type: TypeFloat, Float: v} }
func S(v string) Value  { return Value{Type: TypeString, Str: v} }
func L(pic string, id picture.ObjectID) Value {
	return Value{Type: TypeLoc, Loc: LocRef{Picture: pic, Object: id}}
}

// String renders the value for display.
func (v Value) String() string {
	switch v.Type {
	case TypeInt:
		return fmt.Sprintf("%d", v.Int)
	case TypeFloat:
		return fmt.Sprintf("%g", v.Float)
	case TypeString:
		return v.Str
	case TypeLoc:
		return v.Loc.String()
	default:
		return "?"
	}
}

// Eq reports equality of two values; locs are equal when they name one
// object, whatever they carry.
func (v Value) Eq(w Value) bool {
	if v.Type == TypeLoc {
		return w.Type == TypeLoc && v.Loc == w.Loc
	}
	return v == w
}

// LocMBR returns the MBR of the object loc value v carries, read from
// its encoding without decoding it; ok is false when v carries none. A
// loc read back carries a whole encoding; a Str set by hand must too.
func (v Value) LocMBR() (r geom.Rect, ok bool) {
	if v.Type != TypeLoc || v.Str == "" {
		return geom.Rect{}, false
	}
	return picture.EncodedMBR(v.Str), true
}

// LocObject returns the object loc value v carries, decoded whole; ok
// is false when v carries none.
func (v Value) LocObject() (o picture.Object, ok bool) {
	if v.Type != TypeLoc {
		return picture.Object{}, false
	}
	o, err := picture.DecodeObject([]byte(v.Str)) // an empty Str is an error
	return o, err == nil
}

// Compare orders two values of the same type: -1, 0, or +1. Loc
// values order by (picture, object). Comparing values of different
// types returns the type order (a schema violation upstream).
func (v Value) Compare(w Value) int {
	if v.Type != w.Type {
		if v.Type < w.Type {
			return -1
		}
		return 1
	}
	switch v.Type {
	case TypeInt:
		switch {
		case v.Int < w.Int:
			return -1
		case v.Int > w.Int:
			return 1
		}
	case TypeFloat:
		switch {
		case v.Float < w.Float:
			return -1
		case v.Float > w.Float:
			return 1
		}
	case TypeString:
		return strings.Compare(v.Str, w.Str)
	case TypeLoc:
		if c := strings.Compare(v.Loc.Picture, w.Loc.Picture); c != 0 {
			return c
		}
		switch {
		case v.Loc.Object < w.Loc.Object:
			return -1
		case v.Loc.Object > w.Loc.Object:
			return 1
		}
	}
	return 0
}

// Tuple is one row: values positionally matching a schema.
type Tuple []Value

// Validate checks the tuple against the schema.
func (s Schema) Validate(t Tuple) error {
	if len(t) != len(s.Columns) {
		return fmt.Errorf("relation: tuple arity %d, schema wants %d", len(t), len(s.Columns))
	}
	for i, v := range t {
		if v.Type != s.Columns[i].Type {
			return fmt.Errorf("relation: column %q wants %v, got %v", s.Columns[i].Name, s.Columns[i].Type, v.Type)
		}
	}
	return nil
}
