package rtree

import (
	"reflect"
	"testing"
)

// An entry is a rectangle and an int64 and holds no pointer, so the
// collector never traces the entries of a tree: a field added to entry
// that holds one, or that widens it, fails here.
func TestEntryHoldsNoPointer(t *testing.T) {
	typ := reflect.TypeOf(entry{})
	if size := typ.Size(); size != 40 {
		t.Errorf("entry is %d bytes, want 40", size)
	}
	var check func(path string, f reflect.Type)
	check = func(path string, f reflect.Type) {
		switch f.Kind() {
		case reflect.Struct:
			for i := range f.NumField() {
				check(path+"."+f.Field(i).Name, f.Field(i).Type)
			}
		case reflect.Array:
			check(path+"[]", f.Elem())
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64:
		default:
			t.Errorf("entry field %s is a %v, which the collector traces", path, f.Kind())
		}
	}
	check("entry", typ)
}
