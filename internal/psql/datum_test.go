package psql

import (
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/relation"
)

func TestDatumString(t *testing.T) {
	tests := []struct {
		d    Datum
		want string
	}{
		{null(), "null"},
		{boolD(true), "true"},
		{boolD(false), "false"},
		{intD(-42), "-42"},
		{floatD(3.5), "3.5"},
		{floatD(3.0), "3"},
		{stringD("hi"), "hi"},
		{locD(relation.LocRef{Picture: "m", Object: 7}), "m#7"},
		{rectD(geom.R(1, 2, 3, 4)), "[1,2 3,4]"},
	}
	for _, tt := range tests {
		if got := tt.d.String(); got != tt.want {
			t.Errorf("%v.String() = %q, want %q", tt.d.Kind, got, tt.want)
		}
	}
}

func TestDatumTruth(t *testing.T) {
	if v, err := boolD(true).Truth(); err != nil || !v {
		t.Errorf("Truth(true) = %v, %v", v, err)
	}
	if _, err := intD(1).Truth(); err == nil {
		t.Error("int used as condition should error")
	}
	if _, err := stringD("x").Truth(); err == nil {
		t.Error("string used as condition should error")
	}
}

func TestDatumCompare(t *testing.T) {
	tests := []struct {
		a, b Datum
		want int
	}{
		{intD(1), intD(2), -1},
		{intD(2), intD(2), 0},
		{intD(3), intD(2), 1},
		{intD(1), floatD(1.5), -1}, // mixed numeric promotes
		{floatD(2.5), intD(2), 1},
		{stringD("a"), stringD("b"), -1},
		{stringD("b"), stringD("b"), 0},
		{locD(relation.LocRef{Picture: "a", Object: 1}), locD(relation.LocRef{Picture: "b", Object: 0}), -1},
		{locD(relation.LocRef{Picture: "a", Object: 1}), locD(relation.LocRef{Picture: "a", Object: 2}), -1},
		{locD(relation.LocRef{Picture: "a", Object: 2}), locD(relation.LocRef{Picture: "a", Object: 2}), 0},
	}
	for _, tt := range tests {
		got, err := compare(&tt.a, &tt.b)
		if err != nil {
			t.Errorf("compare(%v, %v): %v", tt.a, tt.b, err)
			continue
		}
		if got != tt.want {
			t.Errorf("compare(%v, %v) = %d, want %d", tt.a, tt.b, got, tt.want)
		}
	}
	one, x, unit := intD(1), stringD("x"), rectD(geom.R(0, 0, 1, 1))
	if _, err := compare(&one, &x); err == nil {
		t.Error("int vs string comparison should error")
	}
	if _, err := compare(&unit, &unit); err == nil {
		t.Error("rect ordering should error (no total order)")
	}
}

func TestDatumsEqual(t *testing.T) {
	eq := func(a, b Datum, want bool) {
		t.Helper()
		got, err := datumsEqual(&a, &b)
		if err != nil {
			t.Errorf("datumsEqual(%v, %v): %v", a, b, err)
			return
		}
		if got != want {
			t.Errorf("datumsEqual(%v, %v) = %v", a, b, got)
		}
	}
	eq(intD(2), floatD(2.0), true)
	eq(intD(2), floatD(2.5), false)
	eq(stringD("x"), stringD("x"), true)
	eq(boolD(true), boolD(true), true)
	eq(null(), null(), true)
	eq(null(), intD(0), false)
	eq(rectD(geom.R(0, 0, 1, 1)), rectD(geom.R(0, 0, 1, 1)), true)
	eq(locD(relation.LocRef{Picture: "m", Object: 1}), locD(relation.LocRef{Picture: "m", Object: 1}), true)
	one, unit := intD(1), rectD(geom.R(0, 0, 1, 1))
	if _, err := datumsEqual(&one, &unit); err == nil {
		t.Error("int vs rect equality should error")
	}
}

func TestFromValue(t *testing.T) {
	tests := []struct {
		v    relation.Value
		kind DatumKind
	}{
		{relation.I(5), KindInt},
		{relation.F(2.5), KindFloat},
		{relation.S("s"), KindString},
		{relation.L("m", 3), KindLoc},
	}
	for _, tt := range tests {
		var got Datum
		if setFromValue(&got, &tt.v); got.Kind != tt.kind {
			t.Errorf("setFromValue(%v).Kind = %v, want %v", tt.v, got.Kind, tt.kind)
		}
	}
}

func TestKindStrings(t *testing.T) {
	for k := KindNull; k <= KindRect; k++ {
		if strings.HasPrefix(k.String(), "DatumKind(") {
			t.Errorf("kind %d has no name", k)
		}
	}
	if !strings.HasPrefix(DatumKind(99).String(), "DatumKind(") {
		t.Error("unknown kind should fall back to numeric form")
	}
}

// TestParserNeverPanics feeds token soup to the parser: malformed
// input must produce errors, never panics.
func TestParserNeverPanics(t *testing.T) {
	fragments := []string{
		"select", "from", "on", "at", "where", "order", "by", "limit",
		"covered-by", "covering", "{", "}", "(", ")", ",", ".", "±",
		"loc", "cities", "1", "2.5", "'s'", "*", "+", "-", "=", "<",
		"and", "or", "not", "area",
	}
	// Deterministic pseudo-random combinations.
	state := uint64(12345)
	next := func(n int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int(state>>33) % n
	}
	for trial := 0; trial < 2000; trial++ {
		var b strings.Builder
		n := 1 + next(12)
		for i := 0; i < n; i++ {
			b.WriteString(fragments[next(len(fragments))])
			b.WriteByte(' ')
		}
		src := b.String()
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("parser panicked on %q: %v", src, r)
				}
			}()
			_, _ = Parse(src)
		}()
	}
}
