package psql_test

import (
	"math"
	"testing"

	pictdb "repro"
)

// one runs a query expected to return a single scalar row and returns
// that datum as float.
func one(t *testing.T, db *pictdb.Database, q string) float64 {
	t.Helper()
	res, err := db.Query(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	if res.Len() != 1 || len(res.Rows[0]) != 1 {
		t.Fatalf("%s: want a single scalar, got %v", q, res.Rows)
	}
	return res.Rows[0][0].AsFloat()
}

func oneStr(t *testing.T, db *pictdb.Database, q string) string {
	t.Helper()
	res, err := db.Query(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	if res.Len() != 1 || len(res.Rows[0]) != 1 {
		t.Fatalf("%s: want a single scalar, got %v", q, res.Rows)
	}
	return res.Rows[0][0].Str
}

// fdb builds a tiny database with exactly one object of each kind at
// known coordinates, so function results are exact.
func fdb(t *testing.T) *pictdb.Database {
	t.Helper()
	db := pictdb.New()
	t.Cleanup(func() { db.Close() })
	pic, err := db.CreatePicture("m", pictdb.R(0, 0, 100, 100))
	if err != nil {
		t.Fatal(err)
	}
	rel, err := db.CreateRelation("objs", pictdb.MustSchema("name:string", "loc:loc"))
	if err != nil {
		t.Fatal(err)
	}
	add := func(name string, id pictdb.ObjectID) {
		if _, err := rel.Insert(pictdb.Tuple{pictdb.S(name), pictdb.L("m", id)}); err != nil {
			t.Fatal(err)
		}
	}
	add("pt", pic.AddPoint("PT", pictdb.Pt(10, 20)))
	add("seg", pic.AddSegment("SEG", pictdb.Seg(pictdb.Pt(0, 0), pictdb.Pt(30, 40))))
	// A right triangle with area 50, perimeter 10+10+~14.14.
	add("tri", pic.AddRegion("TRI", pictdb.Poly(pictdb.Pt(50, 50), pictdb.Pt(60, 50), pictdb.Pt(50, 60))))
	if err := rel.AttachPicture(pic, pictdb.PackOptions{Method: pictdb.PackHilbert}); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestFunctionArea(t *testing.T) {
	db := fdb(t)
	if got := one(t, db, `select area(loc) from objs where name = 'tri'`); got != 50 {
		t.Errorf("area(triangle) = %g, want 50", got)
	}
	// Points have zero area (MBR fallback).
	if got := one(t, db, `select area(loc) from objs where name = 'pt'`); got != 0 {
		t.Errorf("area(point) = %g", got)
	}
	// Area of an area literal.
	if got := one(t, db, `select area({10±5, 10±10}) from objs where name = 'pt'`); got != 200 {
		t.Errorf("area(window) = %g, want 200", got)
	}
}

func TestFunctionLength(t *testing.T) {
	db := fdb(t)
	if got := one(t, db, `select length(loc) from objs where name = 'seg'`); got != 50 {
		t.Errorf("length(segment) = %g, want 50", got)
	}
}

func TestFunctionPerimeter(t *testing.T) {
	db := fdb(t)
	want := 20 + math.Hypot(10, 10)
	if got := one(t, db, `select perimeter(loc) from objs where name = 'tri'`); math.Abs(got-want) > 1e-9 {
		t.Errorf("perimeter(triangle) = %g, want %g", got, want)
	}
}

func TestFunctionCompassEdges(t *testing.T) {
	db := fdb(t)
	cases := map[string]float64{
		`select northest(loc) from objs where name = 'seg'`: 40,
		`select southest(loc) from objs where name = 'seg'`: 0,
		`select eastest(loc) from objs where name = 'seg'`:  30,
		`select westest(loc) from objs where name = 'seg'`:  0,
		`select northest(loc) from objs where name = 'pt'`:  20,
	}
	for q, want := range cases {
		if got := one(t, db, q); got != want {
			t.Errorf("%s = %g, want %g", q, got, want)
		}
	}
}

func TestFunctionCenterDistance(t *testing.T) {
	db := fdb(t)
	if got := one(t, db, `select centerx(loc) from objs where name = 'seg'`); got != 15 {
		t.Errorf("centerx = %g, want 15", got)
	}
	if got := one(t, db, `select centery(loc) from objs where name = 'seg'`); got != 20 {
		t.Errorf("centery = %g, want 20", got)
	}
	// distance between point (10,20) and window centered at (10,30).
	if got := one(t, db, `select distance(loc, {10±1, 30±1}) from objs where name = 'pt'`); got != 10 {
		t.Errorf("distance = %g, want 10", got)
	}
}

func TestFunctionMBRWindowLabelKind(t *testing.T) {
	db := fdb(t)
	// mbr() returns an area usable by other functions.
	if got := one(t, db, `select area(mbr(loc)) from objs where name = 'seg'`); got != 1200 {
		t.Errorf("area(mbr(seg)) = %g, want 1200", got)
	}
	// window() is the functional form of the literal.
	if got := one(t, db, `select area(window(10, 5, 10, 10)) from objs where name = 'pt'`); got != 200 {
		t.Errorf("area(window(...)) = %g, want 200", got)
	}
	if got := oneStr(t, db, `select label(loc) from objs where name = 'tri'`); got != "TRI" {
		t.Errorf("label = %q", got)
	}
	if got := oneStr(t, db, `select kind(loc) from objs where name = 'seg'`); got != "segment" {
		t.Errorf("kind = %q", got)
	}
}

func TestFunctionScalars(t *testing.T) {
	db := fdb(t)
	if got := one(t, db, `select abs(0 - 7) from objs where name = 'pt'`); got != 7 {
		t.Errorf("abs = %g", got)
	}
	if got := one(t, db, `select sqrt(49) from objs where name = 'pt'`); got != 7 {
		t.Errorf("sqrt = %g", got)
	}
	if _, err := db.Query(`select sqrt(0 - 1) from objs where name = 'pt'`); err == nil {
		t.Error("sqrt of negative accepted")
	}
}

func TestFunctionArgErrors(t *testing.T) {
	db := fdb(t)
	bad := []string{
		`select area() from objs`,
		`select area(name) from objs`,    // string arg
		`select distance(loc) from objs`, // missing second arg
		`select window(1, 2) from objs`,  // too few args
		`select label(5) from objs`,      // not a loc
		`select sqrt(name) from objs`,    // non-numeric
	}
	for _, q := range bad {
		if _, err := db.Query(q); err == nil {
			t.Errorf("accepted %q", q)
		}
	}
}
