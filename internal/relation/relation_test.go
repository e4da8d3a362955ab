package relation

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/pack"
	"repro/internal/pager"
	"repro/internal/picture"
	"repro/internal/storage"
)

func citySchema() Schema {
	return MustSchema("city:string", "state:string", "population:int", "loc:loc")
}

// testPictures is the catalog a relation under test resolves its locs
// through.
type testPictures map[string]*picture.Picture

func (c testPictures) Picture(name string) (*picture.Picture, bool) {
	p, ok := c[name]
	return p, ok
}

// catalogOf is a catalog of pics.
func catalogOf(pics ...*picture.Picture) testPictures {
	c := make(testPictures)
	for _, p := range pics {
		c[p.Name()] = p
	}
	return c
}

// usMap is the picture most tests place cities on.
func usMap() *picture.Picture { return picture.New("us-map", geom.R(0, 0, 1000, 1000)) }

func newCities(t *testing.T) (*Relation, *picture.Picture) {
	t.Helper()
	p := pager.OpenMem(64)
	t.Cleanup(func() { p.Close() })
	pic := usMap()
	rel := New(p, "cities", citySchema(), catalogOf(pic))
	return rel, pic
}

// withObjects returns t's body as a stored record carries it: every
// non-zero loc with a point object of its id.
func withObjects(t Tuple) []byte {
	var objs []picture.Object
	for _, v := range t {
		if v.Type == TypeLoc && !v.Loc.IsZero() {
			objs = append(objs, picture.Object{ID: v.Loc.Object, Kind: picture.KindPoint, Label: "o", Point: geom.Pt(1, 2)})
		}
	}
	return appendBody(nil, carrying(t, objs...), true)
}

// carrying returns a copy of t whose non-zero locs carry objs, in
// column order, as a tuple read back carries its objects.
func carrying(t Tuple, objs ...picture.Object) Tuple {
	t = slices.Clone(t)
	for i, v := range t {
		if v.Type == TypeLoc && !v.Loc.IsZero() {
			t[i].Str, objs = string(picture.EncodeObject(objs[0])), objs[1:]
		}
	}
	return t
}

// repack folds every store's write side on the named picture into a
// fresh pack, as a background repack would.
func repack(rel *Relation, pictureName string) {
	for _, si := range rel.Spatials(pictureName) {
		si.RepackNow(false)
	}
}

func addCity(t *testing.T, rel *Relation, pic *picture.Picture, name, state string, pop int64, x, y float64) storage.TupleID {
	t.Helper()
	oid := pic.AddPoint(name, geom.Pt(x, y))
	id, err := rel.Insert(Tuple{S(name), S(state), I(pop), L(pic.Name(), oid)})
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func TestSchemaBasics(t *testing.T) {
	s := citySchema()
	if s.Arity() != 4 {
		t.Fatalf("arity = %d", s.Arity())
	}
	if s.ColumnIndex("population") != 2 || s.ColumnIndex("nope") != -1 {
		t.Fatal("ColumnIndex wrong")
	}
	if s.LocColumn() != 3 {
		t.Fatal("LocColumn wrong")
	}
	if _, err := NewSchema("bad"); err == nil {
		t.Fatal("bad spec accepted")
	}
	if _, err := NewSchema("a:int", "a:string"); err == nil {
		t.Fatal("duplicate column accepted")
	}
	if _, err := NewSchema("a:bogus"); err == nil {
		t.Fatal("bogus type accepted")
	}
}

func TestSchemaValidate(t *testing.T) {
	s := citySchema()
	good := Tuple{S("DC"), S("DC"), I(700000), L("us-map", 1)}
	if err := s.Validate(good); err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(good[:3]); err == nil {
		t.Fatal("short tuple accepted")
	}
	bad := Tuple{S("DC"), S("DC"), S("not-an-int"), L("us-map", 1)}
	if err := s.Validate(bad); err == nil {
		t.Fatal("type mismatch accepted")
	}
}

func TestEncodeDecodeRoundtrip(t *testing.T) {
	tuples := []Tuple{
		{},
		{I(0), I(-1), I(1<<62 + 5)},
		{F(3.14), F(-2.5e300), F(0)},
		{S(""), S("hello world"), S("unicode: héllo")},
		{L("map", 42), L("", 0)},
		{S("mixed"), I(-99), F(0.5), L("pic", 7)},
	}
	for i, tu := range tuples {
		rec := withObjects(tu)
		got, err := DecodeTuple(rec)
		if err != nil {
			t.Fatalf("tuple %d: %v", i, err)
		}
		if len(got) != len(tu) {
			t.Fatalf("tuple %d: arity %d", i, len(got))
		}
		for j := range tu {
			if !got[j].Eq(tu[j]) {
				t.Fatalf("tuple %d col %d: %v != %v", i, j, got[j], tu[j])
			}
		}
	}
	// EncodeTuple is a row's own bytes: a stored body when every loc is
	// zero, and short of the object a non-zero one must carry.
	if !bytes.Equal(EncodeTuple(tuples[3]), withObjects(tuples[3])) {
		t.Fatal("EncodeTuple of a loc-free tuple differs from its stored body")
	}
	if _, err := DecodeTuple(EncodeTuple(tuples[4])); !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("a non-zero loc without its object decoded: %v", err)
	}
}

// A stored body carries the object its loc names after the object id;
// the loc column's span reports where it lies, and a zero loc's and a
// column of another type's report none.
func TestRecordLayout(t *testing.T) {
	obj := picture.Object{ID: 7, Kind: picture.KindSegment, Label: "s", Segment: geom.Seg(geom.Pt(0, 0), geom.Pt(3, 4))}
	tu := Tuple{S("x"), L("map", 7), I(9), L("", 0)}
	body := appendBody(nil, carrying(tu, obj), true)
	cols, err := walk(body, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := decodeSpans(body, cols, nil, nil)
	if !got[1].Eq(tu[1]) || !got[2].Eq(tu[2]) || !got[3].Eq(tu[3]) {
		t.Fatalf("decode = %v", got)
	}
	pic, enc, ok := cols[1].loc(body)
	if !ok || string(pic) != "map" || !bytes.Equal(enc, picture.EncodeObject(obj)) {
		t.Fatalf("loc bytes %q %x, %v", pic, enc, ok)
	}
	for _, i := range []int{0, 2, 3} {
		if _, _, ok := cols[i].loc(body); ok {
			t.Fatalf("column %d (%v) read as a loc carrying an object", i, tu[i])
		}
	}
}

func TestDecodeCorrupt(t *testing.T) {
	good := EncodeTuple(Tuple{S("abc"), I(5)})
	for cut := 1; cut < len(good); cut++ {
		if _, err := DecodeTuple(good[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, err := DecodeTuple([]byte{}); err == nil {
		t.Fatal("empty record accepted")
	}
	bad := append([]byte(nil), good...)
	bad[1] = 200 // bogus type tag
	if _, err := DecodeTuple(bad); err == nil {
		t.Fatal("bogus type tag accepted")
	}
}

func TestIndexKeyOrderPreserving(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func() bool {
		var a, b Value
		switch rng.Intn(3) {
		case 0:
			a, b = I(rng.Int63()-rng.Int63()), I(rng.Int63()-rng.Int63())
		case 1:
			a, b = F((rng.Float64()-0.5)*1e9), F((rng.Float64()-0.5)*1e9)
		default:
			a, b = S(randWord(rng)), S(randWord(rng))
		}
		ka, kb := IndexKey(a), IndexKey(b)
		cmpKeys := bytesCompare(ka, kb)
		cmpVals := a.Compare(b)
		return sign(cmpKeys) == sign(cmpVals)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func randWord(rng *rand.Rand) string {
	n := rng.Intn(8)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + rng.Intn(26))
	}
	return string(b)
}

func bytesCompare(a, b []byte) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	}
	return 0
}

func TestInsertGetDelete(t *testing.T) {
	rel, pic := newCities(t)
	id := addCity(t, rel, pic, "Washington", "DC", 700000, 770, 390)
	got, err := rel.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Str != "Washington" || got[2].Int != 700000 {
		t.Fatalf("Get = %v", got)
	}
	if rel.Len() != 1 {
		t.Fatalf("Len = %d", rel.Len())
	}
	if err := rel.Delete(id); err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 0 {
		t.Fatal("delete did not shrink relation")
	}
	if _, err := rel.Get(id); err == nil {
		t.Fatal("deleted tuple still readable")
	}
}

func TestInsertValidates(t *testing.T) {
	rel, _ := newCities(t)
	if _, err := rel.Insert(Tuple{S("x")}); err == nil {
		t.Fatal("short tuple accepted")
	}
}

func TestCreateIndexAndLookup(t *testing.T) {
	rel, pic := newCities(t)
	addCity(t, rel, pic, "A", "MD", 100, 1, 1)
	addCity(t, rel, pic, "B", "VA", 200, 2, 2)
	if err := rel.CreateIndex("state"); err != nil {
		t.Fatal(err)
	}
	// Index must cover pre-existing and future tuples.
	addCity(t, rel, pic, "C", "MD", 300, 3, 3)

	ids := lookupKept(t, rel, Term{Col: 1, Op: OpEq, Val: S("MD")})
	if len(ids) != 2 {
		t.Fatalf("MD lookup = %d ids", len(ids))
	}
	names := map[string]bool{}
	for _, id := range ids {
		tu, _ := rel.Get(id)
		names[tu[0].Str] = true
	}
	if !names["A"] || !names["C"] {
		t.Fatalf("MD cities = %v", names)
	}
	// An unindexed column is answered by a scan.
	pop := Term{Col: 2, Op: OpEq, Val: I(200)}
	if _, ok := rel.Lookup(pop); ok {
		t.Fatal("Lookup on an unindexed column claimed success")
	}
	if ids := scanKept(t, rel, pop); len(ids) != 1 {
		t.Fatalf("scan lookup = %v", ids)
	}
	// Index errors.
	if err := rel.CreateIndex("state"); err == nil {
		t.Fatal("duplicate index accepted")
	}
	if err := rel.CreateIndex("loc"); err == nil {
		t.Fatal("index on loc column accepted")
	}
	if err := rel.CreateIndex("nope"); err == nil {
		t.Fatal("index on missing column accepted")
	}
}

func TestDeleteMaintainsIndexes(t *testing.T) {
	rel, pic := newCities(t)
	if err := rel.CreateIndex("state"); err != nil {
		t.Fatal(err)
	}
	id := addCity(t, rel, pic, "A", "MD", 100, 1, 1)
	addCity(t, rel, pic, "B", "MD", 200, 2, 2)
	if err := rel.Delete(id); err != nil {
		t.Fatal(err)
	}
	// The B-tree's own ids, unfiltered: a stale entry would show.
	ids, _ := rel.Lookup(Term{Col: 1, Op: OpEq, Val: S("MD")})
	if len(ids) != 1 {
		t.Fatalf("after delete, MD lookup = %d ids", len(ids))
	}
}

func TestAttachPictureAndSearchArea(t *testing.T) {
	rel, pic := newCities(t)
	addCity(t, rel, pic, "East1", "AA", 1, 900, 500)
	addCity(t, rel, pic, "East2", "AA", 2, 850, 400)
	addCity(t, rel, pic, "West1", "BB", 3, 100, 500)
	if err := rel.AttachPicture(pic, hilbertPack); err != nil {
		t.Fatal(err)
	}
	if rel.Spatial("us-map") == nil {
		t.Fatal("spatial index missing")
	}
	ids, visited, err := rel.SearchArea("us-map", geom.R(800, 0, 1000, 1000), geom.CoveredBy)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 {
		t.Fatalf("east search = %d tuples", len(ids))
	}
	if visited < 1 {
		t.Fatal("no nodes visited")
	}
	// Direct search on a picture never attached fails.
	if _, _, err := rel.SearchArea("mars-map", geom.R(0, 0, 1, 1), geom.CoveredBy); err == nil {
		t.Fatal("search on missing picture succeeded")
	}
	// Double attach fails.
	if err := rel.AttachPicture(pic, hilbertPack); err == nil {
		t.Fatal("double attach accepted")
	}
}

func TestSpatialIndexMaintainedByInsertDelete(t *testing.T) {
	rel, pic := newCities(t)
	if err := rel.AttachPicture(pic, hilbertPack); err != nil {
		t.Fatal(err)
	}
	// Insert after attach: the paper's §3.4 dynamic maintenance.
	id := addCity(t, rel, pic, "NewCity", "ZZ", 42, 500, 500)
	ids, _, err := rel.SearchArea("us-map", geom.R(490, 490, 510, 510), geom.CoveredBy)
	if err != nil || len(ids) != 1 {
		t.Fatalf("search after insert = %v, %v", ids, err)
	}
	tu, _ := rel.Get(ids[0])
	if tu[0].Str != "NewCity" {
		t.Fatalf("found %q", tu[0].Str)
	}
	if err := rel.Delete(id); err != nil {
		t.Fatal(err)
	}
	ids, _, _ = rel.SearchArea("us-map", geom.R(490, 490, 510, 510), geom.CoveredBy)
	if len(ids) != 0 {
		t.Fatal("deleted tuple still in spatial index")
	}
}

func TestMultiPictureAssociation(t *testing.T) {
	// One relation associated with two pictures: tuples carry loc refs
	// into one picture or the other; each picture gets its own R-tree.
	p := pager.OpenMem(64)
	defer p.Close()
	picA := picture.New("map-a", geom.R(0, 0, 100, 100))
	picB := picture.New("map-b", geom.R(0, 0, 100, 100))
	rel := New(p, "landmarks", MustSchema("name:string", "loc:loc"), catalogOf(picA, picB))
	oa := picA.AddPoint("x", geom.Pt(10, 10))
	ob := picB.AddPoint("y", geom.Pt(90, 90))
	rel.Insert(Tuple{S("onA"), L("map-a", oa)})
	rel.Insert(Tuple{S("onB"), L("map-b", ob)})
	if err := rel.AttachPicture(picA, hilbertPack); err != nil {
		t.Fatal(err)
	}
	if err := rel.AttachPicture(picB, hilbertPack); err != nil {
		t.Fatal(err)
	}
	if len(rel.Pictures()) != 2 {
		t.Fatalf("Pictures = %v", rel.Pictures())
	}
	idsA, _, _ := rel.SearchArea("map-a", geom.R(0, 0, 100, 100), geom.CoveredBy)
	idsB, _, _ := rel.SearchArea("map-b", geom.R(0, 0, 100, 100), geom.CoveredBy)
	if len(idsA) != 1 || len(idsB) != 1 {
		t.Fatalf("per-picture search: a=%d b=%d", len(idsA), len(idsB))
	}
}

// TestAttachPictureRefusesOtherPacking: a relation's index is packed
// one way. Any options but {Method: MethodHilbert} are refused, the
// relation stays unindexed on the picture, and the Hilbert attach that
// follows indexes every tuple — TrimToMultiple, which dropped the
// remainder past a multiple of the fanout, among the refused.
func TestAttachPictureRefusesOtherPacking(t *testing.T) {
	rel, pic := newCities(t)
	for i := 0; i < 10; i++ {
		addCity(t, rel, pic, fmt.Sprintf("c%d", i), "ST", int64(i), float64(10*i), float64(10*i))
	}
	for _, opts := range []pack.Options{
		{},
		{Method: pack.MethodSTR},
		{Method: pack.MethodHilbert, TrimToMultiple: true},
	} {
		if err := rel.AttachPicture(pic, opts); err == nil {
			t.Fatalf("%+v: attached", opts)
		}
		if rel.HasSpatial("us-map") || rel.Generation() != 0 {
			t.Fatalf("%+v: a refused attach left an index", opts)
		}
	}
	if err := rel.AttachPicture(pic, hilbertPack); err != nil {
		t.Fatal(err)
	}
	ids, _, err := rel.SearchArea("us-map", geom.R(0, 0, 100, 100), geom.CoveredBy)
	if err != nil || len(ids) != 10 {
		t.Fatalf("covered-by the frame: %d ids, %v; want 10", len(ids), err)
	}
	if opts, ok := rel.SpatialOpts("us-map"); !ok || opts != hilbertPack {
		t.Fatalf("SpatialOpts = %+v, %v", opts, ok)
	}
}

func TestScanDecodesAll(t *testing.T) {
	rel, pic := newCities(t)
	for i := 0; i < 30; i++ {
		addCity(t, rel, pic, randWord(rand.New(rand.NewSource(int64(i)))), "ST", int64(i), float64(i), float64(i))
	}
	n := 0
	err := rel.Scan(func(_ storage.TupleID, tu Tuple) bool {
		if len(tu) != 4 {
			t.Fatalf("bad arity %d", len(tu))
		}
		n++
		return true
	})
	if err != nil || n != 30 {
		t.Fatalf("scan: n=%d err=%v", n, err)
	}
}

// lookupKept returns the ids of the tuples tm keeps, through the B-tree
// on its column and FetchWhere under tm, failing the test when the
// column has no B-tree.
func lookupKept(t *testing.T, rel *Relation, tm Term) []storage.TupleID {
	t.Helper()
	ids, ok := rel.Lookup(tm)
	if !ok {
		t.Fatalf("Lookup(%+v): no B-tree answered", tm)
	}
	tuples, err := rel.FetchWhere(nil, ids, nil, []Term{tm})
	if err != nil {
		t.Fatal(err)
	}
	kept := ids[:0]
	for i, tu := range tuples {
		if tu != nil {
			kept = append(kept, ids[i])
		}
	}
	return kept
}

// scanKept returns the ids of the tuples tm keeps, by one scan.
func scanKept(t *testing.T, rel *Relation, tm Term) []storage.TupleID {
	t.Helper()
	var ids []storage.TupleID
	if err := rel.ScanCols(nil, make([]bool, rel.Schema().Arity()), []Term{tm}, func(id storage.TupleID, _ Tuple) bool {
		ids = append(ids, id)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return ids
}

func TestLookupByOperator(t *testing.T) {
	rel, pic := newCities(t)
	pops := []int64{100, 250, 250, 400, 900, 1200}
	for i, p := range pops {
		addCity(t, rel, pic, string(rune('a'+i)), "ST", p, float64(i), float64(i))
	}
	// Unindexed column: not usable.
	if _, ok := rel.Lookup(Term{Col: 2, Op: OpGe, Val: I(0)}); ok {
		t.Fatal("Lookup on unindexed column claimed success")
	}
	if err := rel.CreateIndex("population"); err != nil {
		t.Fatal(err)
	}
	// A value of another type than the column's is not looked up.
	if _, ok := rel.Lookup(Term{Col: 2, Op: OpGe, Val: F(250)}); ok {
		t.Fatal("Lookup of a float on an int column claimed success")
	}
	cases := []struct {
		op   Op
		val  int64
		want int
	}{
		{OpGe, math.MinInt64, 6},
		{OpGe, 250, 5},
		{OpGt, 250, 3},
		{OpLt, 250, 1},
		{OpLe, 250, 3},
		{OpEq, 250, 2},
		{OpGe, 5000, 0},
	}
	for _, tt := range cases {
		tm := Term{Col: 2, Op: tt.op, Val: I(tt.val)}
		ids, ok := rel.Lookup(tm)
		if !ok {
			t.Fatalf("%+v: index not used", tm)
		}
		if len(ids) != tt.want {
			t.Errorf("%+v: %d ids, want %d", tm, len(ids), tt.want)
		}
		if got := scanKept(t, rel, tm); !slices.Equal(got, ids) {
			t.Errorf("%+v: Lookup %v, the scan %v", tm, ids, got)
		}
	}
	// Two bounds: the B-tree's lower one, the upper tested on the records.
	ids, _ := rel.Lookup(Term{Col: 2, Op: OpGe, Val: I(250)})
	tuples, err := rel.FetchWhere(nil, ids, nil, []Term{{Col: 2, Op: OpLe, Val: I(900)}})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, tu := range tuples {
		if tu != nil {
			n++
		}
	}
	if n != 4 {
		t.Errorf("250 <= population <= 900: %d tuples, want 4", n)
	}
}

func TestRelationOpen(t *testing.T) {
	p := pager.OpenMem(64)
	defer p.Close()
	rel := New(p, "r", MustSchema("name:string", "v:int"), nil)
	for i := int64(0); i < 20; i++ {
		if _, err := rel.Insert(Tuple{S("x"), I(i)}); err != nil {
			t.Fatal(err)
		}
	}
	first := rel.HeapFirstPage()

	re, _, err := Open(Def{Name: "r", Schema: rel.Schema(), Pager: p, Heaps: []pager.PageID{first}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != 20 {
		t.Fatalf("reopened Len = %d", re.Len())
	}
	if err := re.CreateIndex("v"); err != nil {
		t.Fatal(err)
	}
	ids, ok := re.Lookup(Term{Col: 1, Op: OpGe, Val: I(15)})
	if !ok || len(ids) != 5 {
		t.Fatalf("range after reopen: %d ids, ok=%v", len(ids), ok)
	}
	cols := re.IndexedColumns()
	if len(cols) != 1 || cols[0] != "v" {
		t.Fatalf("IndexedColumns = %v", cols)
	}
}

func TestDecodeTupleColsLazy(t *testing.T) {
	tu := Tuple{S("Washington"), S("DC"), I(700000), F(2.5), L("us-map", 7)}
	rec := withObjects(tu)

	// nil need == full decode.
	full, err := DecodeTupleCols(rec, nil)
	if err != nil {
		t.Fatal(err)
	}
	for j := range tu {
		if !full[j].Eq(tu[j]) {
			t.Fatalf("full decode col %d: %v != %v", j, full[j], tu[j])
		}
	}

	// Only columns 1 and 4 materialized; the rest keep type tags with
	// zero payloads.
	part, err := DecodeTupleCols(rec, []bool{false, true, false, false, true})
	if err != nil {
		t.Fatal(err)
	}
	if len(part) != len(tu) {
		t.Fatalf("lazy arity = %d", len(part))
	}
	if !part[1].Eq(tu[1]) || !part[4].Eq(tu[4]) {
		t.Fatalf("needed columns wrong: %v", part)
	}
	if part[0].Type != TypeString || part[0].Str != "" {
		t.Fatalf("skipped string materialized: %v", part[0])
	}
	if part[2].Type != TypeInt || part[2].Int != 0 {
		t.Fatalf("skipped int materialized: %v", part[2])
	}
	if part[3].Type != TypeFloat || part[3].Float != 0 {
		t.Fatalf("skipped float materialized: %v", part[3])
	}

	// A need slice shorter than the tuple decodes the tail.
	tail, err := DecodeTupleCols(rec, []bool{false})
	if err != nil {
		t.Fatal(err)
	}
	if !tail[4].Eq(tu[4]) || tail[0].Str != "" {
		t.Fatalf("short need slice: %v", tail)
	}

	// Lazy decode keeps full validation: truncations still fail even
	// when every column is skipped.
	skipAll := make([]bool, len(tu))
	for cut := 1; cut < len(rec); cut++ {
		if _, err := DecodeTupleCols(rec[:cut], skipAll); err == nil {
			t.Fatalf("truncation at %d accepted with lazy decode", cut)
		}
	}
}

func TestGetBatchMatchesGetRelation(t *testing.T) {
	rel, pic := newCities(t)
	rng := rand.New(rand.NewSource(9))
	var ids []storage.TupleID
	for i := 0; i < 300; i++ {
		ids = append(ids, addCity(t, rel, pic, randWord(rng), "ST", int64(i), rng.Float64()*1000, rng.Float64()*1000))
	}
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })

	got, err := rel.GetBatch(ids, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		want, err := rel.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if !got[i][j].Eq(want[j]) {
				t.Fatalf("id %v col %d: %v != %v", id, j, got[i][j], want[j])
			}
		}
	}

	// Column-lazy batch: population only.
	need := []bool{false, false, true, false}
	got, err = rel.GetBatch(ids, need, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		want, _ := rel.Get(id)
		if got[i][2].Int != want[2].Int || got[i][0].Str != "" {
			t.Fatalf("lazy batch id %v: %v", id, got[i])
		}
	}

	// A dead id's entry is nil and the rest of the batch is fetched; an
	// id never handed out fails the whole batch.
	if err := rel.Delete(ids[5]); err != nil {
		t.Fatal(err)
	}
	got, err = rel.GetBatch(ids, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ids {
		if (got[i] == nil) != (i == 5) {
			t.Fatalf("batch with dead id %v: entry %d = %v", ids[5], i, got[i])
		}
	}
	bad := ids[0]
	bad.Slot += 999
	if _, err := rel.GetBatch([]storage.TupleID{ids[0], bad}, nil, 0); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("batch with an id never handed out: %v, want ErrNotFound", err)
	}
}

func TestSpatialIndexStats(t *testing.T) {
	rel, pic := newCities(t)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 150; i++ {
		addCity(t, rel, pic, randWord(rng), "ST", int64(i), rng.Float64()*1000, rng.Float64()*1000)
	}
	if err := rel.AttachPicture(pic, hilbertPack); err != nil {
		t.Fatal(err)
	}
	si := rel.Spatial("us-map")
	stats := si.CostSnapshot().Stats
	if stats.Items != 150 || stats.Nodes < 1 || stats.Depth < 1 {
		t.Fatalf("stats not populated: %+v", stats)
	}
	want := si.PackedTree().SearchMetrics()
	if stats != want {
		t.Fatalf("stats %+v != computed %+v", stats, want)
	}
}

func TestUpdate(t *testing.T) {
	rel, pic := newCities(t)
	if err := rel.CreateIndex("state"); err != nil {
		t.Fatal(err)
	}
	if err := rel.AttachPicture(pic, hilbertPack); err != nil {
		t.Fatal(err)
	}
	id := addCity(t, rel, pic, "Old", "AA", 100, 10, 10)
	// Move the tuple to a new spatial object and new attributes.
	oid2 := pic.AddPoint("New", geom.Pt(900, 900))
	newID, err := rel.Update(id, Tuple{S("New"), S("BB"), I(500), L(pic.Name(), oid2)})
	if err != nil {
		t.Fatal(err)
	}
	// The freed slot may be recycled for the new tuple, so the old id
	// is either dead or now names the new tuple — never the old one.
	if old, err := rel.Get(id); err == nil && old[0].Str == "Old" {
		t.Fatal("old tuple still readable")
	}
	got, err := rel.Get(newID)
	if err != nil || got[0].Str != "New" {
		t.Fatalf("updated tuple = %v, %v", got, err)
	}
	// B-tree index follows the update.
	if ids, _ := rel.Lookup(Term{Col: 1, Op: OpEq, Val: S("AA")}); len(ids) != 0 {
		t.Fatalf("old index entry survives: %v", ids)
	}
	if ids, _ := rel.Lookup(Term{Col: 1, Op: OpEq, Val: S("BB")}); len(ids) != 1 {
		t.Fatalf("new index entry missing")
	}
	// Spatial index follows the update.
	if ids, _, _ := rel.SearchArea("us-map", geom.R(0, 0, 100, 100), geom.CoveredBy); len(ids) != 0 {
		t.Fatal("old location still indexed")
	}
	ids, _, _ := rel.SearchArea("us-map", geom.R(800, 800, 1000, 1000), geom.CoveredBy)
	if len(ids) != 1 {
		t.Fatal("new location not indexed")
	}
	// Schema violations leave the relation untouched.
	if _, err := rel.Update(newID, Tuple{S("x")}); err == nil {
		t.Fatal("bad update accepted")
	}
	if rel.Len() != 1 {
		t.Fatalf("Len = %d after failed update", rel.Len())
	}
}

// TestCheckResolvesIndexEntries: Check's promise that every index entry
// names a live tuple holds for spatial entries and B-tree entries alike,
// over a heap of one chain as of three (the "sharded3" case). Each case
// deletes a tuple and plants an entry for it behind the relation's back.
func TestCheckResolvesIndexEntries(t *testing.T) {
	kinds := map[string]func(t *testing.T) (*Relation, *picture.Picture){
		"unsharded": newCities,
		"sharded3": func(t *testing.T) (*Relation, *picture.Picture) {
			pic := usMap()
			return newChainedCities(t, 3, pic), pic
		},
	}
	plants := map[string]func(rel *Relation, rect geom.Rect, id int64){
		"spatial": func(rel *Relation, rect geom.Rect, id int64) {
			rel.Spatial("us-map").insert(rect, id)
		},
		"btree": func(rel *Relation, _ geom.Rect, id int64) {
			rel.Index("population").Insert(IndexKey(I(7)), id)
		},
	}
	for kind, build := range kinds {
		for what, plant := range plants {
			t.Run(kind+"/"+what, func(t *testing.T) {
				rel, pic := build(t)
				var ids []storage.TupleID
				for i := 0; i < 40; i++ {
					ids = append(ids, addCity(t, rel, pic, fmt.Sprintf("c%02d", i), "ST", int64(i), float64(25*i), float64(1000-25*i)))
				}
				if err := rel.AttachPicture(pic, hilbertPack); err != nil {
					t.Fatal(err)
				}
				if err := rel.CreateIndex("population"); err != nil {
					t.Fatal(err)
				}
				victim := ids[7]
				if err := rel.Delete(victim); err != nil {
					t.Fatal(err)
				}
				if err := rel.Check(); err != nil {
					t.Fatalf("clean relation: %v", err)
				}
				plant(rel, geom.R(175, 825, 175, 825), victim.Int64())
				if err := rel.Check(); !errors.Is(err, storage.ErrNotFound) {
					t.Fatalf("entry for deleted tuple %v: Check = %v, want ErrNotFound", victim, err)
				}
				// A tuple placed where the victim was takes a new address:
				// the planted entry still names no tuple.
				nid := addCity(t, rel, pic, "newcomer", "ST", 7, 175, 825)
				if nid == victim {
					t.Fatalf("newcomer took the deleted id %v", victim)
				}
				if err := rel.Check(); !errors.Is(err, storage.ErrNotFound) {
					t.Fatalf("entry for deleted tuple %v after insert %v: Check = %v, want ErrNotFound", victim, nid, err)
				}
			})
		}
	}
}

// TestCheckCountsSpatialEntries: a located tuple missing from the
// spatial index is found by Check, not only an entry that names no
// tuple, over a heap of one chain and of three (shards3). Each case
// removes one entry behind the relation's back — a packed one (it
// becomes a tombstone) and one still in the write side.
func TestCheckCountsSpatialEntries(t *testing.T) {
	for _, shards := range []int{0, 3} {
		for _, where := range []string{"packed", "delta"} {
			t.Run(fmt.Sprintf("shards%d/%s", shards, where), func(t *testing.T) {
				var rel *Relation
				var pic *picture.Picture
				if shards == 0 {
					rel, pic = newCities(t)
				} else {
					pic = usMap()
					rel = newChainedCities(t, shards, pic)
				}
				var ids []storage.TupleID
				add := func(i int) {
					ids = append(ids, addCity(t, rel, pic, fmt.Sprintf("c%02d", i), "ST", int64(i), float64(25*i), float64(1000-25*i)))
				}
				for i := 0; i < 30; i++ {
					add(i)
				}
				if err := rel.AttachPicture(pic, hilbertPack); err != nil {
					t.Fatal(err)
				}
				for i := 30; i < 40; i++ {
					add(i)
				}
				if err := rel.Check(); err != nil {
					t.Fatalf("clean relation: %v", err)
				}
				victim := ids[7]
				if where == "delta" {
					victim = ids[37]
				}
				tu, err := rel.Get(victim)
				if err != nil {
					t.Fatal(err)
				}
				mbr, _ := tu[3].LocMBR()
				rel.Spatial("us-map").delete(mbr, victim.Int64())
				if err := rel.Check(); !errors.Is(err, storage.ErrCorrupt) {
					t.Fatalf("tuple %v unindexed: Check = %v, want ErrCorrupt", victim, err)
				}
			})
		}
	}
}

// TestFreedIDNamesNoOtherTuple: a tuple id names one tuple. An id a
// window search returned, deleted from the last page of the heap —
// where the next insert lands — stays dead after an insert far outside
// the window: the insert takes a new id, Get of the old one reports
// ErrNotFound and FetchWhere leaves its entry nil, rather than return the
// newcomer. Over a heap of one chain and of four (newChainedCities).
func TestFreedIDNamesNoOtherTuple(t *testing.T) {
	for _, stores := range []int{1, 4} {
		t.Run(fmt.Sprintf("stores=%d", stores), func(t *testing.T) {
			pic := usMap()
			rel := newChainedCities(t, stores, pic)
			if err := rel.AttachPicture(pic, hilbertPack); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(stores)))
			for i := 0; i < 400; i++ {
				addCity(t, rel, pic, fmt.Sprintf("c%03d", i), "ST", int64(i), rng.Float64()*1000, rng.Float64()*1000)
			}
			window := geom.R(0, 0, 300, 300)
			ids, _, err := rel.SearchArea("us-map", window, geom.Overlapping)
			if err != nil {
				t.Fatal(err)
			}
			pages, err := rel.HeapPages()
			if err != nil {
				t.Fatal(err)
			}
			i := slices.IndexFunc(ids, func(id storage.TupleID) bool { return id.Page == pages[len(pages)-1] })
			if i < 0 {
				t.Fatalf("none of the window's %d ids is on the heap's last page", len(ids))
			}
			victim := ids[i]
			if err := rel.Delete(victim); err != nil {
				t.Fatal(err)
			}
			nid := addCity(t, rel, pic, "newcomer", "ST", 1, 995, 995)
			if nid.Page != victim.Page {
				t.Fatalf("newcomer %v is not on the victim's page %d", nid, victim.Page)
			}
			if nid == victim {
				t.Fatalf("the insert after the delete took the deleted id %v", victim)
			}
			if got, err := rel.Get(victim); !errors.Is(err, storage.ErrNotFound) {
				t.Fatalf("Get of deleted %v = %v, %v; want ErrNotFound", victim, got, err)
			}
			if got, err := rel.FetchWhere(nil, []storage.TupleID{victim}, nil, nil); err != nil || len(got) != 1 || got[0] != nil {
				t.Fatalf("FetchWhere of deleted %v = %v, %v; want [<nil>]", victim, got, err)
			}
			if got, err := rel.Get(nid); err != nil || got[0].Str != "newcomer" {
				t.Fatalf("Get(%v) = %v, %v; want the newcomer", nid, got, err)
			}
			if err := rel.Check(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestConcurrentDoubleDelete races two Deletes of every id of a batch:
// of each pair exactly one succeeds and the other reports ErrNotFound,
// and Len and Check agree after every round — over a heap of one chain
// and of four.
func TestConcurrentDoubleDelete(t *testing.T) {
	for _, stores := range []int{1, 4} {
		t.Run(fmt.Sprintf("stores=%d", stores), func(t *testing.T) {
			var rel *Relation
			var pic *picture.Picture
			if stores == 1 {
				rel, pic = newCities(t)
			} else {
				pic = usMap()
				rel = newChainedCities(t, stores, pic)
			}
			if err := rel.AttachPicture(pic, hilbertPack); err != nil {
				t.Fatal(err)
			}
			if err := rel.CreateIndex("population"); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(stores)))
			for round := 0; round < 200; round++ {
				var ids []storage.TupleID
				for i := 0; i < 50; i++ {
					ids = append(ids, addCity(t, rel, pic, fmt.Sprintf("r%d-%d", round, i), "ST", int64(i), rng.Float64()*1000, rng.Float64()*1000))
				}
				victims := ids[:25]
				errs := make([][]error, 2)
				start := make(chan struct{})
				var wg sync.WaitGroup
				for g := range errs {
					wg.Add(1)
					go func() {
						defer wg.Done()
						<-start
						for _, id := range victims {
							errs[g] = append(errs[g], rel.Delete(id))
						}
					}()
				}
				close(start)
				wg.Wait()
				for i, id := range victims {
					a, b := errs[0][i], errs[1][i]
					if (a == nil) == (b == nil) {
						t.Fatalf("round %d: the two Deletes of %v returned %v and %v; want exactly one success", round, id, a, b)
					}
					if lost := errors.Join(a, b); !errors.Is(lost, storage.ErrNotFound) {
						t.Fatalf("round %d: the losing Delete of %v: %v, want ErrNotFound", round, id, lost)
					}
				}
				if rel.Len() != 25 {
					t.Fatalf("round %d: Len = %d after deleting 25 of 50", round, rel.Len())
				}
				if err := rel.Check(); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				for _, id := range ids[25:] {
					if err := rel.Delete(id); err != nil {
						t.Fatal(err)
					}
				}
			}
		})
	}
}

// TestFetchWhereWideTuple fetches from a relation wider than the column
// spans a decode keeps on its stack, into a statement's Arena, with
// terms on a column inside those offsets and one past them: a kept tuple
// carries the needed columns as Get reads them and the others zeroed,
// and a rejected one is nil.
func TestFetchWhereWideTuple(t *testing.T) {
	specs := make([]string, spansOnStack+4)
	for i := range specs {
		specs[i] = fmt.Sprintf("c%d:int", i)
		if i%3 == 0 {
			specs[i] = fmt.Sprintf("c%d:string", i)
		}
	}
	p := pager.OpenMem(64)
	t.Cleanup(func() { p.Close() })
	rel := New(p, "wide", MustSchema(specs...), catalogOf())
	var ids []storage.TupleID
	for k := range 40 {
		tup := make(Tuple, len(specs))
		for i := range tup {
			tup[i] = I(int64(100*k + i))
			if i%3 == 0 {
				tup[i] = S(fmt.Sprintf("t%d.%d", k, i))
			}
		}
		id, err := rel.Insert(tup)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	last := len(specs) - 1 // an int column past the stack's spans
	need := make([]bool, len(specs))
	need[0], need[spansOnStack+2] = true, true
	// The terms keep tuples 5 to 34.
	terms := []Term{{Col: 1, Op: OpGe, Val: I(501)}, {Col: last, Op: OpLt, Val: I(int64(3500 + last))}}
	var a Arena
	got, err := rel.FetchWhere(&a, ids, need, terms)
	if err != nil {
		t.Fatal(err)
	}
	for k, id := range ids {
		want, err := rel.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if k < 5 || k >= 35 {
			if got[k] != nil {
				t.Fatalf("tuple %d kept, want rejected: %v", k, got[k])
			}
			continue
		}
		for i, v := range got[k] {
			w := Value{Type: want[i].Type}
			if need[i] {
				w = want[i]
			}
			if v != w {
				t.Fatalf("tuple %d column %d = %+v, want %+v", k, i, v, w)
			}
		}
	}
	a.Reset()
}
