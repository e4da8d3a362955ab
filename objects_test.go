package pictdb_test

import (
	"encoding/binary"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	pictdb "repro"
	"repro/internal/storage"
)

// A stored object lives in the tuple that carries it (DESIGN.md §17,
// "Picture object map"): these tests hold the contracts that follow
// from there being no second copy in the picture.

// TestReopenAllocatesAboveStoredIDs: after a reopen, a picture that two
// relations locate on hands out ids above every id either relation's
// tuples carry, though it holds none of their objects.
func TestReopenAllocatesAboveStoredIDs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ids.db")
	db, err := pictdb.Open(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	m, err := db.CreatePicture("m", pictdb.R(0, 0, 100, 100))
	if err != nil {
		t.Fatal(err)
	}
	pts, err := db.CreateRelation("pts", pictdb.MustSchema("name:string", "loc:loc"))
	if err != nil {
		t.Fatal(err)
	}
	segs, err := db.CreateShardedRelation("segs", pictdb.MustSchema("name:string", "loc:loc"), 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range 10 {
		if _, err := pts.Insert(pictdb.Tuple{pictdb.S("p"), pictdb.L("m", m.AddPoint("p", pictdb.Pt(float64(i), 1)))}); err != nil {
			t.Fatal(err)
		}
	}
	var last pictdb.ObjectID
	for i := range 10 {
		last = m.AddSegment("s", pictdb.Seg(pictdb.Pt(float64(i), 2), pictdb.Pt(float64(i)+5, 9)))
		if _, err := segs.Insert(pictdb.Tuple{pictdb.S("s"), pictdb.L("m", last)}); err != nil {
			t.Fatal(err)
		}
	}
	m.AddPoint("never stored", pictdb.Pt(50, 50))
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db, err = pictdb.Open(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	var stored pictdb.ObjectID
	for _, name := range []string{"pts", "segs"} {
		rel, _ := db.Relation(name)
		if err := rel.Scan(func(_ storage.TupleID, tu pictdb.Tuple) bool {
			stored = max(stored, tu[1].Loc.Object)
			return true
		}); err != nil {
			t.Fatal(err)
		}
	}
	if stored != last {
		t.Fatalf("the largest stored id is %d, want %d", stored, last)
	}
	m, _ = db.Picture("m")
	if id := m.AddPoint("new", pictdb.Pt(3, 3)); id <= stored {
		t.Fatalf("after the reopen AddPoint returned %d, a stored tuple carries %d", id, stored)
	}
}

// TestInsertTakesCarriedOrStagedObject: an insert stores the object its
// loc carries, or else the one its picture staged, and releases that;
// a loc naming neither is refused.
func TestInsertTakesCarriedOrStagedObject(t *testing.T) {
	db := pictdb.New()
	defer db.Close()
	m, err := db.CreatePicture("m", pictdb.R(0, 0, 100, 100))
	if err != nil {
		t.Fatal(err)
	}
	rel, err := db.CreateRelation("r", pictdb.MustSchema("name:string", "n:int", "loc:loc"))
	if err != nil {
		t.Fatal(err)
	}
	poly := pictdb.Poly(pictdb.Pt(10, 10), pictdb.Pt(40, 10), pictdb.Pt(25, 30))
	oid := m.AddRegion("tri", poly)
	id, err := rel.Insert(pictdb.Tuple{pictdb.S("tri"), pictdb.I(1), pictdb.L("m", oid)})
	if err != nil {
		t.Fatal(err)
	}
	if _, staged := m.Get(oid); staged {
		t.Fatal("the picture still stages an object a tuple stored")
	}
	if _, err := rel.Insert(pictdb.Tuple{pictdb.S("again"), pictdb.I(2), pictdb.L("m", oid)}); !errors.Is(err, pictdb.ErrDanglingLoc) {
		t.Fatalf("a second insert of a released staged id: %v, want ErrDanglingLoc", err)
	}
	if _, err := rel.Insert(pictdb.Tuple{pictdb.S("none"), pictdb.I(3), pictdb.L("m", oid+100)}); !errors.Is(err, pictdb.ErrDanglingLoc) {
		t.Fatalf("an id neither carried nor staged: %v, want ErrDanglingLoc", err)
	}
	if _, err := rel.Insert(pictdb.Tuple{pictdb.S("nowhere"), pictdb.I(4), pictdb.L("no-such-map", 1)}); !errors.Is(err, pictdb.ErrDanglingLoc) {
		t.Fatalf("a loc on no picture: %v, want ErrDanglingLoc", err)
	}

	// Update with the tuple read back keeps the object it carries.
	tu, err := rel.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	tu[1] = pictdb.I(5)
	nid, err := rel.Update(id, tu)
	if err != nil {
		t.Fatal(err)
	}
	back, err := rel.Get(nid)
	if err != nil {
		t.Fatal(err)
	}
	obj, ok := back[2].LocObject()
	if !ok || back[1].Int != 5 || obj.ID != oid || obj.Label != "tri" || len(obj.Region.Vertices) != 3 || obj.Region.Vertices[2] != poly.Vertices[2] {
		t.Fatalf("after Update the tuple is %v carrying %+v, %v; want n=5 and the triangle", back, obj, ok)
	}
	if err := rel.AttachPicture(m, pictdb.PackOptions{Method: pictdb.PackHilbert}); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query("select n, area(loc) from r on m at loc overlapping {25±20, 20±15}")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][1].String() != "300" {
		t.Fatalf("area of the updated region: %s", res.Format())
	}
}

// TestRenderSameAfterReopen: Render draws each object from the tuple
// its row came from, so a result draws the same picture before a close
// and after the reopen, when the picture holds no object.
func TestRenderSameAfterReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "render.db")
	db, err := pictdb.Open(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	m, err := db.CreatePicture("m", pictdb.R(0, 0, 100, 100))
	if err != nil {
		t.Fatal(err)
	}
	rel, err := db.CreateRelation("r", pictdb.MustSchema("name:string", "loc:loc"))
	if err != nil {
		t.Fatal(err)
	}
	for _, oid := range []pictdb.ObjectID{
		m.AddPoint("CITY", pictdb.Pt(30, 60)),
		m.AddSegment("ROAD", pictdb.Seg(pictdb.Pt(5, 5), pictdb.Pt(90, 40))),
		m.AddRegion("LAKE", pictdb.Poly(pictdb.Pt(50, 50), pictdb.Pt(80, 50), pictdb.Pt(80, 85), pictdb.Pt(50, 85))),
	} {
		if _, err := rel.Insert(pictdb.Tuple{pictdb.S("o"), pictdb.L("m", oid)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := rel.AttachPicture(m, pictdb.PackOptions{Method: pictdb.PackHilbert}); err != nil {
		t.Fatal(err)
	}
	const q = "select name, loc from r on m at loc overlapping {50±50, 50±50}"
	render := func(db *pictdb.Database) string {
		t.Helper()
		res, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		out, err := db.Render(res, "m", pictdb.R(0, 0, 100, 100))
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	before := render(db)
	for _, mark := range []string{"CITY", "LAKE", "*", ".", "#"} {
		if !strings.Contains(before, mark) {
			t.Fatalf("the render lacks %q:\n%s", mark, before)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = pictdb.Open(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if after := render(db); after != before {
		t.Fatalf("the render changed across the reopen:\nbefore\n%s\nafter\n%s", before, after)
	}
}

// TestInsertRefusesMalformedCarriedObject: a loc value whose Str is not
// a whole encoding of the object its loc names, or encodes an object
// unlike the one staged under that id, is refused with an error, not a
// panic, and stores nothing: the database still checks clean and
// reopens with the tuples it had.
func TestInsertRefusesMalformedCarriedObject(t *testing.T) {
	path := filepath.Join(t.TempDir(), "carried.db")
	db, err := pictdb.Open(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	m, err := db.CreatePicture("m", pictdb.R(0, 0, 100, 100))
	if err != nil {
		t.Fatal(err)
	}
	rel, err := db.CreateRelation("r", pictdb.MustSchema("name:string", "loc:loc"))
	if err != nil {
		t.Fatal(err)
	}
	id, err := rel.Insert(pictdb.Tuple{pictdb.S("p"), pictdb.L("m", m.AddPoint("p", pictdb.Pt(1, 1)))})
	if err != nil {
		t.Fatal(err)
	}
	good, err := rel.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	enc := good[1].Str
	staged := m.AddPoint("staged", pictdb.Pt(7, 7))
	withID := func(enc string, oid pictdb.ObjectID) string {
		b := []byte(enc)
		binary.LittleEndian.PutUint64(b, uint64(oid))
		return string(b)
	}
	carrying := func(oid pictdb.ObjectID, str string) pictdb.Tuple {
		v := pictdb.L("m", oid)
		v.Str = str
		return pictdb.Tuple{pictdb.S("bad"), v}
	}
	oid := good[1].Loc.Object
	for _, c := range []struct {
		name string
		t    pictdb.Tuple
	}{
		{"the bare id", carrying(oid, enc[:8])},
		{"the id and a kind byte", carrying(oid, enc[:9])},
		{"a truncated encoding", carrying(oid, enc[:len(enc)-1])},
		{"trailing bytes", carrying(oid, enc+"x")},
		{"another id's encoding", carrying(oid+1000, enc)},
		{"object id 0", carrying(0, withID(enc, 0))},
		{"an object unlike the staged one", carrying(staged, withID(enc, staged))},
	} {
		if _, err := rel.Insert(c.t); !errors.Is(err, pictdb.ErrDanglingLoc) {
			t.Errorf("Insert of a loc carrying %s: %v, want ErrDanglingLoc", c.name, err)
		}
		if _, err := rel.Update(id, c.t); !errors.Is(err, pictdb.ErrDanglingLoc) {
			t.Errorf("Update to a loc carrying %s: %v, want ErrDanglingLoc", c.name, err)
		}
	}
	// A refusal releases nothing: the staged object still inserts.
	if _, err := rel.Insert(pictdb.Tuple{pictdb.S("staged"), pictdb.L("m", staged)}); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db, err = pictdb.Open(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if report := db.Check(); !report.OK() {
		t.Fatal(report.Err())
	}
	rel, _ = db.Relation("r")
	if rel.Len() != 2 {
		t.Fatalf("after the refusals and a reopen the relation holds %d tuples, want 2", rel.Len())
	}
	if back, err := rel.Get(id); err != nil || back[1].Str != enc {
		t.Fatalf("the first tuple after the reopen: %v, %v", back, err)
	}
}

// TestCheckReportsTwoEncodings: two tuples that carry one object id of
// a picture encoded differently are a Check finding. A reader takes the
// object from its own tuple, so they would answer one loc two ways. The
// second tuple comes from another database whose picture of the same
// name gave the id to another object. Insert refuses a carried object
// only when it is unlike one staged under its id; this id is already
// stored, not staged, so only Check finds the conflict.
func TestCheckReportsTwoEncodings(t *testing.T) {
	build := func(at pictdb.Point) (*pictdb.Database, *pictdb.Relation, pictdb.Tuple) {
		db := pictdb.New()
		t.Cleanup(func() { db.Close() })
		m, err := db.CreatePicture("m", pictdb.R(0, 0, 100, 100))
		if err != nil {
			t.Fatal(err)
		}
		rel, err := db.CreateRelation("r", pictdb.MustSchema("name:string", "loc:loc"))
		if err != nil {
			t.Fatal(err)
		}
		id, err := rel.Insert(pictdb.Tuple{pictdb.S("p"), pictdb.L("m", m.AddPoint("p", at))})
		if err != nil {
			t.Fatal(err)
		}
		tu, err := rel.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		return db, rel, tu
	}
	db, _, mine := build(pictdb.Pt(1, 1))
	_, _, foreign := build(pictdb.Pt(9, 9))
	if mine[1].Loc.Object != foreign[1].Loc.Object {
		t.Fatalf("test setup: ids %d and %d differ", mine[1].Loc.Object, foreign[1].Loc.Object)
	}
	other, err := db.CreateRelation("other", pictdb.MustSchema("name:string", "loc:loc"))
	if err != nil {
		t.Fatal(err)
	}
	// The same encoding under the id is consistent.
	if _, err := other.Insert(mine); err != nil {
		t.Fatal(err)
	}
	if report := db.Check(); !report.OK() {
		t.Fatalf("two tuples carrying one encoding: %v", report.Err())
	}
	if _, err := other.Insert(foreign); err != nil {
		t.Fatal(err)
	}
	report := db.Check()
	if report.OK() || !errors.Is(report.Err(), pictdb.ErrCorrupt) || !strings.Contains(report.Err().Error(), "encoded unlike") {
		t.Fatalf("Check with object %v carried two ways: %v", foreign[1].Loc, report.Err())
	}
}
