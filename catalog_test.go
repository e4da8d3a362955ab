package pictdb_test

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	pictdb "repro"
)

// buildSmallDB populates a file-backed database with a picture, a
// relation with B-tree and spatial indexes, and a named location.
func buildSmallDB(t *testing.T, path string) {
	t.Helper()
	db, err := pictdb.Open(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	pic, err := db.CreatePicture("map", pictdb.R(0, 0, 100, 100))
	if err != nil {
		t.Fatal(err)
	}
	rel, err := db.CreateRelation("towns", pictdb.MustSchema(
		"name:string", "pop:int", "loc:loc"))
	if err != nil {
		t.Fatal(err)
	}
	towns := []struct {
		name string
		pop  int64
		x, y float64
	}{
		{"alpha", 100, 10, 10}, {"beta", 250, 20, 80},
		{"gamma", 50, 85, 15}, {"delta", 900, 70, 70},
		{"epsilon", 420, 45, 45},
	}
	for _, tw := range towns {
		oid := pic.AddPoint(tw.name, pictdb.Pt(tw.x, tw.y))
		if _, err := rel.Insert(pictdb.Tuple{pictdb.S(tw.name), pictdb.I(tw.pop), pictdb.L("map", oid)}); err != nil {
			t.Fatal(err)
		}
	}
	// A region and a segment too, exercising all object kinds.
	rid := pic.AddRegion("park", pictdb.Poly(pictdb.Pt(30, 30), pictdb.Pt(60, 30), pictdb.Pt(60, 60), pictdb.Pt(30, 60)))
	if _, err := rel.Insert(pictdb.Tuple{pictdb.S("park"), pictdb.I(0), pictdb.L("map", rid)}); err != nil {
		t.Fatal(err)
	}
	sid := pic.AddSegment("road", pictdb.Seg(pictdb.Pt(0, 50), pictdb.Pt(100, 50)))
	if _, err := rel.Insert(pictdb.Tuple{pictdb.S("road"), pictdb.I(0), pictdb.L("map", sid)}); err != nil {
		t.Fatal(err)
	}

	if err := rel.CreateIndex("name"); err != nil {
		t.Fatal(err)
	}
	if err := rel.AttachPicture(pic, pictdb.PackOptions{Method: pictdb.PackHilbert}); err != nil {
		t.Fatal(err)
	}
	if err := db.DefineLocation("north", pictdb.R(0, 50, 100, 100)); err != nil {
		t.Fatal(err)
	}

	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointAndReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "towns.db")
	buildSmallDB(t, path)

	db, err := pictdb.Open(path, 32)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	// Relations, tuples, and alphanumeric data survive.
	rel, ok := db.Relation("towns")
	if !ok {
		t.Fatal("relation lost")
	}
	if rel.Len() != 7 {
		t.Fatalf("Len = %d, want 7", rel.Len())
	}
	res, err := db.Query(`select name, pop from towns where pop > 200 order by pop desc`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 3 || res.Rows[0][0].Str != "delta" {
		t.Fatalf("rows = %v", res.Rows)
	}

	// The B-tree index was rebuilt.
	if got := rel.IndexedColumns(); len(got) != 1 || got[0] != "name" {
		t.Fatalf("indexed columns = %v", got)
	}

	// The picture and its objects survive; the spatial index was
	// repacked: direct search works.
	res, err = db.Query(`
		select name, loc from towns on map
		at loc covered-by north`)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, r := range res.Rows {
		names[r[0].Str] = true
	}
	if !names["beta"] || !names["delta"] || names["alpha"] || names["gamma"] {
		t.Fatalf("north towns = %v", names)
	}
	// The segment lies exactly on the boundary of north (y=50..),
	// covered-by is inclusive, so "road" qualifies; the park does not.
	if names["park"] {
		t.Fatalf("park should not be covered by north: %v", names)
	}

	// Region geometry round-tripped exactly: area(park) is 900.
	res, err = db.Query(`select area(loc) from towns where name = 'park'`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Rows[0][0].AsFloat() != 900 {
		t.Fatalf("park area = %v", res.Rows)
	}

	// Writes keep working after reopen; a second checkpoint persists
	// them.
	pic, _ := db.Picture("map")
	oid := pic.AddPoint("zeta", pictdb.Pt(5, 95))
	if _, err := rel.Insert(pictdb.Tuple{pictdb.S("zeta"), pictdb.I(77), pictdb.L("map", oid)}); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := pictdb.Open(path, 32)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	res, err = db2.Query(`select name from towns where name = 'zeta'`)
	if err != nil || res.Len() != 1 {
		t.Fatalf("zeta lost: %d rows, %v", res.Len(), err)
	}
}

func TestRepeatedCheckpointsReuseSpace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "reuse.db")
	db, err := pictdb.Open(path, 32)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateRelation("r", pictdb.MustSchema("v:int")); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	base := dbPages(t, db)
	// Superseded snapshots are freed, so page count stays flat.
	for i := 0; i < 20; i++ {
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	if grown := dbPages(t, db) - base; grown > 1 {
		t.Fatalf("checkpoints leaked %d pages", grown)
	}
	db.Close()
}

// dbPages exposes the page count through a fresh lookup query; the
// page file never shrinks, so stability across checkpoints proves
// snapshot pages are recycled.
func dbPages(t *testing.T, db *pictdb.Database) int {
	t.Helper()
	return db.NumPages()
}

func TestCheckpointInMemory(t *testing.T) {
	// Checkpoint works on in-memory databases too (useful for tests of
	// the format itself).
	db := pictdb.New()
	defer db.Close()
	if _, err := db.CreateRelation("r", pictdb.MustSchema("v:int")); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
}

func TestReopenWithTinyPoolDoesRealIO(t *testing.T) {
	// With a 4-page buffer pool the reopened database must page in and
	// out constantly yet answer correctly — the disk substrate under
	// memory pressure.
	path := filepath.Join(t.TempDir(), "small.db")
	func() {
		db, err := pictdb.Open(path, 256)
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		rel, err := db.CreateRelation("data", pictdb.MustSchema("k:int", "payload:string"))
		if err != nil {
			t.Fatal(err)
		}
		long := make([]byte, 512)
		for i := range long {
			long[i] = 'p'
		}
		for i := int64(0); i < 2000; i++ {
			if _, err := rel.Insert(pictdb.Tuple{pictdb.I(i), pictdb.S(string(long))}); err != nil {
				t.Fatal(err)
			}
		}
		if err := rel.CreateIndex("k"); err != nil {
			t.Fatal(err)
		}
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}()

	db, err := pictdb.Open(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	res, err := db.Query(`select k from data where k >= 1990 order by k`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 10 || res.Rows[0][0].Int != 1990 {
		t.Fatalf("rows = %d first = %v", res.Len(), res.Rows)
	}
	res, err = db.Query(`select k from data where k = 777`)
	if err != nil || res.Len() != 1 {
		t.Fatalf("point lookup: %d rows, %v", res.Len(), err)
	}
}

func TestUSDatabaseFullPersistenceRoundtrip(t *testing.T) {
	// The whole §2.1 database — five relations on five pictures with
	// points, segments and regions — checkpointed and reopened; the
	// §2.2 queries must give identical answers before and after.
	path := filepath.Join(t.TempDir(), "us.db")
	queries := []string{
		`select city, state, population from cities on us-map
		 at loc covered-by eastern-us where population > 450_000
		 order by city`,
		`select city, zone from cities, time-zones on us-map, time-zone-map
		 at cities.loc covered-by time-zones.loc order by city`,
		`select lake from lakes on lake-map
		 at lakes.loc covered-by
		 (select states.loc from states on state-map
		  at states.loc overlapping eastern-us)
		 order by lake`,
		`select hwy-name, hwy-section from highways on highway-map
		 at loc overlapping {850±80, 400±350} order by hwy-section`,
		`select count(*), sum(population) from cities`,
	}

	before := make([]string, len(queries))
	db, err := pictdb.BuildUSDatabaseFile(path, 256)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		res, err := db.Query(q)
		if err != nil {
			t.Fatalf("before: %s: %v", q, err)
		}
		before[i] = res.Format()
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := pictdb.Open(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for i, q := range queries {
		res, err := db2.Query(q)
		if err != nil {
			t.Fatalf("after reopen: %s: %v", q, err)
		}
		if got := res.Format(); got != before[i] {
			t.Errorf("query %d diverged after reopen:\nbefore:\n%s\nafter:\n%s", i, before[i], got)
		}
	}
}

func TestSoakMixedOperations(t *testing.T) {
	// Cross-layer soak: random inserts, deletes, updates, spatial and
	// alphanumeric queries, checkpoints, and reopens against a single
	// database file, with a shadow map as the oracle.
	path := filepath.Join(t.TempDir(), "soak.db")
	db, err := pictdb.Open(path, 128)
	if err != nil {
		t.Fatal(err)
	}
	pic, err := db.CreatePicture("m", pictdb.R(0, 0, 1000, 1000))
	if err != nil {
		t.Fatal(err)
	}
	rel, err := db.CreateRelation("pts", pictdb.MustSchema("k:int", "loc:loc"))
	if err != nil {
		t.Fatal(err)
	}
	if err := rel.AttachPicture(pic, pictdb.PackOptions{Method: pictdb.PackHilbert}); err != nil {
		t.Fatal(err)
	}

	shadow := map[int64]pictdb.Point{}
	rng := rand.New(rand.NewSource(2026))
	nextK := int64(0)

	checkWindow := func() {
		cx, cy := rng.Float64()*1000, rng.Float64()*1000
		dx, dy := 50+rng.Float64()*200, 50+rng.Float64()*200
		w := pictdb.WindowAt(cx, dx, cy, dy)
		res, err := db.Query(fmt.Sprintf(
			`select k from pts on m at loc covered-by {%g±%g, %g±%g}`, cx, dx, cy, dy))
		if err != nil {
			t.Fatal(err)
		}
		got := map[int64]bool{}
		for _, r := range res.Rows {
			got[r[0].Int] = true
		}
		want := 0
		for k, pos := range shadow {
			if w.ContainsPoint(pos) {
				want++
				if !got[k] {
					t.Fatalf("missing key %d at %v in window %v", k, pos, w)
				}
			}
		}
		if len(got) != want {
			t.Fatalf("window %v: got %d, want %d", w, len(got), want)
		}
	}

	for round := 0; round < 4; round++ {
		for op := 0; op < 300; op++ {
			switch r := rng.Intn(10); {
			case r < 5 || len(shadow) == 0: // insert
				p := pictdb.Pt(rng.Float64()*1000, rng.Float64()*1000)
				oid := pic.AddPoint("", p)
				if _, err := rel.Insert(pictdb.Tuple{pictdb.I(nextK), pictdb.L("m", oid)}); err != nil {
					t.Fatal(err)
				}
				shadow[nextK] = p
				nextK++
			case r < 8: // delete a random live key
				for k := range shadow {
					ids, err := rel.LookupEqual("k", pictdb.I(k))
					if err != nil || len(ids) != 1 {
						t.Fatalf("lookup %d: %v ids=%d", k, err, len(ids))
					}
					if err := rel.Delete(ids[0]); err != nil {
						t.Fatal(err)
					}
					delete(shadow, k)
					break
				}
			default: // move: update a tuple to a new location
				for k := range shadow {
					ids, _ := rel.LookupEqual("k", pictdb.I(k))
					p := pictdb.Pt(rng.Float64()*1000, rng.Float64()*1000)
					oid := pic.AddPoint("", p)
					if _, err := rel.Update(ids[0], pictdb.Tuple{pictdb.I(k), pictdb.L("m", oid)}); err != nil {
						t.Fatal(err)
					}
					shadow[k] = p
					break
				}
			}
			if op%60 == 0 {
				checkWindow()
			}
		}
		// Checkpoint and reopen mid-soak; the reload repacks the
		// spatial index from live tuples.
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		db, err = pictdb.Open(path, 128)
		if err != nil {
			t.Fatal(err)
		}
		r, ok := db.Relation("pts")
		if !ok {
			t.Fatal("relation lost on reopen")
		}
		rel = r
		p2, ok := db.Picture("m")
		if !ok {
			t.Fatal("picture lost on reopen")
		}
		pic = p2
		if rel.Len() != len(shadow) {
			t.Fatalf("round %d: relation has %d tuples, shadow %d", round, rel.Len(), len(shadow))
		}
		checkWindow()
	}
	db.Close()
}
