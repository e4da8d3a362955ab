package pictdb_test

import (
	"fmt"
	"slices"
	"testing"

	pictdb "repro"
	"repro/internal/geom"
	"repro/internal/storage"
)

// mutateUS drives live deltas and tombstones into the US database's
// spatial indexes after the packed build: it deletes a slice of the
// packed cities, inserts fresh ones (population straddling the
// 450_000 cut used by the benchmark queries), and adds new time-zone
// regions so juxtaposition sees deltas on both sides. The default
// delta threshold is far above these counts, so every write stays in
// the delta trees until a repack is forced explicitly. The deleted
// cities are every 7th by name, so databases of any layout lose the same
// rows; the inserts that follow take new slots, since a freed slot is
// never handed out again.
func mutateUS(t *testing.T, db *pictdb.Database) {
	t.Helper()
	cities, _ := db.Relation("cities")
	usMap, _ := db.Picture("us-map")

	byName := map[string]storage.TupleID{}
	var names []string
	if err := cities.Scan(func(id storage.TupleID, tu pictdb.Tuple) bool {
		byName[tu[0].Str] = id
		names = append(names, tu[0].Str)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	slices.Sort(names)
	for i := 0; i < len(names); i += 7 {
		if err := cities.Delete(byName[names[i]]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 80; i++ {
		x := float64((i*137 + 11) % 1000)
		y := float64((i*211 + 7) % 1000)
		pop := 100_000 + (i%10)*100_000
		name := fmt.Sprintf("newcity-%02d", i)
		oid := usMap.AddPoint(name, pictdb.Pt(x, y))
		if _, err := cities.Insert(pictdb.Tuple{
			pictdb.S(name), pictdb.S("NX"), pictdb.I(int64(pop)), pictdb.L("us-map", oid),
		}); err != nil {
			t.Fatal(err)
		}
	}

	zones, _ := db.Relation("time-zones")
	tzMap, _ := db.Picture("time-zone-map")
	for i := 0; i < 4; i++ {
		x0, y0 := float64(100+i*200), float64(150+i*150)
		name := fmt.Sprintf("newzone-%d", i)
		oid := tzMap.AddRegion(name, pictdb.Poly(
			pictdb.Pt(x0, y0), pictdb.Pt(x0+180, y0),
			pictdb.Pt(x0+180, y0+220), pictdb.Pt(x0, y0+220)))
		if _, err := zones.Insert(pictdb.Tuple{
			pictdb.S(name), pictdb.F(float64(i)), pictdb.L("time-zone-map", oid),
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// lsmQueries covers every access path the planner can pick: direct
// spatial search (all four operators), juxtaposition with and without
// a restricting where-clause, and a nested pictorial subquery — each
// of which must merge packed, frozen, and delta trees identically to
// the naive full-scan reference.
var lsmQueries = map[string]string{
	"direct-covered-by": `
		select city, state, population, loc from cities on us-map
		at loc covered-by {800±200, 500±500} where population > 450_000`,
	"direct-overlapping": `
		select city, loc from cities on us-map
		at loc overlapping {300±150, 400±200}`,
	"direct-disjoined": `
		select city from cities on us-map at loc disjoined {900±99, 500±499}`,
	"juxtaposition": `
		select city, zone from cities, time-zones on us-map, time-zone-map
		at cities.loc covered-by time-zones.loc`,
	// Juxtapositions whose where-clause restricts a side before the
	// join: the small side by heap scan, the large side through its
	// B-tree, both, under disjoined, and with the at-clause in converse
	// order. The survivors come from the heap and the probes and
	// traversals from the merged trees, so a write-side entry either
	// misses would show here.
	"juxtaposition-small-side": `
		select city, zone from cities, time-zones on us-map, time-zone-map
		at cities.loc covered-by time-zones.loc where time-zones.zone = 'Eastern'`,
	"juxtaposition-large-side": `
		select city, zone from cities, time-zones on us-map, time-zone-map
		at cities.loc covered-by time-zones.loc where cities.city = 'Houston'`,
	"juxtaposition-both-sides": `
		select city, zone, population from cities, time-zones on us-map, time-zone-map
		at cities.loc covered-by time-zones.loc
		where hour-diff < -5 and population > 450_000`,
	"juxtaposition-disjoined": `
		select city, zone from cities, time-zones on us-map, time-zone-map
		at cities.loc disjoined time-zones.loc
		where zone = 'Pacific' and population > 1_000_000`,
	"juxtaposition-converse": `
		select zone, city from cities, time-zones on us-map, time-zone-map
		at time-zones.loc covering cities.loc where state = 'CA'`,
	"nested": `
		select lake, lakes.loc from lakes on lake-map
		at lakes.loc covered-by
		select states.loc from states on state-map
		at states.loc overlapping eastern-us`,
}

// assertSameResult requires got to be bit-identical to want: same
// columns, same rows in the same order, same loc pointers. Plan and
// NodesVisited legitimately differ between the paths.
func assertSameResult(t *testing.T, label string, got, want *pictdb.Result) {
	t.Helper()
	if len(got.Columns) != len(want.Columns) {
		t.Fatalf("%s: %d columns, naive %d", label, len(got.Columns), len(want.Columns))
	}
	for i := range got.Columns {
		if got.Columns[i] != want.Columns[i] {
			t.Fatalf("%s: column %d = %q, naive %q", label, i, got.Columns[i], want.Columns[i])
		}
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%s: %d rows, naive %d", label, len(got.Rows), len(want.Rows))
	}
	for ri := range got.Rows {
		if len(got.Rows[ri]) != len(want.Rows[ri]) {
			t.Fatalf("%s: row %d width %d, naive %d", label, ri, len(got.Rows[ri]), len(want.Rows[ri]))
		}
		for ci := range got.Rows[ri] {
			if got.Rows[ri][ci].String() != want.Rows[ri][ci].String() {
				t.Fatalf("%s: row %d col %d = %s, naive %s",
					label, ri, ci, got.Rows[ri][ci].String(), want.Rows[ri][ci].String())
			}
		}
	}
	if len(got.Locs) != len(want.Locs) {
		t.Fatalf("%s: %d locs, naive %d", label, len(got.Locs), len(want.Locs))
	}
	for i := range got.Locs {
		if got.Locs[i] != want.Locs[i] {
			t.Fatalf("%s: loc %d = %v, naive %v", label, i, got.Locs[i], want.Locs[i])
		}
	}
}

// batchWindows are the windows the multi-window checks search with:
// tiles over the frame that overlap their neighbours, a tile inside
// another, a point, a segment, an empty rectangle and one outside the
// frame.
func batchWindows() []pictdb.Rect {
	var ws []pictdb.Rect
	for x := 0.0; x < 1000; x += 250 {
		for y := 0.0; y < 1000; y += 250 {
			ws = append(ws, pictdb.R(x-20, y-20, x+270, y+270))
		}
	}
	return append(ws, pictdb.R(600, 400, 700, 450), pictdb.R(500, 500, 500, 500),
		pictdb.R(100, 300, 900, 300), geom.EmptyRect(), pictdb.R(2000, 2000, 2100, 2100))
}

// assertBatchMatchesSingles holds a relation's batched direct search to
// one search per window: SearchAreaBatch's list for each window is what
// SearchArea returns for it, SearchWindows returns their sorted union,
// and the batch, which loads a node once however many windows reach it,
// visits no more nodes than the windows' searches add up to and no
// fewer than the most any one of them visits.
func assertBatchMatchesSingles(t *testing.T, label string, rel *pictdb.Relation, pic string) {
	t.Helper()
	windows := batchWindows()
	found := 0
	for _, pred := range []func(obj, win pictdb.Rect) bool{geom.Overlapping, geom.CoveredBy} {
		batches, visited, err := rel.SearchAreaBatch(pic, windows, pred, 0)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		var union []storage.TupleID
		sum, most := 0, 0
		for i, w := range windows {
			ids, v, err := rel.SearchArea(pic, w, pred)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if !slices.Equal(batches[i], ids) {
				t.Fatalf("%s: window %v: batch found %v, its own search %v", label, w, batches[i], ids)
			}
			union = append(union, ids...)
			sum += v
			most = max(most, v)
		}
		if visited > sum || visited < most {
			t.Fatalf("%s: batch of %d windows visited %d nodes, its windows' searches %d in all and %d at most", label, len(windows), visited, sum, most)
		}
		slices.SortFunc(union, storage.TupleID.Compare)
		union = slices.Compact(union)
		all, v, err := rel.SearchWindows(pic, windows, pred)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if !slices.Equal(all, union) || v != visited {
			t.Fatalf("%s: SearchWindows found %d ids in %d visits, the batch %d in %d", label, len(all), v, len(union), visited)
		}
		found += len(union)
	}
	if found == 0 {
		t.Fatalf("%s: vacuous — no window found anything", label)
	}
}

func runLSMQueries(t *testing.T, db *pictdb.Database, stage string) {
	t.Helper()
	for name, q := range lsmQueries {
		got, err := db.Query(q)
		if err != nil {
			t.Fatalf("%s/%s: %v", stage, name, err)
		}
		want, err := db.QueryNaive(q)
		if err != nil {
			t.Fatalf("%s/%s naive: %v", stage, name, err)
		}
		assertSameResult(t, stage+"/"+name, got, want)
		if name != "direct-disjoined" && got.Len() == 0 {
			t.Fatalf("%s/%s: vacuous — zero rows on both paths", stage, name)
		}
	}
}

// TestLSMQueryMatchesNaive mutates the US database after its spatial
// indexes are packed, then checks the planned executor against the
// naive full-scan reference — first with the
// writes live in the delta trees and tombstone sets, then again after
// forcing a repack so the merged results come from the swapped root.
func TestLSMQueryMatchesNaive(t *testing.T) {
	db, err := pictdb.BuildUSDatabase()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mutateUS(t, db)

	cities, _ := db.Relation("cities")
	si := cities.Spatial("us-map")
	if si.DeltaLen() == 0 || si.TombstoneCount() == 0 {
		t.Fatalf("mutation left no live delta state: delta=%d tombstones=%d",
			si.DeltaLen(), si.TombstoneCount())
	}
	runLSMQueries(t, db, "delta-live")
	assertBatchMatchesSingles(t, "delta-live", cities, "us-map")

	// Collapse the deltas and re-verify against the repacked roots.
	zones, _ := db.Relation("time-zones")
	si.RepackNow(false)
	zones.Spatial("time-zone-map").RepackNow(false)
	if si.DeltaLen() != 0 || si.TombstoneCount() != 0 {
		t.Fatalf("repack left delta state: delta=%d tombstones=%d",
			si.DeltaLen(), si.TombstoneCount())
	}
	if si.Repacks() == 0 {
		t.Fatal("RepackNow recorded no repack")
	}
	runLSMQueries(t, db, "repacked")
	assertBatchMatchesSingles(t, "repacked", cities, "us-map")
}
