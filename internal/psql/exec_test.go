package psql_test

import (
	"reflect"
	"strings"
	"testing"

	pictdb "repro"
	"repro/internal/geom"
	"repro/internal/pack"
	"repro/internal/pager"
	"repro/internal/picture"
	"repro/internal/psql"
	"repro/internal/relation"
)

func usdb(t *testing.T) *pictdb.Database {
	t.Helper()
	db, err := pictdb.BuildUSDatabase()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// col returns the index of the named result column.
func col(t *testing.T, res *pictdb.Result, name string) int {
	t.Helper()
	for i, c := range res.Columns {
		if c == name {
			return i
		}
	}
	t.Fatalf("result has no column %q (have %v)", name, res.Columns)
	return -1
}

func cities(t *testing.T, res *pictdb.Result, name string) []string {
	t.Helper()
	ci := col(t, res, name)
	var out []string
	for _, r := range res.Rows {
		out = append(out, r[ci].String())
	}
	return out
}

func TestDirectSpatialSearchEasternCities(t *testing.T) {
	// The paper's first example: big cities in the eastern US window.
	db := usdb(t)
	res, err := db.Query(`
		select city, state, population, loc
		from   cities
		on     us-map
		at     loc covered-by {800±200, 500±500}
		where  population > 450_000`)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, c := range cities(t, res, "city") {
		got[c] = true
	}
	// Must include the eastern giants.
	for _, want := range []string{"New York", "Philadelphia", "Baltimore", "Washington", "Boston"} {
		if !got[want] {
			t.Errorf("missing %s in %v", want, got)
		}
	}
	// Must exclude the west and the small.
	for _, bad := range []string{"Los Angeles", "San Francisco", "Seattle", "Denver", "Miami"} {
		if got[bad] {
			t.Errorf("unexpected %s (either west of the window or too small)", bad)
		}
	}
	if res.NodesVisited < 1 {
		t.Error("direct search did not use the R-tree")
	}
	if len(res.Locs) != len(res.Rows) {
		t.Errorf("locs = %d, rows = %d", len(res.Locs), len(res.Rows))
	}
}

func TestDirectSearchMatchesScanOracle(t *testing.T) {
	// Direct search (R-tree) must return exactly what a full scan
	// qualification returns.
	db := usdb(t)
	direct, err := db.Query(`
		select city from cities on us-map
		at loc covered-by {500±150, 500±500}`)
	if err != nil {
		t.Fatal(err)
	}
	scan, err := db.Query(`
		select city from cities on us-map
		where centerx(loc) >= 350 and centerx(loc) <= 650`)
	if err != nil {
		t.Fatal(err)
	}
	d := cities(t, direct, "city")
	s := cities(t, scan, "city")
	if len(d) != len(s) {
		t.Fatalf("direct %v != scan %v", d, s)
	}
	set := map[string]bool{}
	for _, c := range s {
		set[c] = true
	}
	for _, c := range d {
		if !set[c] {
			t.Fatalf("direct found %q not in scan result", c)
		}
	}
	if len(d) == 0 {
		t.Fatal("window unexpectedly empty")
	}
}

func TestJuxtapositionCitiesTimeZones(t *testing.T) {
	// The paper's geographic join: every city paired with its time
	// zone by simultaneous search of the two spatial organizations.
	db := usdb(t)
	res, err := db.Query(`
		select city, zone
		from   cities, time-zones
		on     us-map, time-zone-map
		at     cities.loc covered-by time-zones.loc`)
	if err != nil {
		t.Fatal(err)
	}
	zoneOf := map[string]string{}
	ci, zi := col(t, res, "city"), col(t, res, "zone")
	for _, r := range res.Rows {
		zoneOf[r[ci].Str] = r[zi].Str
	}
	want := map[string]string{
		"New York":      "Eastern",
		"Chicago":       "Central",
		"Denver":        "Mountain",
		"Los Angeles":   "Pacific",
		"Houston":       "Central",
		"Seattle":       "Pacific",
		"Boston":        "Eastern",
		"New Orleans":   "Central",
		"Phoenix":       "Mountain",
		"San Francisco": "Pacific",
	}
	for city, zone := range want {
		if zoneOf[city] != zone {
			t.Errorf("%s in zone %q, want %q", city, zoneOf[city], zone)
		}
	}
	// Every city lands in exactly one band (bands tile the frame).
	if len(res.Rows) < 40 {
		t.Errorf("only %d city-zone pairs", len(res.Rows))
	}
}

func TestNestedMapping(t *testing.T) {
	// The paper's nested mapping: lakes covered by some eastern state.
	// With the simplified rectangular states, the Great Lakes overlap
	// Michigan's box; Great Salt Lake (west) must not appear when the
	// inner query selects only eastern states.
	db := usdb(t)
	res, err := db.Query(`
		select lake, area, lakes.loc
		from   lakes
		on     lake-map
		at     lakes.loc covered-by
		       select states.loc
		       from   states
		       on     state-map
		       at     states.loc overlapping {800±200, 500±500}`)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, l := range cities(t, res, "lake") {
		got[l] = true
	}
	if got["Great Salt"] {
		t.Error("Great Salt Lake matched an eastern state")
	}
	if len(got) == 0 {
		t.Error("no lakes found; expected Great Lakes inside Michigan's box")
	}
}

func TestNamedLocation(t *testing.T) {
	db := usdb(t)
	res, err := db.Query(`
		select city from cities on us-map
		at loc covered-by eastern-us`)
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, c := range cities(t, res, "city") {
		found[c] = true
	}
	if !found["New York"] || found["Los Angeles"] {
		t.Errorf("eastern-us = %v", found)
	}
}

func TestCoveringOperator(t *testing.T) {
	// Which time zone covers a small window around Chicago?
	db := usdb(t)
	res, err := db.Query(`
		select zone from time-zones on time-zone-map
		at loc covering {643±2, 715±2}`)
	if err != nil {
		t.Fatal(err)
	}
	zones := cities(t, res, "zone")
	if len(zones) != 1 || zones[0] != "Central" {
		t.Fatalf("zones = %v, want [Central]", zones)
	}
}

func TestDisjoinedOperator(t *testing.T) {
	db := usdb(t)
	res, err := db.Query(`
		select zone from time-zones on time-zone-map
		at loc disjoined {900±99, 500±499}`)
	if err != nil {
		t.Fatal(err)
	}
	zones := map[string]bool{}
	for _, z := range cities(t, res, "zone") {
		zones[z] = true
	}
	if zones["Eastern"] {
		t.Error("Eastern should intersect the far-east window")
	}
	if !zones["Pacific"] || !zones["Mountain"] {
		t.Errorf("west zones should be disjoint: %v", zones)
	}
}

func TestOverlappingOperator(t *testing.T) {
	db := usdb(t)
	// A window straddling the Eastern/Central boundary overlaps both.
	res, err := db.Query(`
		select zone from time-zones on time-zone-map
		at loc overlapping {690±15, 500±100}`)
	if err != nil {
		t.Fatal(err)
	}
	zones := map[string]bool{}
	for _, z := range cities(t, res, "zone") {
		zones[z] = true
	}
	if !zones["Eastern"] || !zones["Central"] {
		t.Errorf("zones = %v, want Eastern and Central", zones)
	}
}

func TestPictorialFunctions(t *testing.T) {
	db := usdb(t)
	res, err := db.Query(`
		select lake, area(loc) as true-area, northest(loc) as top
		from lakes on lake-map
		where area(loc) > 0`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d, want 6 lakes", len(res.Rows))
	}
	ai := col(t, res, "true-area")
	ti := col(t, res, "top")
	for _, r := range res.Rows {
		if r[ai].AsFloat() <= 0 {
			t.Errorf("non-positive polygon area")
		}
		if r[ti].AsFloat() <= 0 || r[ti].AsFloat() > 1000 {
			t.Errorf("northest out of frame: %v", r[ti])
		}
	}
}

func TestLabelAndKindFunctions(t *testing.T) {
	db := usdb(t)
	res, err := db.Query(`
		select label(loc) as l, kind(loc) as k
		from highways on highway-map
		where hwy-name = 'I-95'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("I-95 sections = %d, want 4", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r[col(t, res, "l")].Str != "I-95" {
			t.Errorf("label = %v", r[0])
		}
		if r[col(t, res, "k")].Str != "segment" {
			t.Errorf("kind = %v", r[1])
		}
	}
}

func TestUserDefinedFunction(t *testing.T) {
	db := usdb(t)
	db.RegisterFunc("halfpop", func(c *psql.FuncContext) (psql.Datum, error) {
		d := c.Args[0]
		return psql.Datum{Kind: psql.KindInt, Int: d.Int / 2}, nil
	})
	res, err := db.Query(`select halfpop(population) as hp from cities where city = 'Chicago'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int != 3005072/2 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestWhereSpatialOperatorCrossPicture(t *testing.T) {
	// Spatial operators also work in the where-clause (slower path,
	// no index pruning) — must agree with the at-clause join.
	db := usdb(t)
	atRes, err := db.Query(`
		select city, zone from cities, time-zones
		on us-map, time-zone-map
		at cities.loc covered-by time-zones.loc`)
	if err != nil {
		t.Fatal(err)
	}
	whereRes, err := db.Query(`
		select city, zone from cities, time-zones
		on us-map, time-zone-map
		where cities.loc covered-by time-zones.loc`)
	if err != nil {
		t.Fatal(err)
	}
	if len(atRes.Rows) != len(whereRes.Rows) {
		t.Fatalf("at-join %d rows != where-join %d rows", len(atRes.Rows), len(whereRes.Rows))
	}
}

func TestSelectStar(t *testing.T) {
	db := usdb(t)
	res, err := db.Query(`select * from states where state = 'Texas'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) != 3 || len(res.Rows) != 1 {
		t.Fatalf("cols=%v rows=%d", res.Columns, len(res.Rows))
	}
}

func TestArithmeticAndAliases(t *testing.T) {
	db := usdb(t)
	res, err := db.Query(`
		select city, population / 1000 as thousands
		from cities
		where population >= 1_000_000 and population < 2_000_000`)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, c := range cities(t, res, "city") {
		names[c] = true
	}
	if !names["Philadelphia"] || !names["Houston"] || !names["Detroit"] {
		t.Errorf("cities = %v", names)
	}
	if names["New York"] || names["Dallas"] {
		t.Errorf("boundary cities leaked: %v", names)
	}
	ti := col(t, res, "thousands")
	for _, r := range res.Rows {
		if r[ti].Int < 1000 || r[ti].Int >= 2000 {
			t.Errorf("thousands = %v", r[ti])
		}
	}
}

func TestStringPredicates(t *testing.T) {
	db := usdb(t)
	res, err := db.Query(`select city from cities where state = 'TX' or state = 'CA'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) < 8 {
		t.Fatalf("TX+CA cities = %d", len(res.Rows))
	}
	res2, err := db.Query(`select city from cities where not (state = 'TX' or state = 'CA')`)
	if err != nil {
		t.Fatal(err)
	}
	total, err := db.Query(`select city from cities`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows)+len(res2.Rows) != len(total.Rows) {
		t.Fatalf("complement mismatch: %d + %d != %d", len(res.Rows), len(res2.Rows), len(total.Rows))
	}
}

func TestExecErrors(t *testing.T) {
	db := usdb(t)
	bad := []string{
		`select city from nowhere`, // unknown relation
		`select city from cities on mars-map at loc covered-by {1±1, 1±1}`, // unknown picture
		`select nope from cities`,                                              // unknown column
		`select city from cities at loc covered-by {1±1, 1±1}`,                 // no on-clause picture
		`select city from cities on us-map at loc covered-by nowhere-loc-name`, // unknown location
		`select city from cities where city`,                                   // non-boolean where
		`select badfunc(loc) from cities on us-map`,                            // unknown function
		`select city from cities c, cities c`,                                  // duplicate binding
		`select loc from cities, states where loc covered-by {1±1, 1±1}`,       // ambiguous loc
	}
	for _, q := range bad {
		if _, err := db.Query(q); err == nil {
			t.Errorf("accepted %q", q)
		}
	}
}

func TestResultFormat(t *testing.T) {
	db := usdb(t)
	res, err := db.Query(`select city, population from cities where state = 'OH'`)
	if err != nil {
		t.Fatal(err)
	}
	out := res.Format()
	if !strings.Contains(out, "city") || !strings.Contains(out, "Cleveland") {
		t.Errorf("format output missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2+len(res.Rows) {
		t.Errorf("format has %d lines for %d rows", len(lines), len(res.Rows))
	}
}

func TestRenderQueryResult(t *testing.T) {
	db := usdb(t)
	res, err := db.Query(`
		select city, loc from cities on us-map
		at loc covered-by {800±200, 500±500}
		where population > 450_000`)
	if err != nil {
		t.Fatal(err)
	}
	out, err := db.Render(res, "us-map", pictdb.R(600, 0, 1000, 1000))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "*") {
		t.Error("render has no city marks")
	}
	if !strings.Contains(out, "New York") {
		t.Error("render missing city label")
	}
	if _, err := db.Render(res, "mars-map", pictdb.R(0, 0, 1, 1)); err == nil {
		t.Error("render on unknown picture accepted")
	}
}

func TestIndirectSpatialSearch(t *testing.T) {
	// The paper's indirect search: find by alphanumeric predicate,
	// display via locs ("Display the city ... if the population
	// exceeds 2 million").
	db := usdb(t)
	res, err := db.Query(`select city, loc from cities where population > 2_000_000`)
	if err != nil {
		t.Fatal(err)
	}
	got := cities(t, res, "city")
	if len(got) != 3 {
		t.Fatalf("cities over 2M = %v", got)
	}
	if len(res.Locs) != 3 {
		t.Fatalf("locs = %d", len(res.Locs))
	}
	out, err := db.Render(res, "us-map", pictdb.R(0, 0, 1000, 1000))
	if err != nil || !strings.Contains(out, "*") {
		t.Fatalf("render failed: %v", err)
	}
}

func TestOrderByAndLimit(t *testing.T) {
	db := usdb(t)
	res, err := db.Query(`
		select city, population from cities
		order by population desc
		limit 3`)
	if err != nil {
		t.Fatal(err)
	}
	got := cities(t, res, "city")
	want := []string{"New York", "Chicago", "Los Angeles"}
	if len(got) != 3 {
		t.Fatalf("rows = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rank %d = %q, want %q", i, got[i], want[i])
		}
	}
	// Secondary key breaks ties deterministically; ascending default.
	res2, err := db.Query(`select city from cities order by state, city limit 4`)
	if err != nil {
		t.Fatal(err)
	}
	prev := ""
	for _, r := range res2.Rows {
		if prev != "" && r[0].Str < prev {
			// cities sorted by (state, city): within the limit window
			// the city order may reset across states, so only check
			// non-empty output here.
			break
		}
		prev = r[0].Str
	}
	if res2.Len() != 4 {
		t.Fatalf("limit ignored: %d rows", res2.Len())
	}
	// limit 0 yields no rows but a valid result.
	res3, err := db.Query(`select city from cities limit 0`)
	if err != nil || res3.Len() != 0 {
		t.Fatalf("limit 0: %d rows, %v", res3.Len(), err)
	}
	// order by an incomparable mix errors.
	if _, err := db.Query(`select city from cities order by loc`); err == nil {
		// loc vs loc compares fine actually; instead mix types:
		t.Log("loc ordering allowed (locs are comparable)")
	}
}

func TestIndexAssistedQualification(t *testing.T) {
	// population is B-tree indexed in the US database; index-assisted
	// candidates must agree with the scan answer for every operator.
	db := usdb(t)
	queries := []struct {
		q    string
		want int
	}{
		{`select city from cities where population > 1_000_000`, 6},
		{`select city from cities where population >= 1_203_339`, 6},
		{`select city from cities where population < 320_000`, 2},
		{`select city from cities where population <= 314_447`, 2},
		{`select city from cities where population = 638_333`, 1},
		{`select city from cities where 1_000_000 < population`, 6}, // mirrored
		{`select city from cities where city = 'Chicago'`, 1},
		// Indexed conjunct narrows; the rest still filters.
		{`select city from cities where population > 1_000_000 and state = 'TX'`, 1},
	}
	for _, tt := range queries {
		res, err := db.Query(tt.q)
		if err != nil {
			t.Fatalf("%s: %v", tt.q, err)
		}
		if res.Len() != tt.want {
			t.Errorf("%s: %d rows, want %d", tt.q, res.Len(), tt.want)
		}
	}
	// Fractional bound on an int column falls back to scan, still
	// correct.
	res, err := db.Query(`select city from cities where population > 1_000_000.5`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 6 {
		t.Errorf("fractional bound: %d rows, want 6", res.Len())
	}
}

func TestQueryPlanNotes(t *testing.T) {
	db := usdb(t)
	check := func(q, wantSubstring string) {
		t.Helper()
		res, err := db.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		joined := strings.Join(res.Plan.Lines(), "; ")
		if !strings.Contains(joined, wantSubstring) {
			t.Errorf("%s\n plan %q missing %q", q, joined, wantSubstring)
		}
	}
	check(`select city from cities on us-map at loc covered-by eastern-us`,
		"direct spatial search")
	check(`select city, zone from cities, time-zones on us-map, time-zone-map
	       at cities.loc covered-by time-zones.loc`,
		"juxtaposition")
	check(`select city from cities where population > 1_000_000`,
		"index lookup")
	check(`select city from cities where state = 'TX'`,
		"scan") // state is unindexed: full scan
}

func TestAggregates(t *testing.T) {
	db := usdb(t)
	res, err := db.Query(`
		select count(*), min(population), max(population),
		       sum(population) as total, avg(population)
		from cities where state = 'TX'`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("aggregate rows = %d", res.Len())
	}
	r := res.Rows[0]
	// TX cities: Houston, Dallas, San Antonio, El Paso, Fort Worth, Austin.
	if r[0].Int != 6 {
		t.Errorf("count = %v", r[0])
	}
	if r[1].Int != 345890 { // Austin
		t.Errorf("min = %v", r[1])
	}
	if r[2].Int != 1595138 { // Houston
		t.Errorf("max = %v", r[2])
	}
	wantSum := int64(1595138 + 904078 + 785880 + 425259 + 385164 + 345890)
	if r[3].Int != wantSum {
		t.Errorf("sum = %v, want %d", r[3], wantSum)
	}
	if got := r[4].AsFloat(); got != float64(wantSum)/6 {
		t.Errorf("avg = %v", got)
	}
}

func TestAggregateNorthestComposition(t *testing.T) {
	// The paper's motivating aggregate: the northernmost coordinate of
	// any point in a highway (set of segments).
	db := usdb(t)
	res, err := db.Query(`
		select max(northest(loc)) as north-end, count(*)
		from highways on highway-map
		where hwy-name = 'I-95'`)
	if err != nil {
		t.Fatal(err)
	}
	r := res.Rows[0]
	if r[1].Int != 4 {
		t.Fatalf("I-95 sections = %v", r[1])
	}
	// The Boston endpoint is the northernmost I-95 point.
	boston := res.Rows[0][0].AsFloat()
	single, err := db.Query(`
		select northest(loc) from highways on highway-map
		where hwy-section = 'NewYork-Boston'`)
	if err != nil {
		t.Fatal(err)
	}
	if boston != single.Rows[0][0].AsFloat() {
		t.Fatalf("max(northest) = %g, want the Boston section's %g", boston, single.Rows[0][0].AsFloat())
	}
}

func TestAggregatesOverSpatialSearch(t *testing.T) {
	// Aggregates compose with direct spatial search: how many big
	// cities are in the east, and their total population.
	db := usdb(t)
	res, err := db.Query(`
		select count(*) as n, sum(population) as pop
		from cities on us-map
		at loc covered-by eastern-us
		where population > 450_000`)
	if err != nil {
		t.Fatal(err)
	}
	r := res.Rows[0]
	if r[0].Int < 10 || r[0].Int > 25 {
		t.Errorf("eastern big-city count = %v", r[0])
	}
	if r[1].Int < 10_000_000 {
		t.Errorf("eastern big-city population = %v", r[1])
	}
}

func TestAggregateErrors(t *testing.T) {
	db := usdb(t)
	bad := []string{
		`select city, count(*) from cities`,              // mixed
		`select count(*) from cities order by city`,      // order by with agg
		`select count(*) from cities limit 1`,            // limit with agg
		`select count(*) from cities where count(*) > 1`, // agg in where
		`select sum(city) from cities`,                   // non-numeric sum
		`select min(count(*)) from cities`,               // nested agg
		`select sum(population, population) from cities`, // arity
	}
	for _, q := range bad {
		if _, err := db.Query(q); err == nil {
			t.Errorf("accepted %q", q)
		}
	}
	// Aggregates over an empty row set.
	res, err := db.Query(`select count(*), min(population), avg(population) from cities where population > 99_000_000`)
	if err != nil {
		t.Fatal(err)
	}
	r := res.Rows[0]
	if r[0].Int != 0 || r[1].Kind != psql.KindNull || r[2].Kind != psql.KindNull {
		t.Errorf("empty aggregates = %v", r)
	}
}

// oneRelation is a psql.Catalog over one relation and its picture, built
// straight on a pager whose counters the test can read.
type oneRelation struct {
	rel *relation.Relation
	pic *picture.Picture
}

func (c oneRelation) Relation(name string) (*relation.Relation, bool) {
	return c.rel, name == c.rel.Name()
}
func (c oneRelation) Picture(name string) (*picture.Picture, bool) {
	return c.pic, name == c.pic.Name()
}
func (oneRelation) Location(string) (geom.Rect, bool) { return geom.Rect{}, false }

// TestTextRefusalsTouchNoPage: what a statement's text alone rules out —
// an aggregate in the where-clause, an aggregated target list with
// order by or limit — is refused when the statement is bound, with the
// same message from the planned and the naive executor, before either
// has searched an index or pinned a heap page. (Both used to find,
// fetch and decode every candidate first.)
func TestTextRefusalsTouchNoPage(t *testing.T) {
	p := pager.OpenMem(4096)
	defer p.Close()
	pic := picture.New("m", geom.R(0, 0, 1000, 1000))
	rel, err := relation.NewSharded(p, 1, "pts", relation.MustSchema("n:int", "loc:loc"), oneRelation{pic: pic})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10_000; i++ {
		oid := pic.AddPoint("", geom.Pt(float64(i%100)*10, float64(i/100)*10))
		if _, err := rel.Insert(relation.Tuple{relation.I(int64(i)), relation.L("m", oid)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := rel.AttachPicture(pic, pack.Options{Method: pack.MethodHilbert}); err != nil {
		t.Fatal(err)
	}
	e := psql.NewExecutor(oneRelation{rel, pic})
	at := ` from pts on m at loc covered-by {500±500, 500±500}`
	for _, c := range []struct{ q, want string }{
		{`select n` + at + ` where max(n) > 5`, "aggregates are not allowed in the where-clause"},
		{`select count(*)` + at + ` where n > 5 and count(*) > 1`, "aggregates are not allowed in the where-clause"},
		{`select count(*)` + at + ` order by n`, "order by / limit cannot combine with aggregates"},
		{`select max(n)` + at + ` limit 3`, "order by / limit cannot combine with aggregates"},
	} {
		before := p.Stats()
		_, perr := e.Run(c.q)
		_, nerr := e.RunNaive(c.q)
		if perr == nil || nerr == nil || perr.Error() != nerr.Error() || !strings.Contains(perr.Error(), c.want) {
			t.Errorf("%s:\nplanned %v\n  naive %v\nwant both: %s", c.q, perr, nerr, c.want)
		}
		if after := p.Stats(); after != before {
			t.Errorf("%s: refused after touching pages: pager stats %+v -> %+v", c.q, before, after)
		}
	}
	// The same statements without the offending clause do read pages.
	before := p.Stats()
	if res, err := e.Run(`select count(*)` + at); err != nil || res.Rows[0][0].Int != 10_000 {
		t.Fatalf("count(*) over the frame = %v, %v", res, err)
	}
	if p.Stats() == before {
		t.Error("a statement that ran left the pager's counters where they were")
	}
}

// TestBTreeWindowReadsEachCandidateOnce: a window statement that a
// B-tree drives reads each of the B-tree's candidates once — the read
// that tests its where-terms and decodes its loc also decodes the
// columns the statement selects — and answers as the naive executor
// does.
func TestBTreeWindowReadsEachCandidateOnce(t *testing.T) {
	rel, e := btreePoints(t)
	q := `select n from pts on m at loc covered-by {250±250, 500±500} where k = 7 and n >= 1000`
	candidates, _ := rel.Lookup(relation.Term{Col: 1, Op: relation.OpEq, Val: relation.I(7)})
	reads := 0
	rel.SetReadHook(func(n int) { reads += n })
	got, err := e.Run(q)
	rel.SetReadHook(nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan := strings.Join(got.Plan.Lines(), "\n"); !strings.Contains(plan, "index lookup: B-tree on pts.k") {
		t.Fatalf("not a B-tree-driven window:\n%s", plan)
	}
	if reads != len(candidates) {
		t.Errorf("the statement read %d records for the B-tree's %d candidates", reads, len(candidates))
	}
	want, err := e.RunNaive(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) == 0 || !reflect.DeepEqual(got.Rows, want.Rows) {
		t.Fatalf("planned %v, naive %v", got.Rows, want.Rows)
	}
}

// btreePoints builds pts(n, k, loc): 10 000 points n on a 100 × 100
// grid of picture m, n%100 along x and n/100 along y, 10 apart, with k =
// n%500 under a B-tree and loc Hilbert-packed; and an executor over it.
func btreePoints(t *testing.T) (*relation.Relation, *psql.Executor) {
	t.Helper()
	p := pager.OpenMem(4096)
	t.Cleanup(func() { p.Close() })
	pic := picture.New("m", geom.R(0, 0, 1000, 1000))
	rel, err := relation.NewSharded(p, 1, "pts", relation.MustSchema("n:int", "k:int", "loc:loc"), oneRelation{pic: pic})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10_000; i++ {
		oid := pic.AddPoint("", geom.Pt(float64(i%100)*10, float64(i/100)*10))
		if _, err := rel.Insert(relation.Tuple{relation.I(int64(i)), relation.I(int64(i % 500)), relation.L("m", oid)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := rel.CreateIndex("k"); err != nil {
		t.Fatal(err)
	}
	if err := rel.AttachPicture(pic, pack.Options{Method: pack.MethodHilbert}); err != nil {
		t.Fatal(err)
	}
	return rel, psql.NewExecutor(oneRelation{rel, pic})
}

// TestScanReadsEachRecordOnce: a statement with no at-clause and no
// B-tree to drive it reads each record of its relation once — the scan
// that tests its where-terms also decodes the columns it selects — and
// answers as the naive executor does.
func TestScanReadsEachRecordOnce(t *testing.T) {
	p := pager.OpenMem(4096)
	defer p.Close()
	pic := picture.New("m", geom.R(0, 0, 1000, 1000))
	rel, err := relation.NewSharded(p, 1, "pts", relation.MustSchema("n:int", "k:int"), oneRelation{pic: pic})
	if err != nil {
		t.Fatal(err)
	}
	const n = 2_000
	for i := 0; i < n; i++ {
		if _, err := rel.Insert(relation.Tuple{relation.I(int64(i)), relation.I(int64(i % 500))}); err != nil {
			t.Fatal(err)
		}
	}
	e := psql.NewExecutor(oneRelation{rel, pic})
	q := `select n from pts where k = 7`
	reads := 0
	rel.SetReadHook(func(n int) { reads += n })
	got, err := e.Run(q)
	rel.SetReadHook(nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan := strings.Join(got.Plan.Lines(), "\n"); !strings.Contains(plan, "scan: full scan") {
		t.Fatalf("not a scan:\n%s", plan)
	}
	if reads != n {
		t.Errorf("the statement read %d records of a %d-tuple relation", reads, n)
	}
	want, err := e.RunNaive(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 4 || !reflect.DeepEqual(got.Rows, want.Rows) {
		t.Fatalf("planned %v, naive %v", got.Rows, want.Rows)
	}
}
