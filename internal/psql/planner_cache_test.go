package psql_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	pictdb "repro"
	"repro/internal/psql"
	"repro/internal/storage"
)

// sameRows fails the test unless a and b agree on Columns, Rows (order
// included), and Locs. NodesVisited is plan-dependent and deliberately
// not compared.
func sameRows(t *testing.T, label string, a, b *pictdb.Result) {
	t.Helper()
	if !reflect.DeepEqual(a.Columns, b.Columns) {
		t.Fatalf("%s: columns %v != %v", label, a.Columns, b.Columns)
	}
	if len(a.Rows) != len(b.Rows) {
		t.Fatalf("%s: %d rows != %d rows", label, len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		if len(a.Rows[i]) != len(b.Rows[i]) {
			t.Fatalf("%s: row %d arity %d != %d", label, i, len(a.Rows[i]), len(b.Rows[i]))
		}
		for j := range a.Rows[i] {
			if a.Rows[i][j].String() != b.Rows[i][j].String() {
				t.Fatalf("%s: row %d col %d: %v != %v", label, i, j, a.Rows[i][j], b.Rows[i][j])
			}
		}
	}
	if !reflect.DeepEqual(a.Locs, b.Locs) {
		t.Fatalf("%s: locs %v != %v", label, a.Locs, b.Locs)
	}
}

// oracleCorpus covers every access path the planner can choose.
var oracleCorpus = []string{
	`select city, state, population, loc from cities on us-map
	 at loc covered-by {800±200, 500±500} where population > 450_000`,
	`select city from cities on us-map at loc covering {640±2, 378±2}`,
	`select city from cities on us-map at loc overlapping {500±150, 500±500}`,
	`select city from cities on us-map at loc disjoined {800±200, 500±500}`,
	// Equality conjunct: cheap enough that the planner may drive the
	// at-clause from the B-tree instead of the R-tree.
	`select city from cities on us-map
	 at loc covered-by {800±200, 500±500} where city = 'Boston'`,
	`select city, zone from cities, time-zones on us-map, time-zone-map
	 at cities.loc covered-by time-zones.loc`,
	`select zone, city from cities, time-zones on us-map, time-zone-map
	 at time-zones.loc covering cities.loc`,
	`select lake, area, lakes.loc from lakes on lake-map
	 at lakes.loc covered-by
	   select states.loc from states on state-map
	   at states.loc overlapping {800±200, 500±500}`,
	`select city from cities where population > 1_000_000`,
	`select city from cities where state = 'TX' and population > 400_000`,
	`select city, population from cities
	 order by population desc limit 5`,
	`select count(*), max(population) from cities
	 on us-map at loc covered-by eastern-us`,
	`select city from cities on us-map at loc covered-by eastern-us
	 where distance(loc, {640±0, 378±0}) < 200 and population > 100_000`,
	// Juxtapositions with a where-clause (restrict.go). A selective term
	// on the small side: restricted by heap scan; one window prices the
	// probe just over the 18-node traversal, which is kept and filtered.
	`select city, zone from cities, time-zones on us-map, time-zone-map
	 at cities.loc covered-by time-zones.loc where time-zones.zone = 'Eastern'`,
	// On the large side, through its B-tree: the survivor's MBR probes
	// the other tree.
	`select city, zone from cities, time-zones on us-map, time-zone-map
	 at cities.loc covered-by time-zones.loc where cities.city = 'Chicago'`,
	// On both sides, the large one unindexed: only the small side is
	// priced under the traversal.
	`select city, zone from cities, time-zones on us-map, time-zone-map
	 at cities.loc covered-by time-zones.loc
	 where zone = 'Central' and cities.state = 'TX'`,
	// On both sides, both restricted: one probes, the other filters.
	`select city, zone from cities, time-zones on us-map, time-zone-map
	 at cities.loc covered-by time-zones.loc
	 where zone = 'Eastern' and city = 'Boston'`,
	// An indexable range the B-tree prices over the traversal, and an
	// unselective restriction: the traversal runs, its pairs filtered.
	`select city, zone from cities, time-zones on us-map, time-zone-map
	 at cities.loc covered-by time-zones.loc
	 where cities.population > 1_000_000 and hour-diff > -100`,
	// Terms that must not be pushed: a function call and a comparison
	// across the two bindings.
	`select city, zone from cities, time-zones on us-map, time-zone-map
	 at cities.loc covered-by time-zones.loc
	 where distance(cities.loc, {640±0, 378±0}) < 300 and population > hour-diff`,
	// A fractional bound on an int column is not a bound term, and the
	// pushable term ranked behind it stays behind it.
	`select city, zone from cities, time-zones on us-map, time-zone-map
	 at cities.loc covered-by time-zones.loc
	 where population >= 400000.5 and hour-diff < -5`,
	// Disjoined: the nested loop takes the restricted lists.
	`select city, zone from cities, time-zones on us-map, time-zone-map
	 at cities.loc disjoined time-zones.loc
	 where zone = 'Pacific' and population > 1_000_000`,
	// The at-clause in converse order, survivors on its left.
	`select zone, city from cities, time-zones on us-map, time-zone-map
	 at time-zones.loc covering cities.loc where city = 'Denver'`,
	`select zone, city from cities, time-zones on us-map, time-zone-map
	 at time-zones.loc covering cities.loc where hour-diff < -6`,
}

// TestPlannedMatchesNaiveOracle runs a corpus covering every access
// path the planner can choose — direct search under all four spatial
// operators, index-driven at-clauses, juxtaposition, nested mappings,
// B-tree and scan qualifications, ordering, aggregates — and checks
// the planned executor against the naive reference row for row. Both
// paths emit canonical row order, so any divergence is a planner or
// batching bug.
func TestPlannedMatchesNaiveOracle(t *testing.T) {
	db := usdb(t)
	for _, q := range oracleCorpus {
		planned, err := db.Query(q)
		if err != nil {
			t.Fatalf("planned %s: %v", q, err)
		}
		naive, err := db.QueryNaive(q)
		if err != nil {
			t.Fatalf("naive %s: %v", q, err)
		}
		sameRows(t, q, planned, naive)
	}
}

// TestPlannedMatchesNaiveRandomized is the randomized half of the
// oracle: planned vs naive over random pictures and windows, all four
// operators, rows compared in order.
func TestPlannedMatchesNaiveRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	ops := []string{"covered-by", "covering", "overlapping", "disjoined"}
	for trial := 0; trial < 3; trial++ {
		db := pictdb.New()
		pic, err := db.CreatePicture("m", pictdb.R(0, 0, 1000, 1000))
		if err != nil {
			t.Fatal(err)
		}
		rel, err := db.CreateRelation("objs", pictdb.MustSchema("n:int", "loc:loc"))
		if err != nil {
			t.Fatal(err)
		}
		n := 50 + rng.Intn(150)
		for i := 0; i < n; i++ {
			p := pictdb.Pt(rng.Float64()*1000, rng.Float64()*1000)
			oid := pic.AddPoint("", p)
			if _, err := rel.Insert(pictdb.Tuple{pictdb.I(int64(i)), pictdb.L("m", oid)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := rel.AttachPicture(pic, pictdb.PackOptions{Method: pictdb.PackHilbert}); err != nil {
			t.Fatal(err)
		}
		for q := 0; q < 8; q++ {
			cx, cy := rng.Float64()*1000, rng.Float64()*1000
			dx, dy := rng.Float64()*200, rng.Float64()*200
			op := ops[rng.Intn(len(ops))]
			query := fmt.Sprintf(`select n, loc from objs on m at loc %s {%g±%g, %g±%g}`,
				op, cx, dx, cy, dy)
			planned, err := db.Query(query)
			if err != nil {
				t.Fatalf("trial %d: %s: %v", trial, query, err)
			}
			naive, err := db.QueryNaive(query)
			if err != nil {
				t.Fatalf("trial %d naive: %s: %v", trial, query, err)
			}
			sameRows(t, query, planned, naive)
		}
		db.Close()
	}
}

// TestStatementCacheHitIdentical runs the same text twice and demands
// bit-identical results — including Plan and NodesVisited — plus a
// recorded cache hit. A cached statement must be indistinguishable
// from a fresh parse.
func TestStatementCacheHitIdentical(t *testing.T) {
	db := usdb(t)
	q := `select city, state, loc from cities on us-map
	      at loc covered-by {800±200, 500±500} where population > 450_000`
	first, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	before := db.CacheStats()
	second, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	after := db.CacheStats()
	if after.Hits != before.Hits+1 {
		t.Errorf("hits %d -> %d, want one more", before.Hits, after.Hits)
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("cached execution differs:\nfirst  %+v\nsecond %+v", first, second)
	}
	if after.Entries < 1 {
		t.Errorf("cache entries = %d", after.Entries)
	}
}

// TestRegisterFuncInvalidatesCache is the regression test for stale
// plans: a cached statement that calls a function must be evicted when
// the function is re-registered, so the next run sees the new
// implementation.
func TestRegisterFuncInvalidatesCache(t *testing.T) {
	db := usdb(t)
	db.RegisterFunc("grade", func(c *psql.FuncContext) (psql.Datum, error) {
		return psql.Datum{Kind: psql.KindInt, Int: 1}, nil
	})
	q := `select grade(population) from cities where city = 'Boston'`
	res, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int != 1 {
		t.Fatalf("first implementation returned %v", res.Rows[0][0])
	}
	// Warm the cache, then swap the implementation.
	if _, err := db.Query(q); err != nil {
		t.Fatal(err)
	}
	db.RegisterFunc("grade", func(c *psql.FuncContext) (psql.Datum, error) {
		return psql.Datum{Kind: psql.KindInt, Int: 2}, nil
	})
	if got := db.CacheStats(); got.Invalidations < 1 {
		t.Errorf("invalidations = %d, want >= 1", got.Invalidations)
	}
	res, err = db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int != 2 {
		t.Errorf("cached plan served stale function: got %v, want 2", res.Rows[0][0])
	}
	// A statement that does not call grade must survive the eviction.
	if _, err := db.Query(`select city from cities limit 1`); err != nil {
		t.Fatal(err)
	}
	db.RegisterFunc("grade", func(c *psql.FuncContext) (psql.Datum, error) {
		return psql.Datum{Kind: psql.KindInt, Int: 3}, nil
	})
	if got := db.CacheStats(); got.Entries < 1 {
		t.Errorf("unrelated statement evicted too (entries = %d)", got.Entries)
	}
}

// TestPlannerAccessPathChoice pins the cost model's decisions on the
// US database: a highly selective equality conjunct flips the
// at-clause to the B-tree, a loose range conjunct keeps the paper's
// direct spatial search, and the plan says which happened.
func TestPlannerAccessPathChoice(t *testing.T) {
	db := usdb(t)
	plan := func(q string) string {
		t.Helper()
		res, err := db.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		return strings.Join(res.Plan, "; ")
	}
	// city = 'Boston' is indexed and estimated at 5% selectivity: the
	// B-tree should drive the at-clause.
	p := plan(`select city from cities on us-map
	           at loc covered-by {800±200, 500±500} where city = 'Boston'`)
	if !strings.Contains(p, "index lookup") || !strings.Contains(p, "drives the at-clause") {
		t.Errorf("equality conjunct should drive the at-clause from the B-tree; plan: %s", p)
	}
	// population > 450_000 is a loose range: direct search must win
	// (the paper's signature access path, protected by hysteresis).
	p = plan(`select city from cities on us-map
	          at loc covered-by {800±200, 500±500} where population > 450_000`)
	if !strings.Contains(p, "direct spatial search") {
		t.Errorf("range conjunct should keep direct spatial search; plan: %s", p)
	}
	// Juxtaposition reports its driving side.
	p = plan(`select city, zone from cities, time-zones on us-map, time-zone-map
	          at cities.loc covered-by time-zones.loc`)
	if !strings.Contains(p, "juxtaposition") || !strings.Contains(p, "driving") {
		t.Errorf("juxtaposition plan should name the driving side; plan: %s", p)
	}
	// Nested mappings report their own plan, prefixed.
	res, err := db.Query(`select lake from lakes on lake-map
	                      at lakes.loc covered-by
	                        select states.loc from states on state-map
	                        at states.loc overlapping {800±200, 500±500}`)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(res.Plan, "; ")
	if !strings.Contains(joined, "nested: ") {
		t.Errorf("nested mapping plan notes missing; plan: %s", joined)
	}
}

// TestConjunctReordering: the executor must evaluate cheap selective
// conjuncts before expensive function calls, without changing the
// answer. The expensive function counts its invocations; with
// reordering it runs only on rows surviving the equality test.
func TestConjunctReordering(t *testing.T) {
	db := usdb(t)
	var calls int
	db.RegisterFunc("expensive", func(c *psql.FuncContext) (psql.Datum, error) {
		calls++
		return psql.Datum{Kind: psql.KindInt, Int: 1}, nil
	})
	// Written with the function first: planner order must still put the
	// equality test first.
	res, err := db.Query(`select city from cities
	                      where expensive(population) = 1 and city = 'Boston'`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("rows = %d, want 1", res.Len())
	}
	if calls != 1 {
		t.Errorf("expensive() called %d times; conjunct reordering should gate it to 1", calls)
	}
}

// TestConcurrentRunStress hammers one shared executor from many
// goroutines mixing cached queries and function re-registration. Run
// under -race (make check) it verifies the statement cache, function
// registry, and read path are safe to share; results are also checked
// against a precomputed answer.
func TestConcurrentRunStress(t *testing.T) {
	db := usdb(t)
	queries := []string{
		`select city from cities on us-map at loc covered-by {800±200, 500±500}`,
		`select city, zone from cities, time-zones on us-map, time-zone-map
		 at cities.loc covered-by time-zones.loc`,
		`select city from cities where population > 1_000_000`,
		`select count(*) from cities on us-map at loc covered-by eastern-us`,
	}
	want := make([]*pictdb.Result, len(queries))
	for i, q := range queries {
		res, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}

	const goroutines = 8
	const iters = 30
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				qi := (g + i) % len(queries)
				res, err := db.Query(queries[qi])
				if err != nil {
					errs[g] = err
					return
				}
				if len(res.Rows) != len(want[qi].Rows) {
					errs[g] = fmt.Errorf("goroutine %d iter %d: %d rows, want %d",
						g, i, len(res.Rows), len(want[qi].Rows))
					return
				}
				if i%7 == 0 {
					name := fmt.Sprintf("f%d", g)
					db.RegisterFunc(name, func(c *psql.FuncContext) (psql.Datum, error) {
						return psql.Datum{Kind: psql.KindInt, Int: int64(i)}, nil
					})
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	stats := db.CacheStats()
	if stats.Hits == 0 {
		t.Error("concurrent stress recorded no cache hits")
	}
}

// TestBoundStatementRevalidation runs one set of statement texts before
// and after everything that can change what a cached statement was
// bound to or priced from — a new B-tree, a second picture, a repack
// (explicit and the background swap), an insert and a delete inside the
// window, a named location redefined, a called function replaced — and
// each time demands the naive executor's rows and, byte for byte, the
// plan and visit count a fresh Executor (no cache, nothing bound)
// reports for the same text.
func TestBoundStatementRevalidation(t *testing.T) {
	db := evaluationOrderDB(t, 1)
	pts, _ := db.Relation("pts")
	m, _ := db.Picture("m")
	if err := db.DefineLocation("hot", pictdb.R(300, 300, 700, 700)); err != nil {
		t.Fatal(err)
	}
	height := func(c *psql.FuncContext) (psql.Datum, error) {
		return psql.Datum{Kind: psql.KindFloat, Float: c.Args[0].Rect.Min.Y}, nil
	}
	texts := []string{
		`select n, name from pts on m at loc covered-by {500±200, 500±200} where v = 7`,
		`select n from pts on m at loc covered-by hot where v > 50`,
		`select n, height(loc) from pts on m at loc covered-by {500±200, 500±200} where height(loc) < 600 and v > 10`,
		`select n from pts where v = 7`,
		`select n from pts on m at loc covered-by
		   (select zones.loc from zones on zm at zones.loc overlapping {500±100, 500±100}) where v < 5`,
	}
	plans := map[string]string{}
	check := func(step string) {
		t.Helper()
		fresh := psql.NewExecutor(db)
		fresh.RegisterFunc("height", height)
		for _, q := range texts {
			want, err := fresh.Run(q)
			if err != nil {
				t.Fatalf("%s: fresh executor: %s: %v", step, q, err)
			}
			naive, err := db.QueryNaive(q)
			if err != nil {
				t.Fatalf("%s: naive: %s: %v", step, q, err)
			}
			for run := 0; run < 2; run++ {
				got, err := db.Query(q)
				if err != nil {
					t.Fatalf("%s: %s: %v", step, q, err)
				}
				label := fmt.Sprintf("%s (run %d): %s", step, run, q)
				sameRows(t, label, got, naive)
				if !reflect.DeepEqual(got.Plan, want.Plan) || got.NodesVisited != want.NodesVisited {
					t.Fatalf("%s:\ncached plan %q (%d nodes)\n fresh plan %q (%d nodes)", label, got.Plan, got.NodesVisited, want.Plan, want.NodesVisited)
				}
			}
			plans[q] = strings.Join(want.Plan, " | ")
		}
	}
	// moved demands that the step just taken changed what text i reports:
	// a step that moves nothing tests nothing.
	moved := func(step string, i int, before string) {
		t.Helper()
		if plans[texts[i]] == before {
			t.Errorf("%s left the plan of %s as it was: %s", step, texts[i], before)
		}
	}
	add := func(n int64, x, y float64, v int64) storage.TupleID {
		t.Helper()
		oid := m.AddPoint("", pictdb.Pt(x, y))
		id, err := pts.Insert(pictdb.Tuple{pictdb.I(n), pictdb.S(fmt.Sprintf("p%04d", n)), pictdb.I(v), pictdb.L("m", oid)})
		if err != nil {
			t.Fatal(err)
		}
		return id
	}

	check("as built")
	before0, before3 := plans[texts[0]], plans[texts[3]]
	if err := pts.CreateIndex("v"); err != nil {
		t.Fatal(err)
	}
	check("after CreateIndex")
	moved("CreateIndex", 0, before0)
	moved("CreateIndex", 3, before3)

	m2, err := db.CreatePicture("m2", pictdb.R(0, 0, 1000, 1000))
	if err != nil {
		t.Fatal(err)
	}
	if err := pts.AttachPicture(m2, pictdb.PackOptions{Method: pictdb.PackHilbert}); err != nil {
		t.Fatal(err)
	}
	check("after AttachPicture of a second picture")

	// The repack empties the write side, so each of the nested
	// mapping's nine windows stops paying for its delta nodes. (The
	// one-window texts happen to price the same before and after: the
	// window's share of the nodes the packed tree gains costs what the
	// delta nodes did.)
	before4 := plans[texts[4]]
	for _, si := range pts.Spatials("m") {
		si.RepackNow(false)
	}
	check("after an explicit repack")
	moved("an explicit repack", 4, before4)

	before1 := plans[texts[1]]
	id := add(9000, 510, 490, 7)
	check("after an insert into the window")
	moved("an insert", 1, before1)
	before1 = plans[texts[1]]
	if err := pts.Delete(id); err != nil {
		t.Fatal(err)
	}
	check("after a delete from the window")
	moved("a delete", 1, before1)

	// A background repack: the write side crosses its threshold and the
	// repacker swaps a merged tree in.
	before1 = plans[texts[1]]
	si := pts.Spatials("m")[0]
	repacks := si.Repacks()
	si.SetDeltaThreshold(8)
	for i := int64(0); i < 16; i++ {
		add(9100+i, 400+float64(i)*10, 600, 60)
	}
	pts.WaitRepacks()
	if si.Repacks() == repacks {
		t.Fatal("the write side crossed its threshold and no repack ran")
	}
	check("after a background repack swap")
	moved("a background repack", 1, before1)

	before1 = plans[texts[1]]
	if err := db.DefineLocation("hot", pictdb.R(100, 100, 900, 900)); err != nil {
		t.Fatal(err)
	}
	check("after DefineLocation redefined the window")
	moved("DefineLocation", 1, before1)

	height = func(c *psql.FuncContext) (psql.Datum, error) {
		return psql.Datum{Kind: psql.KindFloat, Float: 1000 - c.Args[0].Rect.Min.Y}, nil
	}
	db.RegisterFunc("height", height)
	check("after RegisterFunc replaced height")
}

// TestBoundStatementSharedByGoroutines executes one cached text from 8
// goroutines while a writer inserts into its window, a B-tree is
// created on the column it tests, and a picture and a location are
// defined: the bound statement the readers share must be
// read-only once published, and replacing it must not tear a reader's
// view. Run under -race (make check); every answer is also checked
// against what the writer can have left.
func TestBoundStatementSharedByGoroutines(t *testing.T) {
	db := evaluationOrderDB(t, 1)
	pts, _ := db.Relation("pts")
	m, _ := db.Picture("m")
	const q = `select n, v from pts on m at loc covered-by {500±250, 500±250} where v > 40`
	base, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	const added = 40
	var wg sync.WaitGroup
	done := make(chan struct{})
	fail := make(chan error, 16) // at most one per goroutine started below
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					if i >= 20 {
						return
					}
				default:
				}
				res, err := db.Query(q)
				if err != nil {
					fail <- err
					return
				}
				if n := len(res.Rows); n < len(base.Rows) || n > len(base.Rows)+added {
					fail <- fmt.Errorf("%d rows, the writer leaves between %d and %d", n, len(base.Rows), len(base.Rows)+added)
					return
				}
				for _, r := range res.Rows {
					if r[1].Int <= 40 {
						fail <- fmt.Errorf("row %v passed v > 40", r)
						return
					}
				}
			}
		}()
	}
	var defs sync.WaitGroup
	defs.Add(2)
	go func() { // the writer
		defer defs.Done()
		for i := int64(0); i < added; i++ {
			oid := m.AddPoint("", pictdb.Pt(400+float64(i)*5, 500))
			if _, err := pts.Insert(pictdb.Tuple{pictdb.I(5000 + i), pictdb.S("w"), pictdb.I(90), pictdb.L("m", oid)}); err != nil {
				fail <- err
				return
			}
		}
	}()
	go func() { // the definitions
		defer defs.Done()
		if err := pts.CreateIndex("v"); err != nil {
			fail <- err
			return
		}
		for i := 0; i < 10; i++ {
			if _, err := db.CreatePicture(fmt.Sprintf("extra%d", i), pictdb.R(0, 0, 10, 10)); err != nil {
				fail <- err
				return
			}
			if err := db.DefineLocation(fmt.Sprintf("spot%d", i), pictdb.R(0, 0, float64(i+1), 1)); err != nil {
				fail <- err
				return
			}
		}
	}()
	defs.Wait()
	close(done)
	wg.Wait()
	close(fail)
	for err := range fail {
		t.Error(err)
	}
	after, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := db.QueryNaive(q)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, "after the writers", after, naive)
	if len(after.Rows) != len(base.Rows)+added {
		t.Errorf("%d rows after the writers, want %d", len(after.Rows), len(base.Rows)+added)
	}
}
