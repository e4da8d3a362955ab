package psql_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	pictdb "repro"
	"repro/internal/psql"
)

const citiesInZones = `select city, zone from cities, time-zones on us-map, time-zone-map
	at cities.loc covered-by time-zones.loc `

// juxtapositionErrors are juxtapositions whose where-clause must fail,
// with the text both executors must fail with. A term that can error is
// never evaluated ahead of the join, and a pushable term ranked behind
// one is not either, so restricting a side changes neither whether a
// statement errors nor what it says.
var juxtapositionErrors = []struct{ where, want string }{
	// A literal of the wrong type.
	{`where time-zones.zone = 5`, `cannot compare string with int`},
	{`where cities.population > 'many'`, `cannot compare int with string`},
	// Behind a pushed term: the survivors' rows still reach it.
	{`where city = 'Boston' and time-zones.zone = 5`, `cannot compare string with int`},
	// An unqualified column both relations have.
	{`where loc = 'here'`, `column "loc" is ambiguous; qualify it`},
	{`where loc = 'here' and zone = 'Eastern'`, `column "loc" is ambiguous; qualify it`},
	// Names that resolve to nothing.
	{`where nowhere.zone = 'Eastern'`, `unknown relation "nowhere"`},
	{`where cities.zone = 'Eastern'`, `relation "cities" has no column "zone"`},
	{`where altitude > 5`, `unknown column "altitude"`},
	// A function that fails, ranked behind the term that is pushed.
	{`where zone = 'Eastern' and nosuchfunc(city) = 1`, `unknown function "nosuchfunc"`},
}

// TestJuxtapositionErrorParity runs every failing where-clause under an
// intersecting and a disjoined at-clause, planned and naive.
func TestJuxtapositionErrorParity(t *testing.T) {
	db := usdb(t)
	for _, c := range juxtapositionErrors {
		for _, q := range []string{citiesInZones + c.where, strings.Replace(citiesInZones, "covered-by", "disjoined", 1) + c.where} {
			_, perr := db.Query(q)
			_, nerr := db.QueryNaive(q)
			if perr == nil || nerr == nil {
				t.Fatalf("%s: planned error %v, naive error %v, want both", q, perr, nerr)
			}
			if perr.Error() != nerr.Error() {
				t.Errorf("%s:\nplanned %v\n  naive %v", q, perr, nerr)
			}
			if !strings.Contains(perr.Error(), c.want) {
				t.Errorf("%s: error %q does not mention %q", q, perr, c.want)
			}
		}
	}
}

// TestDisjoinedJuxtapositionHonorsMaxProductRows: a disjoined
// juxtaposition is an unindexed product, and both executors refuse one
// whose qualifying pairs — counted after the one-relation where-terms —
// pass the cap on unindexed products, with the same error.
func TestDisjoinedJuxtapositionHonorsMaxProductRows(t *testing.T) {
	db := usdb(t)
	e := psql.NewExecutor(db)
	restore := psql.SetMaxProductRows(20)
	defer restore()
	disjoined := `select city, zone from cities, time-zones on us-map, time-zone-map
		at cities.loc disjoined time-zones.loc `

	// 48 cities × 4 zones: 144 disjoint pairs.
	_, perr := e.Run(disjoined)
	_, nerr := e.RunNaive(disjoined)
	if perr == nil || nerr == nil {
		t.Fatalf("over the limit: planned error %v, naive error %v, want both", perr, nerr)
	}
	if perr.Error() != nerr.Error() || !strings.Contains(perr.Error(), "exceeds 20 rows") {
		t.Fatalf("over the limit:\nplanned %v\n  naive %v", perr, nerr)
	}

	// Restricted under the limit, it runs, and the limit counts pairs,
	// not rows left after the rest of the where-clause.
	for _, where := range []string{
		`where city = 'Boston'`,
		`where zone = 'Pacific' and population > 1_000_000`,
	} {
		planned, err := e.Run(disjoined + where)
		if err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		naive, err := e.RunNaive(disjoined + where)
		if err != nil {
			t.Fatalf("%s naive: %v", where, err)
		}
		sameRows(t, where, planned, naive)
		if planned.Len() == 0 || planned.Len() > 20 {
			t.Fatalf("%s: %d rows, want 1..20", where, planned.Len())
		}
	}
	// 39 pairs pass the pushed term; the function term would leave 2
	// but runs after the cap.
	over := disjoined + `where zone = 'Pacific' and distance(cities.loc, {640±0, 378±0}) < 100`
	_, perr = e.Run(over)
	_, nerr = e.RunNaive(over)
	if perr == nil || nerr == nil || perr.Error() != nerr.Error() {
		t.Fatalf("pairs over, rows under the limit:\nplanned %v\n  naive %v", perr, nerr)
	}

	// The default limit leaves the same statement alone.
	restore()
	if _, err := db.Query(disjoined); err != nil {
		t.Fatal(err)
	}
}

// TestRestrictedJuxtapositionEqualsNestedMapping: restricting one side
// of a juxtaposition and probing from its survivors is the nested
// mapping with the planner binding the inner result, so the two
// statements select the same tuples of the probed relation.
func TestRestrictedJuxtapositionEqualsNestedMapping(t *testing.T) {
	db, _, _, _ := ptsAndRects(t, rand.New(rand.NewSource(17)), 600, 60, 12, false)
	ns := func(res *pictdb.Result) []int64 {
		seen := map[int64]bool{}
		var out []int64
		for _, r := range res.Rows {
			if !seen[r[0].Int] {
				seen[r[0].Int] = true
				out = append(out, r[0].Int)
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	nonEmpty := 0
	for k := 0; k < 12; k++ {
		joined, err := db.Query(fmt.Sprintf(`select n from pts, rects on pmap, rmap
			at pts.loc covered-by rects.loc where rects.kind = %d`, k))
		if err != nil {
			t.Fatal(err)
		}
		if plan := strings.Join(joined.Plan, " | "); !strings.Contains(plan, "juxtaposition: batched direct search") {
			t.Fatalf("kind %d: the juxtaposition did not probe from its survivors: %s", k, plan)
		}
		nested, err := db.Query(fmt.Sprintf(`select n from pts on pmap
			at loc covered-by (select loc from rects where kind = %d)`, k))
		if err != nil {
			// A nested mapping with no rows is an error, a join is empty.
			if joined.Len() == 0 && strings.Contains(err.Error(), "produced no locations") {
				continue
			}
			t.Fatal(err)
		}
		got, want := ns(joined), ns(nested)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("kind %d: juxtaposition selects pts %v, nested mapping %v", k, got, want)
		}
		if len(got) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty == 0 {
		t.Fatal("vacuous: no kind selected a point")
	}
}
