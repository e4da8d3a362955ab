package psql_test

import (
	"fmt"
	"strings"
	"testing"

	pictdb "repro"
	"repro/internal/storage"
)

// corpusPlans runs oracleCorpus and returns each statement's plan
// notes (access path and cost estimates), one joined line per query.
func corpusPlans(t *testing.T, db *pictdb.Database) []string {
	t.Helper()
	out := make([]string, len(oracleCorpus))
	for i, q := range oracleCorpus {
		res, err := db.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		out[i] = strings.Join(res.Plan, " | ")
	}
	return out
}

// TestPlanChoiceOnOracleCorpus pins the planner's choice and estimates
// over the oracle corpus, on the freshly packed US database and again
// with a warm write side (delta-tree entries and tombstones the cost
// snapshot must price). packedPlans was recorded at the commit before
// the planner's in-place drift branch and the pending-write counters
// were removed and has not moved since. warmPlans was re-pinned when
// the L0 buffer was deleted: the 40 pending inserts now sit in a
// 3-node delta tree (a root over two leaves) instead of a buffer the
// snapshot priced at zero nodes, so every direct-search estimate rose
// by exactly 3.0 (43.7 to 46.7) and the cities side of the
// juxtaposition by exactly 3 nodes (16 to 19); no access path and no
// driving side changed. Those first 13 lines have no juxtaposition with
// a where-clause and did not move when restrict.go landed; the lines
// after them pin the restricted juxtapositions it added to the corpus:
// the side restricted, the survivors, the three estimates, and the
// join algorithm taken. Queries 0, 4, 12, 13, 15, 17 and 22 of both
// lists were re-pinned when every spatial index became Hilbert-packed
// (the US database was packed nearest-neighbour before): Hilbert packs
// these 48 cities looser, so their direct-search and batched-probe
// estimates rose (25.8 to 29.8 packed, 46.7 to 52.9 warm); no access
// path, restriction, join algorithm or driving side changed. The same
// queries were re-pinned when the planner stopped pricing leaf overlap
// (the factor 1 + O/C on a window's visited fraction), and again only
// their estimates fell: packed, direct search 29.8 to 27.4 (queries 0,
// 4, 12) and the batched probe 22.9 to 21.1 (13), 26.9 to 24.8 (15),
// 86.0 to 79.3 (17) and 36.2 to 33.4 (22); warm, direct search 52.9 to
// 48.9 (0, 4, 12) and the batched probe 42.5 to 39.4 (13), 42.4 to 39.3
// (15), 146.6 to 135.9 (17) and 61.7 to 57.3 (22).
func TestPlanChoiceOnOracleCorpus(t *testing.T) {
	db := usdb(t)
	check := func(state string, want []string) {
		t.Helper()
		plans := corpusPlans(t, db)
		if len(plans) != len(want) {
			t.Fatalf("%s: %d statements, %d pinned plans", state, len(plans), len(want))
		}
		for i, got := range plans {
			if got != want[i] {
				t.Errorf("%s, query %d:\n got %s\nwant %s", state, i, got, want[i])
			}
		}
	}
	check("packed", packedPlans)

	cities, _ := db.Relation("cities")
	usMap, _ := db.Picture("us-map")
	var ids []storage.TupleID
	if err := cities.Scan(func(id storage.TupleID, _ pictdb.Tuple) bool {
		ids = append(ids, id)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(ids); i += 7 {
		if err := cities.Delete(ids[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		name := fmt.Sprintf("newcity-%02d", i)
		oid := usMap.AddPoint(name, pictdb.Pt(float64((i*137+11)%1000), float64((i*211+7)%1000)))
		if _, err := cities.Insert(pictdb.Tuple{
			pictdb.S(name), pictdb.S("NX"), pictdb.I(int64(100_000 + (i%10)*100_000)), pictdb.L("us-map", oid),
		}); err != nil {
			t.Fatal(err)
		}
	}
	check("warm write side", warmPlans)
}

var packedPlans = []string{
	`cost: direct spatial search (est 27.4) kept over B-tree on cities.population (est 37.3) | direct spatial search: R-tree of "cities" on "us-map", 1 window(s), covered-by`,
	`direct spatial search: R-tree of "cities" on "us-map", 1 window(s), covering`,
	`direct spatial search: R-tree of "cities" on "us-map", 1 window(s), overlapping`,
	`direct spatial search: R-tree of "cities" on "us-map", 1 window(s), disjoined`,
	`index lookup: B-tree on cities.city (=) drives the at-clause (est 10.4 vs direct 27.4)`,
	`juxtaposition: simultaneous R-tree traversal of "cities" and "time-zones" (covered-by), driving "cities" (16 vs 1 nodes)`,
	`juxtaposition: simultaneous R-tree traversal of "time-zones" and "cities" (covering), driving "cities" (1 vs 16 nodes)`,
	`direct spatial search: R-tree of "lakes" on "lake-map", 15 window(s), covered-by | nested: direct spatial search: R-tree of "states" on "state-map", 1 window(s), overlapping`,
	`index lookup: B-tree on cities.population (>) (est 37.3 vs scan 48.0)`,
	`index lookup: B-tree on cities.population (>) (est 37.3 vs scan 48.0)`,
	`scan: full scan of 1 relation(s)`,
	`direct spatial search: R-tree of "cities" on "us-map", 1 window(s), covered-by`,
	`cost: direct spatial search (est 27.4) kept over B-tree on cities.population (est 37.3) | direct spatial search: R-tree of "cities" on "us-map", 1 window(s), covered-by`,
	// Juxtapositions with a where-clause, pinned when restrict.go landed.
	`juxtaposition restriction: "time-zones" reduced to 1 of 4 tuple(s) by 1 where-term(s), heap scan (est 4.0 vs traversal 18.0) | cost: traversal (est 18.0) kept over batched direct search from the 1 surviving "time-zones" MBR(s) (est 21.1) | juxtaposition: simultaneous R-tree traversal of "cities" and "time-zones" (covered-by), driving "cities" (16 vs 1 nodes)`,
	`juxtaposition restriction: "cities" reduced to 1 of 48 tuple(s) by 1 where-term(s), B-tree on cities.city (=) (est 10.4 vs traversal 18.0) | juxtaposition: batched direct search of "time-zones" from the 1 surviving "cities" MBR(s) (covered-by) (est 5.0 vs traversal 18.0)`,
	`cost: traversal (est 18.0) kept over restricting "cities" (est 48.0) | juxtaposition restriction: "time-zones" reduced to 1 of 4 tuple(s) by 1 where-term(s), heap scan (est 4.0 vs traversal 18.0) | cost: traversal (est 18.0) kept over batched direct search from the 1 surviving "time-zones" MBR(s) (est 24.8) | juxtaposition: simultaneous R-tree traversal of "cities" and "time-zones" (covered-by), driving "cities" (16 vs 1 nodes)`,
	`juxtaposition restriction: "cities" reduced to 1 of 48 tuple(s) by 1 where-term(s), B-tree on cities.city (=) (est 10.4 vs traversal 18.0) | juxtaposition restriction: "time-zones" reduced to 1 of 4 tuple(s) by 1 where-term(s), heap scan (est 4.0 vs traversal 18.0) | juxtaposition: batched direct search of "time-zones" from the 1 surviving "cities" MBR(s) (covered-by) (est 5.0 vs traversal 18.0)`,
	`cost: traversal (est 18.0) kept over restricting "cities" (est 37.3) | juxtaposition restriction: "time-zones" reduced to 4 of 4 tuple(s) by 1 where-term(s), heap scan (est 4.0 vs traversal 18.0) | cost: traversal (est 18.0) kept over batched direct search from the 4 surviving "time-zones" MBR(s) (est 79.3) | juxtaposition: simultaneous R-tree traversal of "cities" and "time-zones" (covered-by), driving "cities" (16 vs 1 nodes)`,
	`juxtaposition: simultaneous R-tree traversal of "cities" and "time-zones" (covered-by), driving "cities" (16 vs 1 nodes)`,
	`juxtaposition: simultaneous R-tree traversal of "cities" and "time-zones" (covered-by), driving "cities" (16 vs 1 nodes)`,
	`juxtaposition restriction: "cities" reduced to 6 of 48 tuple(s) by 1 where-term(s), B-tree on cities.population (>) (est 37.3) | juxtaposition restriction: "time-zones" reduced to 1 of 4 tuple(s) by 1 where-term(s), heap scan (est 4.0) | juxtaposition: nested loop of "cities" and "time-zones" (disjoined admits no pruning)`,
	`juxtaposition restriction: "cities" reduced to 1 of 48 tuple(s) by 1 where-term(s), B-tree on cities.city (=) (est 10.4 vs traversal 18.0) | juxtaposition: batched direct search of "time-zones" from the 1 surviving "cities" MBR(s) (covering) (est 5.0 vs traversal 18.0)`,
	`juxtaposition restriction: "time-zones" reduced to 2 of 4 tuple(s) by 1 where-term(s), heap scan (est 4.0 vs traversal 18.0) | cost: traversal (est 18.0) kept over batched direct search from the 2 surviving "time-zones" MBR(s) (est 33.4) | juxtaposition: simultaneous R-tree traversal of "time-zones" and "cities" (covering), driving "cities" (1 vs 16 nodes)`,
}

var warmPlans = []string{
	`cost: direct spatial search (est 48.9) kept over B-tree on cities.population (est 59.8) | direct spatial search: R-tree of "cities" on "us-map", 1 window(s), covered-by`,
	`direct spatial search: R-tree of "cities" on "us-map", 1 window(s), covering`,
	`direct spatial search: R-tree of "cities" on "us-map", 1 window(s), overlapping`,
	`direct spatial search: R-tree of "cities" on "us-map", 1 window(s), disjoined`,
	`index lookup: B-tree on cities.city (=) drives the at-clause (est 14.5 vs direct 48.9)`,
	`juxtaposition: simultaneous R-tree traversal of "cities" and "time-zones" (covered-by), driving "cities" (19 vs 1 nodes)`,
	`juxtaposition: simultaneous R-tree traversal of "time-zones" and "cities" (covering), driving "cities" (1 vs 19 nodes)`,
	`direct spatial search: R-tree of "lakes" on "lake-map", 15 window(s), covered-by | nested: direct spatial search: R-tree of "states" on "state-map", 1 window(s), overlapping`,
	`index lookup: B-tree on cities.population (>) (est 59.8 vs scan 81.0)`,
	`index lookup: B-tree on cities.population (>) (est 59.8 vs scan 81.0)`,
	`scan: full scan of 1 relation(s)`,
	`direct spatial search: R-tree of "cities" on "us-map", 1 window(s), covered-by`,
	`cost: direct spatial search (est 48.9) kept over B-tree on cities.population (est 59.8) | direct spatial search: R-tree of "cities" on "us-map", 1 window(s), covered-by`,
	// Juxtapositions with a where-clause, pinned when restrict.go landed.
	`juxtaposition restriction: "time-zones" reduced to 1 of 4 tuple(s) by 1 where-term(s), heap scan (est 4.0 vs traversal 21.0) | cost: traversal (est 21.0) kept over batched direct search from the 1 surviving "time-zones" MBR(s) (est 39.4) | juxtaposition: simultaneous R-tree traversal of "cities" and "time-zones" (covered-by), driving "cities" (19 vs 1 nodes)`,
	`juxtaposition restriction: "cities" reduced to 1 of 81 tuple(s) by 1 where-term(s), B-tree on cities.city (=) (est 14.5 vs traversal 21.0) | juxtaposition: batched direct search of "time-zones" from the 1 surviving "cities" MBR(s) (covered-by) (est 5.0 vs traversal 21.0)`,
	`cost: traversal (est 21.0) kept over restricting "cities" (est 81.0) | juxtaposition restriction: "time-zones" reduced to 1 of 4 tuple(s) by 1 where-term(s), heap scan (est 4.0 vs traversal 21.0) | cost: traversal (est 21.0) kept over batched direct search from the 1 surviving "time-zones" MBR(s) (est 39.3) | juxtaposition: simultaneous R-tree traversal of "cities" and "time-zones" (covered-by), driving "cities" (19 vs 1 nodes)`,
	`juxtaposition restriction: "cities" reduced to 1 of 81 tuple(s) by 1 where-term(s), B-tree on cities.city (=) (est 14.5 vs traversal 21.0) | juxtaposition restriction: "time-zones" reduced to 1 of 4 tuple(s) by 1 where-term(s), heap scan (est 4.0 vs traversal 21.0) | juxtaposition: batched direct search of "time-zones" from the 1 surviving "cities" MBR(s) (covered-by) (est 5.0 vs traversal 21.0)`,
	`cost: traversal (est 21.0) kept over restricting "cities" (est 59.8) | juxtaposition restriction: "time-zones" reduced to 4 of 4 tuple(s) by 1 where-term(s), heap scan (est 4.0 vs traversal 21.0) | cost: traversal (est 21.0) kept over batched direct search from the 4 surviving "time-zones" MBR(s) (est 135.9) | juxtaposition: simultaneous R-tree traversal of "cities" and "time-zones" (covered-by), driving "cities" (19 vs 1 nodes)`,
	`juxtaposition: simultaneous R-tree traversal of "cities" and "time-zones" (covered-by), driving "cities" (19 vs 1 nodes)`,
	`juxtaposition: simultaneous R-tree traversal of "cities" and "time-zones" (covered-by), driving "cities" (19 vs 1 nodes)`,
	`juxtaposition restriction: "cities" reduced to 5 of 81 tuple(s) by 1 where-term(s), B-tree on cities.population (>) (est 59.8) | juxtaposition restriction: "time-zones" reduced to 1 of 4 tuple(s) by 1 where-term(s), heap scan (est 4.0) | juxtaposition: nested loop of "cities" and "time-zones" (disjoined admits no pruning)`,
	`juxtaposition restriction: "cities" reduced to 1 of 81 tuple(s) by 1 where-term(s), B-tree on cities.city (=) (est 14.5 vs traversal 21.0) | juxtaposition: batched direct search of "time-zones" from the 1 surviving "cities" MBR(s) (covering) (est 5.0 vs traversal 21.0)`,
	`juxtaposition restriction: "time-zones" reduced to 2 of 4 tuple(s) by 1 where-term(s), heap scan (est 4.0 vs traversal 21.0) | cost: traversal (est 21.0) kept over batched direct search from the 2 surviving "time-zones" MBR(s) (est 57.3) | juxtaposition: simultaneous R-tree traversal of "time-zones" and "cities" (covering), driving "cities" (1 vs 19 nodes)`,
}
