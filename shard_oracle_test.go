package pictdb_test

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	pictdb "repro"
)

// The chained-heap oracle: a PSQL query over a database whose relations
// are reopened over heaps of n chains — the layout a file written when
// they had n stores reopens to (Database.Rechain) — must return the rows
// the same query returns over the database they were built as, at every
// chain count. A tuple's id is its heap address, so an answer's default
// order (ascending id) follows each database's own layout: across chain
// counts rows are compared as multisets, and row for row only under an
// order by that is total on them. Each database is also held row for
// row against its own naive full-scan executor, so a planner bug on one
// layout cannot hide behind a matching naive divergence. The tests are
// named for the store counts the chains stand for.

// shardOrderedQueries end in an order by that is a total order on their
// rows.
var shardOrderedQueries = map[string]string{
	"direct-ordered": `
		select city, state, population, loc from cities on us-map
		at loc covered-by {800±200, 500±500} where population > 450_000
		order by population desc, city, state`,
	"juxtaposition-ordered": `
		select city, zone from cities, time-zones on us-map, time-zone-map
		at cities.loc covered-by time-zones.loc order by zone, city`,
}

// assertSameRows requires got and want to hold the same columns, the
// same rows and the same loc pointers, each counted with multiplicity,
// in any order.
func assertSameRows(t *testing.T, label string, got, want *pictdb.Result) {
	t.Helper()
	if !slices.Equal(got.Columns, want.Columns) {
		t.Fatalf("%s: columns %v, want %v", label, got.Columns, want.Columns)
	}
	keys := func(r *pictdb.Result) (rows, locs []string) {
		for _, row := range r.Rows {
			cells := make([]string, len(row))
			for i, d := range row {
				cells[i] = d.String()
			}
			rows = append(rows, strings.Join(cells, "\x00"))
		}
		for _, l := range r.Locs {
			locs = append(locs, fmt.Sprint(l))
		}
		slices.Sort(rows)
		slices.Sort(locs)
		return rows, locs
	}
	gotRows, gotLocs := keys(got)
	wantRows, wantLocs := keys(want)
	if !slices.Equal(gotRows, wantRows) {
		t.Fatalf("%s: rows differ\n got %q\nwant %q", label, gotRows, wantRows)
	}
	if !slices.Equal(gotLocs, wantLocs) {
		t.Fatalf("%s: locs differ\n got %v\nwant %v", label, gotLocs, wantLocs)
	}
}

// verifyChainedAgainstBuilt runs every planner access path on both
// databases, requiring (a) each database's planned answer == its naive
// one, row for row, and (b) chained planned == built planned, as
// multisets, and row for row under shardOrderedQueries' order by; and
// (c) on each database, a batch of windows finds what the windows find
// one at a time (assertBatchMatchesSingles).
func verifyChainedAgainstBuilt(t *testing.T, sdb, udb *pictdb.Database, stage string) {
	t.Helper()
	queries := maps.Clone(lsmQueries)
	maps.Copy(queries, shardOrderedQueries)
	for name, q := range queries {
		label := stage + "/" + name
		results := make([]*pictdb.Result, 2)
		for i, db := range []*pictdb.Database{sdb, udb} {
			got, err := db.Query(q)
			if err != nil {
				t.Fatalf("%s: db %d: %v", label, i, err)
			}
			naive, err := db.QueryNaive(q)
			if err != nil {
				t.Fatalf("%s: db %d naive: %v", label, i, err)
			}
			assertSameResult(t, fmt.Sprintf("%s [db %d vs naive]", label, i), got, naive)
			results[i] = got
		}
		got, want := results[0], results[1]
		if _, ordered := shardOrderedQueries[name]; ordered {
			assertSameResult(t, label+" [vs built]", got, want)
		} else {
			assertSameRows(t, label+" [vs built]", got, want)
		}
		if name != "direct-disjoined" && got.Len() == 0 {
			t.Fatalf("%s: vacuous — zero rows everywhere", label)
		}
	}
	for i, db := range []*pictdb.Database{sdb, udb} {
		for _, reln := range []struct{ rel, pic string }{{"cities", "us-map"}, {"time-zones", "time-zone-map"}} {
			rel, _ := db.Relation(reln.rel)
			assertBatchMatchesSingles(t, fmt.Sprintf("%s/batch %s [db %d]", stage, reln.rel, i), rel, reln.pic)
		}
	}
}

// TestShardedQueryOracle holds BuildUSDatabase reopened over heaps of
// k chains against BuildUSDatabase for k in {1,2,4,8}: pristine packed
// build, then with live deltas and tombstones, then after repacking
// every tree.
func TestShardedQueryOracle(t *testing.T) {
	for _, k := range []int{1, 2, 4, 8} {
		k := k
		t.Run(fmt.Sprintf("shards=%d", k), func(t *testing.T) {
			sdb, err := pictdb.BuildUSDatabase()
			if err != nil {
				t.Fatal(err)
			}
			defer sdb.Close()
			if err := sdb.Rechain(k); err != nil {
				t.Fatal(err)
			}
			udb, err := pictdb.BuildUSDatabase()
			if err != nil {
				t.Fatal(err)
			}
			defer udb.Close()

			cities, _ := sdb.Relation("cities")
			if n := len(cities.HeapChains()); n != k {
				t.Fatalf("cities has %d chains, want %d", n, k)
			}
			verifyChainedAgainstBuilt(t, sdb, udb, "pristine")

			mutateUS(t, sdb)
			mutateUS(t, udb)
			// The mutation must actually exercise the merged read path.
			deltas, tombs := 0, 0
			for _, si := range cities.Spatials("us-map") {
				deltas += si.DeltaLen()
				tombs += si.TombstoneCount()
			}
			if deltas == 0 || tombs == 0 {
				t.Fatalf("mutation left no delta state: delta=%d tombstones=%d", deltas, tombs)
			}
			verifyChainedAgainstBuilt(t, sdb, udb, "delta-live")

			// Collapse every write side and re-verify from the swapped
			// roots.
			for _, db := range []*pictdb.Database{sdb, udb} {
				for _, reln := range []struct{ rel, pic string }{
					{"cities", "us-map"}, {"time-zones", "time-zone-map"},
				} {
					rel, _ := db.Relation(reln.rel)
					for _, si := range rel.Spatials(reln.pic) {
						si.RepackNow(false)
					}
				}
			}
			for _, si := range cities.Spatials("us-map") {
				if si.DeltaLen() != 0 || si.TombstoneCount() != 0 {
					t.Fatalf("repack left delta state")
				}
			}
			verifyChainedAgainstBuilt(t, sdb, udb, "repacked")
		})
	}
}
