package pictdb_test

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	pictdb "repro"
)

// The sharded oracle: a PSQL query over a database whose relations
// have n stores must return the rows the same query returns over the
// one-store database, at every store count. A tuple's id is its heap
// address, so an answer's default order (ascending id) follows each
// database's own layout: across store counts rows are compared as
// multisets, and row for row only under an order by that is total on
// them. Each database is also held row for row against its own naive
// full-scan executor, so a sharded-specific planner bug cannot hide
// behind a matching naive divergence.

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

// verifyShardedAgainstUnsharded runs every planner access path on both
// databases, requiring (a) each database's planned answer == its naive
// one, row for row, and (b) sharded planned == unsharded planned, as
// multisets, and row for row under shardOrderedQueries' order by.
func verifyShardedAgainstUnsharded(t *testing.T, sdb, udb *pictdb.Database, stage string) {
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
			assertSameResult(t, label+" [vs unsharded]", got, want)
		} else {
			assertSameRows(t, label+" [vs unsharded]", got, want)
		}
		if name != "direct-disjoined" && got.Len() == 0 {
			t.Fatalf("%s: vacuous — zero rows everywhere", label)
		}
	}
}

// TestShardedQueryOracle holds BuildUSDatabaseSharded(k) against
// BuildUSDatabase for k in {1,2,4,8}: pristine packed build, then with
// live per-shard deltas and tombstones, then after repacking every
// shard tree.
func TestShardedQueryOracle(t *testing.T) {
	for _, k := range []int{1, 2, 4, 8} {
		k := k
		t.Run(fmt.Sprintf("shards=%d", k), func(t *testing.T) {
			sdb, err := pictdb.BuildUSDatabaseSharded(k)
			if err != nil {
				t.Fatal(err)
			}
			defer sdb.Close()
			udb, err := pictdb.BuildUSDatabase()
			if err != nil {
				t.Fatal(err)
			}
			defer udb.Close()

			cities, _ := sdb.Relation("cities")
			if cities.ShardCount() != k {
				t.Fatalf("cities has %d stores, want %d", cities.ShardCount(), k)
			}
			verifyShardedAgainstUnsharded(t, sdb, udb, "pristine")

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
			verifyShardedAgainstUnsharded(t, sdb, udb, "delta-live")

			// Collapse every shard's write side and re-verify from the
			// swapped roots.
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
					t.Fatalf("repack left delta state on a shard")
				}
			}
			verifyShardedAgainstUnsharded(t, sdb, udb, "repacked")
		})
	}
}
