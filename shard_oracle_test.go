package pictdb_test

import (
	"fmt"
	"testing"

	pictdb "repro"
	"repro/internal/storage"
)

// The sharded oracle: a PSQL query over a sharded database must return
// results bit-identical to the same query over the unsharded database
// — same columns, same rows in the same order, same loc pointers — at
// every shard count. Both configurations are also held
// against their own naive full-scan executor, so a sharded-specific
// planner bug cannot hide behind a matching naive divergence.

// mutateUSOrdered is mutateUS with all inserts issued before any
// delete. The unsharded heap reuses freed slots for later inserts while
// the sharded numbering is append-only, so an insert-after-delete
// workload would legitimately reorder rows between the two
// configurations; keeping the mutation insert-first preserves strict
// row-order comparability while still leaving live deltas and
// tombstones in every spatial index.
func mutateUSOrdered(t *testing.T, db *pictdb.Database) {
	t.Helper()
	cities, _ := db.Relation("cities")
	usMap, _ := db.Picture("us-map")

	var ids []storage.TupleID
	if err := cities.Scan(func(id storage.TupleID, _ pictdb.Tuple) bool {
		ids = append(ids, id)
		return true
	}); err != nil {
		t.Fatal(err)
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
	// Deletes last: only pre-mutation rows, present in both twins.
	for i := 0; i < len(ids); i += 7 {
		if err := cities.Delete(ids[i]); err != nil {
			t.Fatal(err)
		}
	}
}

// verifyShardedAgainstUnsharded runs every planner access path on both
// databases, requiring (a) sharded planned == sharded naive, (b) sharded
// planned == unsharded planned, row for row.
func verifyShardedAgainstUnsharded(t *testing.T, sdb, udb *pictdb.Database, stage string) {
	t.Helper()
	for name, q := range lsmQueries {
		label := stage + "/" + name
		got, err := sdb.Query(q)
		if err != nil {
			t.Fatalf("%s: sharded: %v", label, err)
		}
		naive, err := sdb.QueryNaive(q)
		if err != nil {
			t.Fatalf("%s: sharded naive: %v", label, err)
		}
		assertSameResult(t, label+" [vs naive]", got, naive)
		want, err := udb.Query(q)
		if err != nil {
			t.Fatalf("%s: unsharded: %v", label, err)
		}
		assertSameResult(t, label+" [vs unsharded]", got, want)
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

			mutateUSOrdered(t, sdb)
			mutateUSOrdered(t, udb)
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
