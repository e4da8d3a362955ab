package pictdb_test

import (
	"fmt"
	"path/filepath"
	"sync/atomic"
	"testing"

	pictdb "repro"
	"repro/internal/pager"
	"repro/internal/storage"
	"repro/internal/workload"
)

// Rebalancing coverage (DESIGN.md §16): a shard split must be invisible
// to queries — bit-identical results before, during (the split hook
// fires mid-migration), and after — and its key-range layout must
// survive checkpoint/reopen. The crash matrix sweeps every fsync
// boundary of a split.

// TestShardSplitQueryOracle forces a split of the cities relation's
// most loaded shard and holds the sharded database against the
// unsharded twin (and its own naive executor) at parallelism 1 and 8,
// pre-split, mid-migration, and post-split.
func TestShardSplitQueryOracle(t *testing.T) {
	sdb, err := pictdb.BuildUSDatabaseSharded(2)
	if err != nil {
		t.Fatal(err)
	}
	defer sdb.Close()
	udb, err := pictdb.BuildUSDatabase()
	if err != nil {
		t.Fatal(err)
	}
	defer udb.Close()
	// Live write-side state on every shard, so the migration moves
	// delta entries and tombstones too.
	mutateUSOrdered(t, sdb)
	mutateUSOrdered(t, udb)

	cities, _ := sdb.Relation("cities")
	verifyShardedAgainstUnsharded(t, sdb, udb, "pre-split")

	src, ok := cities.MostLoadedShard(1.0, 1)
	if !ok {
		t.Fatal("no splittable shard")
	}
	balBefore, _ := cities.ShardBalance()
	hookRuns := 0
	cities.SetSplitHook(func() {
		hookRuns++
		verifyShardedAgainstUnsharded(t, sdb, udb, "mid-migration")
	})
	dst, err := sdb.SplitShard("cities", src)
	if err != nil {
		t.Fatal(err)
	}
	cities.SetSplitHook(nil)
	if hookRuns != 1 {
		t.Fatalf("split hook ran %d times, want 1", hookRuns)
	}
	if cities.ShardCount() != 3 || dst != 2 {
		t.Fatalf("split produced shard %d of %d, want 2 of 3", dst, cities.ShardCount())
	}

	verifyShardedAgainstUnsharded(t, sdb, udb, "post-split")

	// The split actually moved tuples off the source shard.
	balAfter, _ := cities.ShardBalance()
	if balAfter[dst].Items == 0 {
		t.Fatal("split moved no tuples to the new shard")
	}
	if balAfter[src].Items >= balBefore[src].Items {
		t.Fatalf("source shard did not shrink: %d -> %d", balBefore[src].Items, balAfter[src].Items)
	}
	// The ranges partition: source's upper bound is the new shard's
	// lower bound, and the new shard inherited the old upper bound.
	if balAfter[src].KeyHi != balAfter[dst].KeyLo || balAfter[dst].KeyHi != balBefore[src].KeyHi {
		t.Fatalf("split ranges do not partition: src=[%d,%d) dst=[%d,%d), old src=[%d,%d)",
			balAfter[src].KeyLo, balAfter[src].KeyHi,
			balAfter[dst].KeyLo, balAfter[dst].KeyHi,
			balBefore[src].KeyLo, balBefore[src].KeyHi)
	}
	if report := sdb.Check(); !report.OK() {
		t.Fatalf("post-split Check: %v", report.Err())
	}

	// Inserts keep routing correctly against the rebalanced layout.
	mutateUSOrdered(t, sdb)
	mutateUSOrdered(t, udb)
	verifyShardedAgainstUnsharded(t, sdb, udb, "post-split-mutated")
}

// TestShardSplitPersistsAcrossReopen rebalances a skewed file-backed
// relation and checks the uneven key-range layout, the extra sidecar
// file, and every row survive close/reopen.
func TestShardSplitPersistsAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "skewed.pictdb")
	db, err := pictdb.Open(path, 128)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreatePicture("map", workload.Frame); err != nil {
		t.Fatal(err)
	}
	pic, _ := db.Picture("map")
	rel, err := db.CreateShardedRelation("pts", pictdb.MustSchema("name:string", "loc:loc"), 2)
	if err != nil {
		t.Fatal(err)
	}
	// Attach before inserting so the router sees Hilbert keys (not the
	// spatial-less hash fallback) and the skew actually lands on one
	// shard.
	if err := rel.AttachPicture(pic, pictdb.PackOptions{}); err != nil {
		t.Fatal(err)
	}
	pts := workload.HotHilbertPoints(300, 0.9, 0.1, 77)
	for i, p := range pts {
		name := fmt.Sprintf("p%03d", i)
		oid := pic.AddPoint(name, p)
		if _, err := rel.Insert(pictdb.Tuple{pictdb.S(name), pictdb.L("map", oid)}); err != nil {
			t.Fatal(err)
		}
	}
	_, before := rel.ShardBalance()

	splits, err := db.Rebalance("pts", 1.5, 10)
	if err != nil {
		t.Fatal(err)
	}
	if splits == 0 {
		t.Fatal("hot:0.9:0.1 over 2 even shards triggered no split")
	}
	_, after := rel.ShardBalance()
	if after >= before {
		t.Fatalf("rebalancing did not improve imbalance: %.2f -> %.2f", before, after)
	}
	wantShards := rel.ShardCount()
	wantRanges := rel.ShardKeyRanges()
	var wantRows []string
	if err := rel.Scan(func(id storage.TupleID, tu pictdb.Tuple) bool {
		wantRows = append(wantRows, fmt.Sprintf("%v=%s", id, tu[0].Str))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := pictdb.Open(path, 128)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	rel2, ok := re.Relation("pts")
	if !ok {
		t.Fatal("relation lost across reopen")
	}
	if rel2.ShardCount() != wantShards {
		t.Fatalf("reopened with %d shards, want %d", rel2.ShardCount(), wantShards)
	}
	gotRanges := rel2.ShardKeyRanges()
	for i := range wantRanges {
		if gotRanges[i] != wantRanges[i] {
			t.Fatalf("shard %d range %v survived reopen as %v", i, wantRanges[i], gotRanges[i])
		}
	}
	var gotRows []string
	if err := rel2.Scan(func(id storage.TupleID, tu pictdb.Tuple) bool {
		gotRows = append(gotRows, fmt.Sprintf("%v=%s", id, tu[0].Str))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(gotRows) != len(wantRows) {
		t.Fatalf("reopened with %d rows, want %d", len(gotRows), len(wantRows))
	}
	for i := range wantRows {
		if gotRows[i] != wantRows[i] {
			t.Fatalf("row %d diverged across reopen: %s vs %s", i, gotRows[i], wantRows[i])
		}
	}
	if report := re.Check(); !report.OK() {
		t.Fatalf("reopened Check: %v", report.Err())
	}
}

// TestShardSplitCrashMatrix drives a skewed spatial workload through a
// shard split on a CrashCluster and replays every coordinated crash
// image — including the windows between the split's fsyncs (destination
// commit, catalog checkpoint, source cleanup commit). Every image must
// recover Check-clean with every acknowledged row present exactly once.
func TestShardSplitCrashMatrix(t *testing.T) {
	const shards = 2
	// Members: main file, the two initial shards, and the split's new
	// sidecar.
	cluster := pager.NewCrashCluster(1 + shards + 1)
	var ackedRows atomic.Int64
	ackedAt := make(map[int]int64)
	cluster.OnSync = func(i int, _ pager.ClusterImage) {
		ackedAt[i] = ackedRows.Load()
	}

	mains, wals := clusterBackends(cluster)
	db, err := openClusterDB(t, mains, wals, 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreatePicture("map", workload.Frame); err != nil {
		t.Fatal(err)
	}
	pic, _ := db.Picture("map")
	rel, err := db.CreateShardedRelation("pts", pictdb.MustSchema("name:string", "n:int", "loc:loc"), shards)
	if err != nil {
		t.Fatal(err)
	}
	pts := workload.HotHilbertPoints(120, 0.9, 0.1, 13)
	n := 0
	insert := func(count int) {
		for i := 0; i < count; i++ {
			p := pts[n%len(pts)]
			oid := pic.AddPoint(fmt.Sprintf("p%d", n), p)
			if _, err := rel.Insert(pictdb.Tuple{
				pictdb.S(fmt.Sprintf("p%d", n)), pictdb.I(int64(n)), pictdb.L("map", oid),
			}); err != nil {
				t.Fatal(err)
			}
			n++
		}
	}
	insert(60)
	if err := rel.AttachPicture(pic, pictdb.PackOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	ackedRows.Store(int64(n))

	src, ok := rel.MostLoadedShard(1.0, 1)
	if !ok {
		t.Fatal("no splittable shard")
	}
	if _, err := db.SplitShard("pts", src); err != nil {
		t.Fatal(err)
	}
	// SplitShard's internal checkpoint + commits acked everything
	// durable before it returned.
	ackedRows.Store(int64(n))
	insert(30)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	ackedRows.Store(int64(n))
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	images := cluster.Images()
	if len(images) < 6 {
		t.Fatalf("only %d crash images captured", len(images))
	}
	for i, img := range images {
		mains, wals := imageBackends(img)
		db2, err := openClusterDB(t, mains, wals, 64)
		if err != nil {
			t.Fatalf("image %d: recovery failed: %v", i, err)
		}
		// A shard commits a row before any checkpoint carries its
		// picture object (ROADMAP item 0), so an image between the two
		// recovers rows with dangling locs. Check reports them; until
		// the picture is durable with the tuple (item 1 stage A) the
		// matrix accepts that finding alone, and below only on rows that
		// were never acknowledged.
		for _, p := range db2.Check().Problems {
			if p.Component != "relation:pts:loc" {
				t.Fatalf("image %d: not Check-clean after recovery: %v", i, p)
			}
		}
		pic2, _ := db2.Picture("map")
		seen := make(map[int64]bool)
		if rel2, ok := db2.Relation("pts"); ok {
			err := rel2.Scan(func(_ storage.TupleID, tup pictdb.Tuple) bool {
				v := tup[1].Int
				if seen[v] {
					t.Fatalf("image %d: row %d recovered twice", i, v)
				}
				seen[v] = true
				if _, live := pic2.Get(tup[2].Loc.Object); !live && v < ackedAt[i] {
					t.Fatalf("image %d: acked row %d lost its picture object", i, v)
				}
				return true
			})
			if err != nil {
				t.Fatalf("image %d: scan: %v", i, err)
			}
		}
		for v := int64(0); v < ackedAt[i]; v++ {
			if !seen[v] {
				t.Fatalf("image %d: acked row %d lost (recovered %d rows, %d acked)", i, v, len(seen), ackedAt[i])
			}
		}
		for v := range seen {
			if v < 0 || v >= int64(n) {
				t.Fatalf("image %d: recovered row %d was never inserted", i, v)
			}
		}
		if err := db2.Close(); err != nil {
			t.Fatalf("image %d: close: %v", i, err)
		}
	}
	t.Logf("replayed %d cluster crash images through a shard split clean", len(images))
}
