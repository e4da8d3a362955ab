package pictdb_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	pictdb "repro"
	"repro/internal/geom"
	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/workload"
)

// copyFixture copies the file set testdata/<name> into a fresh
// directory and returns the directory.
func copyFixture(t *testing.T, name string) string {
	t.Helper()
	dir := t.TempDir()
	files, err := filepath.Glob(filepath.Join("testdata", name, "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("fixture missing: %v", err)
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(f)), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestShardedReopenUnevenLayout opens file sets earlier builds wrote —
// both record layouts are format (DESIGN.md §15, §17).
func TestShardedReopenUnevenLayout(t *testing.T) {
	t.Run("rebalanced_pr17", reopenRebalancedPR17)
	t.Run("unsharded_pr19", reopenUnshardedPR19)
}

// reopenUnshardedPR19 opens an unsharded pictorial relation the PR 19
// build wrote, the last with a code path of its own for one: "pts"
// (name, n, loc) on picture "map", rows p000…p299 at
// workload.UniformPoints(320, 19) with n = i mod 40, a B-tree on n and
// the picture attached; then every 7th row deleted and p300…p319
// inserted into the freed slots, so heap order is not insertion order;
// then Checkpoint, Commit, Close. Records carry no sequence prefix and
// ids are heap addresses: the file must open, check clean and answer
// row for row, and take writes this build checkpoints back.
func reopenUnshardedPR19(t *testing.T) {
	path := filepath.Join(copyFixture(t, "unsharded_pr19"), "unsharded.pictdb")
	pts := workload.UniformPoints(320, 19)
	live := func(i int) bool { return i >= 300 || i%7 != 0 }
	window := geom.R(0, 0, 500, 500)
	var wantWindow, wantN7 []string
	for i, p := range pts {
		if !live(i) {
			continue
		}
		if window.ContainsPoint(p) {
			wantWindow = append(wantWindow, fmt.Sprintf("p%03d", i))
		}
		if i%40 == 7 {
			wantN7 = append(wantN7, fmt.Sprintf("p%03d", i))
		}
	}

	verify := func(db *pictdb.Database, stage string, rows int) *pictdb.Relation {
		t.Helper()
		rel, ok := db.Relation("pts")
		if !ok || rel.Sharded() || rel.Index("n") == nil || !rel.HasSpatial("map") {
			t.Fatalf("%s: relation, its B-tree or its spatial index lost", stage)
		}
		if rel.Len() != rows {
			t.Fatalf("%s: %d rows, want %d", stage, rel.Len(), rows)
		}
		if report := db.Check(); !report.OK() {
			t.Fatalf("%s: Check: %v", stage, report.Err())
		}
		for _, q := range []struct {
			src  string
			want []string
		}{
			{"select name from pts on map at loc covered-by {250±250, 250±250}", wantWindow},
			{"select name from pts where n = 7", wantN7},
		} {
			res, err := db.Query(q.src)
			if err != nil {
				t.Fatal(err)
			}
			naive, err := db.QueryNaive(q.src)
			if err != nil {
				t.Fatal(err)
			}
			if res.Format() != naive.Format() {
				t.Fatalf("%s: %s: planned and naive rows differ:\n%s\n%s", stage, q.src, res.Format(), naive.Format())
			}
			var got []string
			for _, row := range res.Rows {
				got = append(got, row[0].Str)
			}
			sort.Strings(got)
			if !reflect.DeepEqual(got, q.want) {
				t.Fatalf("%s: %s: rows %v, want %v", stage, q.src, got, q.want)
			}
		}
		return rel
	}

	db, err := pictdb.Open(path, 128)
	if err != nil {
		t.Fatal(err)
	}
	rel := verify(db, "opened", 277)
	pic, _ := db.Picture("map")
	if err := db.Write(func() error {
		_, err := rel.Insert(pictdb.Tuple{pictdb.S("x"), pictdb.I(41), pictdb.L("map", pic.AddPoint("x", geom.Pt(900, 900)))})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
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
	verify(re, "reopened", 278)
}

// reopenRebalancedPR17 opens a file set this build can no
// longer produce: testdata/rebalanced_pr17 was written by the PR 17
// build (the last with online shard splits) — a 2-shard relation "pts"
// on picture "map" loaded with workload.HotHilbertPoints(300, 0.9, 0.1,
// 77) named p000…p299 and then rebalanced online (imbalance factor
// 1.5, split candidates of at least 10 tuples), which cut shard 0 at
// its occupancy median into a third sidecar. The layout is a
// creation-time fact now, but the catalog's per-shard key ranges are
// format: the file must open with its uneven ranges and its extra
// shard, route new inserts by them, and round-trip them through a
// checkpoint of this build.
func reopenRebalancedPR17(t *testing.T) {
	wantRanges := []relation.KeyRange{
		{Lo: 0, Hi: 230537638},
		{Lo: 2147483648, Hi: 4294967296},
		{Lo: 230537638, Hi: 2147483648},
	}
	wantItems := []int64{144, 12, 144}

	path := filepath.Join(copyFixture(t, "rebalanced_pr17"), "rebalanced.pictdb")

	// verify checks the layout and the row set: the 300 fixture rows in
	// insertion order, then extra.
	verify := func(db *pictdb.Database, stage string, extra []string) *pictdb.Relation {
		t.Helper()
		rel, ok := db.Relation("pts")
		if !ok {
			t.Fatalf("%s: relation lost", stage)
		}
		if rel.ShardCount() != len(wantRanges) {
			t.Fatalf("%s: %d shards, want %d", stage, rel.ShardCount(), len(wantRanges))
		}
		for s, kr := range rel.ShardKeyRanges() {
			if kr != wantRanges[s] {
				t.Fatalf("%s: shard %d range %v, want %v", stage, s, kr, wantRanges[s])
			}
		}
		var names []string
		last := int64(-1)
		if err := rel.Scan(func(id storage.TupleID, tu pictdb.Tuple) bool {
			if id.Int64() <= last {
				t.Fatalf("%s: scan ids not ascending at %v", stage, id)
			}
			last = id.Int64()
			names = append(names, tu[0].Str)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if len(names) != 300+len(extra) {
			t.Fatalf("%s: %d rows, want %d", stage, len(names), 300+len(extra))
		}
		for i, name := range names {
			want := fmt.Sprintf("p%03d", i)
			if i >= 300 {
				want = extra[i-300]
			}
			if name != want {
				t.Fatalf("%s: row %d is %q, want %q", stage, i, name, want)
			}
		}
		if report := db.Check(); !report.OK() {
			t.Fatalf("%s: Check: %v", stage, report.Err())
		}
		return rel
	}

	db, err := pictdb.Open(path, 128)
	if err != nil {
		t.Fatal(err)
	}
	rel := verify(db, "opened", nil)
	infos, _ := rel.ShardBalance()
	for s, in := range infos {
		if in.Items != wantItems[s] {
			t.Fatalf("shard %d holds %d tuples, want %d", s, in.Items, wantItems[s])
		}
	}
	// Every fixture row answers a window over the frame.
	res, err := db.Query("select name from pts on map at loc covered-by {500±500, 500±500}")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 300 {
		t.Fatalf("frame window returned %d rows, want 300", res.Len())
	}

	// New inserts route by the uneven ranges: half of these points fall
	// in the first 5% of the Hilbert order, which is shard 0's whole
	// range here and a tenth of it under an even 2- or 3-way layout.
	pic, _ := db.Picture("map")
	var extra []string
	routed := make([]int64, len(wantRanges))
	for i, p := range workload.HotHilbertPoints(60, 0.5, 0.05, 5) {
		key := geom.HilbertKey(workload.Frame, p)
		want := -1
		for s, kr := range wantRanges {
			if key >= kr.Lo && key < kr.Hi {
				want = s
			}
		}
		name := fmt.Sprintf("x%02d", i)
		oid := pic.AddPoint(name, p)
		if _, err := rel.Insert(pictdb.Tuple{pictdb.S(name), pictdb.L("map", oid)}); err != nil {
			t.Fatal(err)
		}
		extra = append(extra, name)
		routed[want]++
		after, _ := rel.ShardBalance()
		if after[want].Items != wantItems[want]+routed[want] {
			t.Fatalf("point %d (key %d) did not land on shard %d: balance %+v", i, key, want, after)
		}
	}
	for s, n := range routed {
		if n == 0 {
			t.Fatalf("no insert exercised shard %d's range (routed %v)", s, routed)
		}
	}

	// This build's checkpoint writes the same ranges back.
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
	rel = verify(re, "reopened", extra)
	infos, _ = rel.ShardBalance()
	for s, in := range infos {
		if in.Items != wantItems[s]+routed[s] {
			t.Fatalf("reopened shard %d holds %d tuples, want %d", s, in.Items, wantItems[s]+routed[s])
		}
	}
}
