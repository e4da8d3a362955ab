package pictdb_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	pictdb "repro"
	"repro/internal/storage"
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

// TestShardedReopenUnevenLayout opens the file sets earlier builds
// wrote in the PICTCAT1 format, which kept picture objects in the
// catalog: testdata/rebalanced_pr17 (a relation rebalanced online to
// three uneven shards by the PR 17 build) and testdata/unsharded_pr19
// (an unsharded pictorial relation with a B-tree, by the PR 19 build).
// Both are refused with ErrUnsupportedFormat — an old format, not
// corruption — and every file of each set is left byte for byte as it
// was (DESIGN.md §17). So is testdata/seqids, a checkpointed 2-store
// relation with a B-tree and a picture whose records carry sequence ids
// (a catSeqPrefix record, by the last build that wrote them).
func TestShardedReopenUnevenLayout(t *testing.T) {
	for _, fx := range []struct{ dir, main string }{
		{"rebalanced_pr17", "rebalanced.pictdb"},
		{"unsharded_pr19", "unsharded.pictdb"},
		{"seqids", "seqids.pictdb"},
	} {
		t.Run(fx.dir, func(t *testing.T) {
			dir := copyFixture(t, fx.dir)
			files, err := filepath.Glob(filepath.Join(dir, "*"))
			if err != nil {
				t.Fatal(err)
			}
			before := map[string][]byte{}
			for _, f := range files {
				if before[f], err = os.ReadFile(f); err != nil {
					t.Fatal(err)
				}
			}
			db, err := pictdb.Open(filepath.Join(dir, fx.main), 128)
			if err == nil {
				db.Close()
				t.Fatal("opened, want ErrUnsupportedFormat")
			}
			if !errors.Is(err, pictdb.ErrUnsupportedFormat) || pictdb.IsCorruption(err) {
				t.Fatalf("open = %v, want ErrUnsupportedFormat and no corruption finding", err)
			}
			for f, b := range before {
				after, err := os.ReadFile(f)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(b, after) {
					t.Fatalf("the refused open modified %s", filepath.Base(f))
				}
			}
		})
	}
}

// storesCorpus is read against testdata/stores_pr52. ordered holds the
// statements whose order by is total on their rows.
var storesCorpus = []struct {
	q       string
	ordered bool
}{
	{`select name, n from pts on map at loc covered-by {500±250, 500±250}`, false},
	{`select name from pts on map at loc overlapping {200±100, 700±150} where n < 20`, false},
	{`select name, loc from pts on map at loc disjoined {500±400, 500±400}`, false},
	{`select name, n from pts where n = 7`, false},
	{`select name from pts where n >= 45 order by name`, true},
	{`select name, n from pts on map at loc covered-by {300±300, 300±300} order by n, name`, true},
}

// TestStoresFixtureReopensAsOneHeap opens testdata/stores_pr52, a
// checkpointed relation of four stores with a B-tree and an attached
// picture, written by the last build that had stores: its 'R' record
// lists four heap pages, read as one heap of four chains. The file
// checks clean; every statement of storesCorpus answers as the naive
// executor does and as a fresh one-heap load of the same rows does (as
// multisets, and row for row under a total order by); an insert, a
// delete and a reopen work; and no file of the fixture set changes.
func TestStoresFixtureReopensAsOneHeap(t *testing.T) {
	fixture, err := filepath.Glob(filepath.Join("testdata", "stores_pr52", "*"))
	if err != nil || len(fixture) != 2 {
		t.Fatalf("fixture files %v: %v", fixture, err)
	}
	before := map[string][]byte{}
	for _, f := range fixture {
		if before[f], err = os.ReadFile(f); err != nil {
			t.Fatal(err)
		}
	}
	defer func() {
		for f, b := range before {
			if after, err := os.ReadFile(f); err != nil || !bytes.Equal(b, after) {
				t.Errorf("the test changed %s: %v", f, err)
			}
		}
	}()

	path := filepath.Join(copyFixture(t, "stores_pr52"), "stores.pictdb")
	db, err := pictdb.Open(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { db.Close() }()
	if report := db.Check(); !report.OK() {
		t.Fatal(report.Err())
	}
	rel, _ := db.Relation("pts")
	if rel.Len() != 564 || len(rel.HeapChains()) != 4 {
		t.Fatalf("pts: %d rows in %d chains, want 564 in 4", rel.Len(), len(rel.HeapChains()))
	}

	fresh := pictdb.New()
	defer fresh.Close()
	pic, err := fresh.CreatePicture("map", pictdb.R(0, 0, 1000, 1000))
	if err != nil {
		t.Fatal(err)
	}
	one, err := fresh.CreateRelation("pts", rel.Schema())
	if err != nil {
		t.Fatal(err)
	}
	var insertErr error
	if err := rel.Scan(func(_ storage.TupleID, tu pictdb.Tuple) bool {
		_, insertErr = one.Insert(tu) // each tuple carries its object
		return insertErr == nil
	}); err != nil || insertErr != nil {
		t.Fatal(err, insertErr)
	}
	if err := one.AttachPicture(pic, pictdb.PackOptions{Method: pictdb.PackHilbert}); err != nil {
		t.Fatal(err)
	}
	if err := one.CreateIndex("n"); err != nil {
		t.Fatal(err)
	}

	answer := func(db *pictdb.Database, q string) *pictdb.Result {
		t.Helper()
		got, err := db.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		naive, err := db.QueryNaive(q)
		if err != nil {
			t.Fatalf("%s: naive: %v", q, err)
		}
		assertSameResult(t, q+" [vs naive]", got, naive)
		return got
	}
	for _, c := range storesCorpus {
		got, want := answer(db, c.q), answer(fresh, c.q)
		if got.Len() == 0 {
			t.Fatalf("%s: no rows: the statement tests nothing", c.q)
		}
		if c.ordered {
			assertSameResult(t, c.q+" [vs one heap]", got, want)
		} else {
			assertSameRows(t, c.q+" [vs one heap]", got, want)
		}
	}

	// An insert, a delete and a reopen.
	fixturePic, _ := db.Picture("map")
	oid := fixturePic.AddPoint("newcomer", pictdb.Pt(10, 10))
	if _, err := rel.Insert(pictdb.Tuple{pictdb.S("newcomer"), pictdb.I(99), pictdb.L("map", oid)}); err != nil {
		t.Fatal(err)
	}
	var victim storage.TupleID
	if err := rel.Scan(func(id storage.TupleID, _ pictdb.Tuple) bool {
		victim = id
		return false
	}); err != nil {
		t.Fatal(err)
	}
	if err := rel.Delete(victim); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db, err = pictdb.Open(path, 64); err != nil {
		t.Fatal(err)
	}
	if report := db.Check(); !report.OK() {
		t.Fatal(report.Err())
	}
	rel, _ = db.Relation("pts")
	if rel.Len() != 564 || len(rel.HeapChains()) != 4 {
		t.Fatalf("reopened pts: %d rows in %d chains, want 564 in 4", rel.Len(), len(rel.HeapChains()))
	}
	const q = `select name from pts where n = 99`
	if got := answer(db, q); got.Len() != 1 || got.Rows[0][0].String() != "newcomer" {
		t.Fatalf("%s after the reopen:\n%s", q, got.Format())
	}
}
