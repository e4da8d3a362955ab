package pictdb_test

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	pictdb "repro"
	"repro/internal/pager"
)

// buildCheckDB persists a small database with at least one free-list
// page (a definition between two checkpoints makes the second rewrite
// the definitions and free the first heap of them).
func buildCheckDB(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "check.db")
	db, err := pictdb.Open(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := db.CreateRelation("cities", pictdb.MustSchema("city:string", "pop:int"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if _, err := rel.Insert(pictdb.Tuple{pictdb.S("x"), pictdb.I(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.DefineLocation("zone", pictdb.R(0, 0, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCheckHealthyDatabase(t *testing.T) {
	path := buildCheckDB(t)
	db, report, err := pictdb.OpenChecked(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if !report.OK() {
		t.Fatalf("healthy database reported problems: %v", report.Err())
	}
	if report.Err() != nil {
		t.Fatalf("OK report must have nil Err, got %v", report.Err())
	}
	if db.ReadOnly() {
		t.Fatal("healthy database must not be degraded")
	}
	if report.Pages != db.NumPages() {
		t.Fatalf("report.Pages = %d, NumPages = %d", report.Pages, db.NumPages())
	}
	if report.Relations != 1 {
		t.Fatalf("report.Relations = %d, want 1", report.Relations)
	}
	if report.FreePages == 0 {
		t.Fatal("expected a free page after rewritten definitions")
	}
}

func TestCheckDegradesToReadOnly(t *testing.T) {
	path := buildCheckDB(t)

	// Corrupt a free-list page: the open path never reads it, so the
	// database opens and verification must catch it.
	p, err := pager.Open(path, 16)
	if err != nil {
		t.Fatal(err)
	}
	free, err := p.FreePages()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if len(free) == 0 {
		t.Fatal("expected a free page to corrupt")
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	var b [1]byte
	off := int64(free[0])*pager.PageSize + 200
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xFF
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	f.Close()

	db, report, err := pictdb.OpenChecked(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if report.OK() {
		t.Fatal("corrupted free page not reported")
	}
	if !pictdb.IsCorruption(report.Err()) {
		t.Fatalf("report.Err() = %v, want a typed corruption error", report.Err())
	}
	found := false
	for _, prob := range report.Problems {
		if prob.Page == free[0] {
			found = true
		}
	}
	if !found {
		t.Fatalf("no problem anchored to corrupted page %d: %v", free[0], report.Problems)
	}

	// Degraded mode: reads keep working, writes are refused.
	if !db.ReadOnly() {
		t.Fatal("database with problems must degrade to read-only")
	}
	rel, ok := db.Relation("cities")
	if !ok {
		t.Fatal("relation lost in degraded mode")
	}
	if rel.Len() != 300 {
		t.Fatalf("degraded read saw %d tuples, want 300", rel.Len())
	}
	if _, err := db.CreateRelation("more", pictdb.MustSchema("a:int")); !errors.Is(err, pager.ErrReadOnly) {
		t.Fatalf("CreateRelation in degraded mode: %v, want ErrReadOnly", err)
	}
	if err := db.Checkpoint(); !errors.Is(err, pager.ErrReadOnly) {
		t.Fatalf("Checkpoint in degraded mode: %v, want ErrReadOnly", err)
	}
}

// TestFaultyCheckpointSurfacesTyped injects write and sync failures
// into a live database's page file, which only a checkpoint writes, and
// asserts checkpointing reports them rather than claiming durability.
func TestFaultyCheckpointSurfacesTyped(t *testing.T) {
	for _, cfg := range []pager.FaultConfig{
		{FailWrite: 5},
		{ShortWrite: 5},
		{FailSync: 1},
	} {
		fb := pager.NewFaultBackend(pager.NewMemBackend(nil), cfg)
		db, err := openPairDB(fb, pager.NewMemBackend(nil), 64)
		if err != nil {
			t.Fatal(err)
		}
		rel, err := db.CreateRelation("r", pictdb.MustSchema("a:int"))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			if _, err := rel.Insert(pictdb.Tuple{pictdb.I(int64(i))}); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Checkpoint(); !errors.Is(err, pager.ErrInjected) {
			t.Fatalf("cfg %+v: Checkpoint = %v, want ErrInjected", cfg, err)
		}
	}
}

func TestIsCorruption(t *testing.T) {
	for _, err := range []error{
		pager.ErrChecksum,
		pager.ErrTruncated,
		pager.ErrBadMagic,
		pager.ErrPageRange,
		pictdb.ErrCorrupt,
	} {
		if !pictdb.IsCorruption(err) {
			t.Errorf("IsCorruption(%v) = false, want true", err)
		}
	}
	if pictdb.IsCorruption(errors.New("plain")) {
		t.Error("IsCorruption(plain error) = true, want false")
	}
	if pictdb.IsCorruption(pager.ErrInjected) {
		t.Error("an injected I/O error is a fault, not corruption")
	}
}
