package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	pictdb "repro"
	"repro/internal/pager"
)

// buildDB creates a small persisted database and returns its path.
func buildDB(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "check.db")
	db, err := pictdb.Open(path, 64)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	rel, err := db.CreateRelation("cities", pictdb.MustSchema("city:string", "pop:int"))
	if err != nil {
		t.Fatalf("CreateRelation: %v", err)
	}
	for i := 0; i < 200; i++ {
		if _, err := rel.Insert(pictdb.Tuple{pictdb.S("c"), pictdb.I(int64(i))}); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	// Checkpoint twice with a definition between: the second rewrites
	// the definitions and frees the first heap of them, so the file has
	// at least one free-list page.
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if err := db.DefineLocation("zone", pictdb.R(0, 0, 1, 1)); err != nil {
		t.Fatalf("DefineLocation: %v", err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return path
}

// corruptPage XORs one payload byte of page id so its CRC-32C trailer
// no longer matches.
func corruptPage(t *testing.T, path string, id pager.PageID) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	defer f.Close()
	off := int64(id)*pager.PageSize + 100
	buf := make([]byte, 1)
	if _, err := f.ReadAt(buf, off); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	buf[0] ^= 0xFF
	if _, err := f.WriteAt(buf, off); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
}

func TestCheckHealthy(t *testing.T) {
	path := buildDB(t)
	var out, errb bytes.Buffer
	if code := run([]string{path}, &out, &errb); code != 0 {
		t.Fatalf("exit %d on healthy file; stdout=%q stderr=%q", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "OK") {
		t.Fatalf("expected OK summary, got %q", out.String())
	}
}

// TestCheckCorruptHeapPage corrupts a live heap page. The catalog load
// walks every heap page, so Open itself fails with a typed checksum
// error — the checker exits non-zero and says why.
func TestCheckCorruptHeapPage(t *testing.T) {
	path := buildDB(t)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatalf("Stat: %v", err)
	}
	corruptPage(t, path, pager.PageID(st.Size()/pager.PageSize-1))

	var out, errb bytes.Buffer
	if code := run([]string{path}, &out, &errb); code != 1 {
		t.Fatalf("exit %d on corrupt file (want 1); stdout=%q stderr=%q", code, out.String(), errb.String())
	}
	if !strings.Contains(errb.String(), "checksum") {
		t.Fatalf("expected checksum error on stderr, got %q", errb.String())
	}
}

// TestCheckCorruptFreePage corrupts a free-list page — one the catalog
// load never fetches, so the database opens and the verification pass
// produces the per-page problem listing and degrades to read-only.
func TestCheckCorruptFreePage(t *testing.T) {
	path := buildDB(t)
	p, err := pager.Open(path, 16)
	if err != nil {
		t.Fatalf("pager.Open: %v", err)
	}
	free, err := p.FreePages()
	if err != nil {
		t.Fatalf("FreePages: %v", err)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("pager.Close: %v", err)
	}
	if len(free) == 0 {
		t.Fatal("expected at least one free page after double checkpoint")
	}
	corruptPage(t, path, free[0])

	var out, errb bytes.Buffer
	if code := run([]string{path}, &out, &errb); code != 1 {
		t.Fatalf("exit %d on corrupt file (want 1); stdout=%q stderr=%q", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "problem") {
		t.Fatalf("expected problem listing, got %q", out.String())
	}
	if !strings.Contains(out.String(), fmt.Sprintf("page %d", free[0])) {
		t.Fatalf("expected problem anchored to page %d, got %q", free[0], out.String())
	}
}

func TestCheckMissingFile(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{filepath.Join(t.TempDir(), "absent.db")}, &out, &errb); code != 1 {
		t.Fatalf("exit %d on missing file (want 1)", code)
	}
}

func TestCheckUsage(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(nil, &out, &errb); code != 2 {
		t.Fatalf("exit %d with no args (want 2)", code)
	}
}

// snapshotLiveDB builds a database and copies both halves — page file
// and WAL sidecar — while it is still open, after two commits. Group
// commit syncs the log before acknowledging, so the copied pair is a
// crash-consistent image whose WAL still holds committed frames.
func snapshotLiveDB(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	orig := filepath.Join(dir, "live.db")
	db, err := pictdb.Open(orig, 64)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	rel, err := db.CreateRelation("cities", pictdb.MustSchema("city:string", "pop:int"))
	if err != nil {
		t.Fatalf("CreateRelation: %v", err)
	}
	for round := 0; round < 2; round++ {
		for i := 0; i < 50; i++ {
			if _, err := rel.Insert(pictdb.Tuple{pictdb.S("c"), pictdb.I(int64(i))}); err != nil {
				t.Fatalf("Insert: %v", err)
			}
		}
		if err := db.Commit(); err != nil {
			t.Fatalf("Commit: %v", err)
		}
	}
	mainBytes, err := os.ReadFile(orig)
	if err != nil {
		t.Fatalf("ReadFile main: %v", err)
	}
	walBytes, err := os.ReadFile(pager.WALPath(orig))
	if err != nil {
		t.Fatalf("ReadFile wal: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	cp := filepath.Join(dir, "copy.db")
	if err := os.WriteFile(cp, mainBytes, 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if err := os.WriteFile(pager.WALPath(cp), walBytes, 0o644); err != nil {
		t.Fatalf("WriteFile wal: %v", err)
	}
	return cp
}

// TestCheckReportsWALState: a healthy file with a populated log gets a
// wal summary line — record count, commits, last durable generation.
func TestCheckReportsWALState(t *testing.T) {
	path := snapshotLiveDB(t)
	var out, errb bytes.Buffer
	if code := run([]string{path}, &out, &errb); code != 0 {
		t.Fatalf("exit %d on healthy pair; stdout=%q stderr=%q", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "wal:") || !strings.Contains(out.String(), "commit(s)") {
		t.Fatalf("expected wal summary line, got %q", out.String())
	}
	if !strings.Contains(out.String(), "last durable generation") {
		t.Fatalf("expected durable generation in wal line, got %q", out.String())
	}
}

// TestCheckToleratesTornWALTail: garbage after the last commit is a
// crash artifact recovery discards — the checker reports it and still
// exits 0.
func TestCheckToleratesTornWALTail(t *testing.T) {
	path := snapshotLiveDB(t)
	f, err := os.OpenFile(pager.WALPath(path), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	if _, err := f.Write(bytes.Repeat([]byte{0xAB}, 100)); err != nil {
		t.Fatalf("Write: %v", err)
	}
	f.Close()

	var out, errb bytes.Buffer
	if code := run([]string{path}, &out, &errb); code != 0 {
		t.Fatalf("exit %d on torn tail (want 0); stdout=%q stderr=%q", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "torn tail") {
		t.Fatalf("expected torn-tail note, got %q", out.String())
	}
}

// TestCheckRejectsCorruptWALRecord: a damaged record BEFORE a later
// valid commit means acknowledged data is unrecoverable — the checker
// must refuse before opening (opening would replay a silent prefix).
func TestCheckRejectsCorruptWALRecord(t *testing.T) {
	path := snapshotLiveDB(t)
	f, err := os.OpenFile(pager.WALPath(path), os.O_RDWR, 0)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	// One byte inside the first frame's page payload (frames start
	// after the 16-byte file header and a 24-byte frame header).
	off := int64(16 + 24 + 10)
	buf := make([]byte, 1)
	if _, err := f.ReadAt(buf, off); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	buf[0] ^= 0xFF
	if _, err := f.WriteAt(buf, off); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	f.Close()

	var out, errb bytes.Buffer
	if code := run([]string{path}, &out, &errb); code != 1 {
		t.Fatalf("exit %d on corrupt wal record (want 1); stdout=%q stderr=%q", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "CORRUPT") {
		t.Fatalf("expected CORRUPT wal line, got %q", out.String())
	}
	if !strings.Contains(errb.String(), "write-ahead log is corrupt") {
		t.Fatalf("expected refusal on stderr, got %q", errb.String())
	}
}

// buildShardedDB persists a database whose relation was created with
// three stores, as the benchmark harness creates one — one heap — and
// returns its path.
func buildShardedDB(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "check.db")
	db, err := pictdb.Open(path, 64)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	rel, err := db.CreateShardedRelation("cities", pictdb.MustSchema("city:string", "pop:int"), 3)
	if err != nil {
		t.Fatalf("CreateShardedRelation: %v", err)
	}
	for i := 0; i < 300; i++ {
		if _, err := rel.Insert(pictdb.Tuple{pictdb.S("c"), pictdb.I(int64(i))}); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return path
}

// runAtProcs runs the checker on path at GOMAXPROCS 1 and 4 and
// returns stdout, which must be byte-identical at both, and the combined
// output of the last run.
func runAtProcs(t *testing.T, path string, wantCode int) (stdout, combined string) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for i, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		var out, errb bytes.Buffer
		if code := run([]string{path}, &out, &errb); code != wantCode {
			t.Fatalf("GOMAXPROCS=%d: exit %d (want %d); stdout=%q stderr=%q", procs, code, wantCode, out.String(), errb.String())
		}
		if i > 0 && out.String() != stdout {
			t.Fatalf("GOMAXPROCS=%d: stdout differs from GOMAXPROCS=1:\n%s\nvs\n%s", procs, out.String(), stdout)
		}
		stdout, combined = out.String(), out.String()+errb.String()
	}
	return stdout, combined
}

// TestCheckShardedParallel verifies a healthy database checks clean with
// the same report at any core count, and that the database is its page
// file and its log, nothing beside them; and that testdata/stores_pr52,
// a file whose relation was written as four stores and reopens as a
// heap of four chains, checks clean too.
func TestCheckShardedParallel(t *testing.T) {
	if out, _ := runAtProcs(t, copyFixture(t, "stores_pr52/stores.pictdb"), 0); !strings.Contains(out, "OK") {
		t.Fatalf("stores_pr52: expected OK summary, got %q", out)
	}
	path := buildShardedDB(t)
	files, err := filepath.Glob(filepath.Join(filepath.Dir(path), "*"))
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{path, pager.WALPath(path)}; strings.Join(files, " ") != strings.Join(want, " ") {
		t.Fatalf("database files %v, want %v", files, want)
	}
	if out, _ := runAtProcs(t, path, 0); !strings.Contains(out, "OK") {
		t.Fatalf("expected OK summary, got %q", out)
	}
}

// TestCheckShardBalanceReport: a relation created with three stores is
// one heap, so the checker prints no balance line for it, with or
// without -v.
func TestCheckShardBalanceReport(t *testing.T) {
	path := buildShardedDB(t)
	for _, args := range [][]string{{path}, {"-v", path}} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 0 {
			t.Fatalf("%v: exit %d; stdout=%q stderr=%q", args, code, out.String(), errb.String())
		}
		if strings.Contains(out.String(), "shard") || strings.Contains(out.String(), "hilbert keys") {
			t.Fatalf("%v: a balance line: %q", args, out.String())
		}
	}
}

// TestCheckShardedCorruptShard flips a byte in a heap page of a
// relation: the checker must exit non-zero and name a checksum failure,
// with the same report at any core count.
func TestCheckShardedCorruptShard(t *testing.T) {
	path := buildShardedDB(t)
	db, err := pictdb.Open(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	rel, _ := db.Relation("cities")
	pages, err := rel.HeapPages()
	if err != nil || len(pages) == 0 {
		t.Fatalf("heap pages %v: %v", pages, err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	corruptPage(t, path, pages[len(pages)-1])

	if _, combined := runAtProcs(t, path, 1); !strings.Contains(combined, "checksum") {
		t.Fatalf("expected checksum failure, got %q", combined)
	}
}

// TestCheckRefusesUnsupportedFormat: a v1 page file, a database whose
// catalog superblock says PICTCAT1 — the format that kept picture
// objects in the catalog — the two file sets earlier builds wrote in
// that format, and a PICTCAT2 file set whose relation keeps its stores
// in page files of their own (testdata/) are refused by name: exit 1,
// the typed message, every file of the set untouched.
func TestCheckRefusesUnsupportedFormat(t *testing.T) {
	v1 := filepath.Join(t.TempDir(), "v1.db")
	hdr := make([]byte, pager.PageSize)
	copy(hdr, "PICTDB01\x01")
	if err := os.WriteFile(v1, hdr, 0o644); err != nil {
		t.Fatal(err)
	}

	// Restamp a current file's superblock as PICTCAT1 through the pager,
	// so the page's checksum stays valid.
	cat1 := buildShardedDB(t)
	p, err := pager.Open(cat1, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.EnableWAL(); err != nil {
		t.Fatal(err)
	}
	sb, err := p.Fetch(1)
	if err != nil {
		t.Fatal(err)
	}
	if string(sb.Data[:8]) != "PICTCAT2" {
		t.Fatalf("superblock magic %q", sb.Data[:8])
	}
	copy(sb.Data[:8], "PICTCAT1")
	sb.MarkDirty()
	p.Unpin(sb)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	paths := []string{v1, cat1}
	for _, fixture := range []string{"rebalanced_pr17/rebalanced.pictdb", "unsharded_pr19/unsharded.pictdb", "sharded_pr32/sharded.pictdb", "seqids/seqids.pictdb"} {
		paths = append(paths, copyFixture(t, fixture))
	}
	for _, path := range paths {
		files, err := filepath.Glob(path + "*")
		if err != nil {
			t.Fatal(err)
		}
		before := map[string][]byte{}
		for _, f := range files {
			if before[f], err = os.ReadFile(f); err != nil {
				t.Fatal(err)
			}
		}
		var out, errb bytes.Buffer
		if code := run([]string{path}, &out, &errb); code != 1 {
			t.Fatalf("%s: exit %d, want 1; stderr=%q", path, code, errb.String())
		}
		if !strings.Contains(errb.String(), "unsupported format") || !strings.Contains(errb.String(), "not modified") {
			t.Fatalf("%s: stderr lacks the typed refusal: %q", path, errb.String())
		}
		for f, b := range before {
			after, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(b, after) {
				t.Fatalf("%s: pictdbcheck modified %s, a file it refused", path, f)
			}
		}
	}
}

// copyFixture copies the file set testdata/<dir>/<main>* into a fresh
// directory and returns the copy of the main file.
func copyFixture(t *testing.T, fixture string) string {
	t.Helper()
	src := filepath.Join("..", "..", "testdata", fixture)
	files, err := filepath.Glob(src + "*")
	if err != nil || len(files) == 0 {
		t.Fatalf("fixture %s missing: %v", fixture, err)
	}
	dir := t.TempDir()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(f)), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return filepath.Join(dir, filepath.Base(src))
}
