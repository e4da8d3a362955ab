package pictdb_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	pictdb "repro"
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
