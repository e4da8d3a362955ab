// Command pictdbcheck verifies a pictdb page file: page checksums,
// free-list structure, catalog superblock, and every relation heap,
// B-tree, and spatial index. It is the operator-facing front end of
// Database.Check.
//
//	$ pictdbcheck us.db
//	us.db: 412 pages, 3 free, 5 relations, 0 leaked: OK
//
// Sharded relations keep their tuples in sidecar page files
// (file.db.<relation>.s<N>), each with its own write-ahead log; the
// checker inspects every shard WAL before opening and verifies every
// shard file, the shard files side by side; the report is the same at
// any core count. Each sharded relation gets a balance line (shard
// count and imbalance factor, with per-shard tuple counts and Hilbert
// key ranges under -v), and shard page files no catalog relation
// references — left by a crash between creating the files and the
// checkpoint that would have named them — are flagged as orphans.
//
// Exit status is 0 for a healthy file, 1 when verification finds
// problems or the file cannot be opened (a file in a retired format is
// refused as such, and left untouched), 2 for usage errors. Each
// problem prints as one line with the implicated page, the component
// that failed, and the underlying typed error.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	pictdb "repro"
	"repro/internal/pager"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pictdbcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	pool := fs.Int("pool", 256, "buffer pool size in pages")
	verbose := fs.Bool("v", false, "print per-component summary even when healthy")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: pictdbcheck [-pool N] [-v] file.db")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}
	path := fs.Arg(0)

	// Opening a pictdb file creates it when absent; a checker must not.
	if _, err := os.Stat(path); err != nil {
		fmt.Fprintf(stderr, "pictdbcheck: %v\n", err)
		return 1
	}

	// Inspect every write-ahead log sidecar before opening: opening runs
	// recovery, which replays and truncates the logs, destroying the
	// evidence a checker should report. A torn tail after the last
	// commit is a tolerated crash artifact; a corrupt record BEFORE a
	// later commit means acknowledged data is damaged, and the file
	// must not be opened (recovery would silently replay a prefix).
	// Sharded relations add one WAL per shard file, each independent.
	for _, wf := range append([]string{path}, shardFiles(path)...) {
		wal, err := pager.InspectWALFile(pager.WALPath(wf))
		if err != nil {
			fmt.Fprintf(stderr, "pictdbcheck: %s: %v\n", pager.WALPath(wf), err)
			return 1
		}
		walLine := describeWAL(wal)
		if !wal.OK() {
			fmt.Fprintf(stdout, "%s: wal: %s\n", wf, walLine)
			for _, p := range wal.Problems {
				fmt.Fprintf(stdout, "  %s\n", p)
			}
			fmt.Fprintln(stderr, "pictdbcheck: write-ahead log is corrupt before its last commit; committed data would be lost on recovery")
			return 1
		}
		if *verbose || !wal.Empty {
			fmt.Fprintf(stdout, "%s: wal: %s\n", wf, walLine)
		}
	}

	db, report, err := pictdb.OpenChecked(path, *pool)
	if err != nil {
		fmt.Fprintf(stderr, "pictdbcheck: %v\n", err)
		if errors.Is(err, pictdb.ErrUnsupportedFormat) {
			fmt.Fprintln(stderr, "pictdbcheck: unsupported format: the file predates the checksummed page format or the current catalog format; it is not corrupt and was not modified")
		}
		return 1
	}
	defer db.Close()

	for _, f := range shardReport(db, path, *verbose, stdout) {
		fmt.Fprintf(stdout, "%s: orphan shard file (no catalog reference; safe to remove)\n", f)
	}

	summary := fmt.Sprintf("%s: %d pages, %d free, %d relations, %d leaked",
		path, report.Pages, report.FreePages, report.Relations, report.Leaked)
	if report.OK() {
		fmt.Fprintf(stdout, "%s: OK\n", summary)
		if *verbose {
			fmt.Fprintln(stdout, "all page checksums, free-list links, and index invariants verified")
		}
		return 0
	}
	fmt.Fprintf(stdout, "%s: %d problem(s)\n", summary, len(report.Problems))
	for _, p := range report.Problems {
		fmt.Fprintf(stdout, "  %s\n", p)
	}
	fmt.Fprintln(stderr, "pictdbcheck: database is corrupt; it was opened in read-only degraded mode")
	return 1
}

// shardReport prints one balance line per sharded relation — shard
// count and imbalance factor (largest shard over the mean), with the
// per-shard tuple counts and Hilbert key ranges under -v — and returns
// any orphan sidecar files: shard page files on disk that no catalog
// relation references. Orphans are left by a crash between creating
// shard files and the checkpoint that would have named them (a
// CreateShardedRelation, or an earlier build's online shard split);
// they hold no committed data and are safe to remove.
func shardReport(db *pictdb.Database, path string, verbose bool, stdout io.Writer) []string {
	known := map[string]bool{}
	for _, name := range db.RelationNames() {
		rel, ok := db.Relation(name)
		if !ok || !rel.Sharded() {
			continue
		}
		infos, imbalance := rel.ShardBalance()
		for s := range infos {
			known[pictdb.ShardPath(path, name, s)] = true
		}
		fmt.Fprintf(stdout, "%s: %s: %d shard(s), imbalance %.2f\n", path, name, len(infos), imbalance)
		if verbose {
			for _, in := range infos {
				fmt.Fprintf(stdout, "  s%d: %d tuple(s), hilbert keys [%d, %d)\n",
					in.Shard, in.Items, in.KeyLo, in.KeyHi)
			}
		}
	}
	var orphans []string
	for _, f := range shardFiles(path) {
		if !known[f] {
			orphans = append(orphans, f)
		}
	}
	return orphans
}

// shardFiles lists the shard page files next to path
// (path.<relation>.s<N>), excluding their WAL sidecars, in
// deterministic order.
func shardFiles(path string) []string {
	matches, err := filepath.Glob(path + ".*.s*")
	if err != nil {
		return nil
	}
	var out []string
	for _, m := range matches {
		if strings.HasSuffix(m, ".wal") {
			continue
		}
		// Require a numeric shard suffix: <anything>.sN
		i := strings.LastIndex(m, ".s")
		if i < 0 || !allDigits(m[i+2:]) {
			continue
		}
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

func allDigits(s string) bool {
	if s == "" {
		return false
	}
	for _, c := range s {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}

// describeWAL renders one operator-facing line about the sidecar log's
// pre-recovery state: how many CRC-validated records and commits it
// holds, the last durable generation, and whether a torn tail (from a
// crash mid-append) will be discarded on the next open.
func describeWAL(r *pager.WALReport) string {
	if r.Empty && !r.TornTail {
		return "empty (fresh or fully checkpointed)"
	}
	s := fmt.Sprintf("%d record(s), %d commit(s), last durable generation %d, checksums OK",
		r.Records, r.Commits, r.LastGen)
	if r.CorruptBefore {
		s = fmt.Sprintf("%d record(s), %d commit(s), CORRUPT record at offset %d before the last commit",
			r.Records, r.Commits, r.TornAt)
	} else if r.TornTail {
		s += fmt.Sprintf("; torn tail at offset %d will be discarded by recovery", r.TornAt)
	}
	return s
}
