// Command pictdbcheck verifies a pictdb page file: page checksums,
// free-list structure, catalog superblock, and every relation heap,
// B-tree, and spatial index. It is the operator-facing front end of
// Database.Check.
//
//	$ pictdbcheck us.db
//	us.db: 412 pages, 3 free, 5 relations, 0 leaked: OK
//
// A database is one page file and its write-ahead log (file.db.wal),
// which the checker inspects before opening; every relation is one heap
// in the page file.
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

	// Inspect the write-ahead log sidecar before opening: opening runs
	// recovery, which replays and truncates the log, destroying the
	// evidence a checker should report. A torn tail after the last
	// commit is a tolerated crash artifact; a corrupt record BEFORE a
	// later commit means acknowledged data is damaged, and the file
	// must not be opened (recovery would silently replay a prefix).
	wal, err := pager.InspectWALFile(pager.WALPath(path))
	if err != nil {
		fmt.Fprintf(stderr, "pictdbcheck: %s: %v\n", pager.WALPath(path), err)
		return 1
	}
	walLine := describeWAL(wal)
	if !wal.OK() {
		fmt.Fprintf(stdout, "%s: wal: %s\n", path, walLine)
		for _, p := range wal.Problems {
			fmt.Fprintf(stdout, "  %s\n", p)
		}
		fmt.Fprintln(stderr, "pictdbcheck: write-ahead log is corrupt before its last commit; committed data would be lost on recovery")
		return 1
	}
	if *verbose || !wal.Empty {
		fmt.Fprintf(stdout, "%s: wal: %s\n", path, walLine)
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
