package pictdb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"

	"repro/internal/pager"
	"repro/internal/par"
	"repro/internal/relation"
	"repro/internal/storage"
)

// Database verification: Check walks every layer of a persisted
// database — raw pages (checksum trailers), the free list, the catalog
// superblock and definitions heap, every relation heap (every tuple,
// the object its loc carries included), B-tree and spatial index — and
// reports per-page diagnostics. It is the engine behind the
// `pictdbcheck` operator tool and the oracle the fault-injection suite
// holds crash states against: a reopened database must either Check
// clean or fail with a typed corruption error, never serve silently
// wrong results.

// ErrCorrupt is the typed root of database-level corruption findings.
var ErrCorrupt = errors.New("pictdb: corrupt database")

// ErrUnsupportedFormat is returned by Open for a page file or catalog
// in a format this engine no longer reads (v1 pages, partially
// checksummed files, a PICTCAT1 catalog). The file is left untouched.
var ErrUnsupportedFormat = pager.ErrUnsupportedFormat

// ErrDanglingLoc is Relation.Insert's refusal of a non-zero loc that
// names no picture of the database, or no object of that picture.
var ErrDanglingLoc = relation.ErrDanglingLoc

// CheckProblem is one verification finding, anchored to the page it
// was detected on (0 when no single page is implicated).
type CheckProblem struct {
	Page      pager.PageID
	Component string // "page", "free-list", "superblock", "catalog", "relation:<name>", "relation:<name>:shard:<i>", "ownership"
	Err       error
}

func (p CheckProblem) String() string {
	if p.Page != pager.InvalidPage {
		return fmt.Sprintf("page %d [%s]: %v", p.Page, p.Component, p.Err)
	}
	return fmt.Sprintf("[%s]: %v", p.Component, p.Err)
}

// CheckReport summarizes a verification pass.
type CheckReport struct {
	Pages     int // pages in the file, header included
	FreePages int // pages on the free list
	Relations int // relations verified
	Leaked    int // allocated pages owned by no structure (benign: crash between commits)
	Problems  []CheckProblem
}

// OK reports whether verification found no problems.
func (r *CheckReport) OK() bool { return len(r.Problems) == 0 }

// Err returns nil for a clean report, and otherwise an error wrapping
// ErrCorrupt that lists every finding.
func (r *CheckReport) Err() error {
	if r.OK() {
		return nil
	}
	msgs := make([]string, len(r.Problems))
	for i, p := range r.Problems {
		msgs[i] = p.String()
	}
	return fmt.Errorf("%w: %d problem(s): %s", ErrCorrupt, len(r.Problems), strings.Join(msgs, "; "))
}

// IsCorruption reports whether err is a typed corruption finding from
// any storage layer: a page checksum or magic failure, a truncated
// file, a corrupt slotted page, or a Check verdict. The
// fault-injection suite uses it to assert that no failure mode
// surfaces as anything other than a typed error.
func IsCorruption(err error) bool {
	return errors.Is(err, pager.ErrChecksum) ||
		errors.Is(err, pager.ErrTruncated) ||
		errors.Is(err, pager.ErrBadMagic) ||
		errors.Is(err, pager.ErrPageRange) ||
		errors.Is(err, storage.ErrCorrupt) ||
		errors.Is(err, ErrCorrupt)
}

// Check verifies the whole database and returns a report with
// per-page diagnostics. It never mutates the file. Shard files of
// sharded relations are verified too (serially; CheckParallel fans
// them out).
func (db *Database) Check() *CheckReport { return db.CheckParallel(1) }

// CheckParallel is Check with up to workers shard files verified
// concurrently — per-shard verification is independent (each shard is
// its own page file), so `pictdbcheck -parallel` overlaps their page
// scans. The report is identical at every worker count; workers <= 1 is
// serial.
func (db *Database) CheckParallel(workers int) *CheckReport {
	r := &CheckReport{Pages: db.pager.NumPages()}
	add := func(page pager.PageID, component string, err error) {
		r.Problems = append(r.Problems, CheckProblem{Page: page, Component: component, Err: err})
	}

	// 1. Raw page scan: every page must read back with a valid trailer
	// (or be a tolerated pre-upgrade page in a partially checksummed
	// file). Fetch performs the verification.
	for id := pager.PageID(1); int(id) < db.pager.NumPages(); id++ {
		pg, err := db.pager.Fetch(id)
		if err != nil {
			add(id, "page", err)
			continue
		}
		db.pager.Unpin(pg)
	}

	// 2. Free list: in-range, acyclic, checksummed links.
	owners := make(map[pager.PageID]string)
	claim := func(id pager.PageID, owner string) {
		if prev, dup := owners[id]; dup {
			add(id, "ownership", fmt.Errorf("%w: page claimed by both %s and %s", ErrCorrupt, prev, owner))
			return
		}
		owners[id] = owner
	}
	free, err := db.pager.FreePages()
	if err != nil {
		add(pager.InvalidPage, "free-list", err)
	}
	r.FreePages = len(free)
	for _, id := range free {
		claim(id, "free-list")
	}

	// 3. Catalog superblock and definitions heap.
	claim(superblockID, "superblock")
	sb, err := db.pager.Fetch(superblockID)
	if err != nil {
		add(superblockID, "superblock", err)
	} else {
		if [8]byte(sb.Data[:8]) != catMagic {
			add(superblockID, "superblock", fmt.Errorf("%w: bad catalog magic %q", ErrCorrupt, sb.Data[:8]))
		}
		defsID := pager.PageID(binary.LittleEndian.Uint32(sb.Data[8:12]))
		db.pager.Unpin(sb)
		if defsID != pager.InvalidPage {
			if int(defsID) >= db.pager.NumPages() {
				add(superblockID, "catalog", fmt.Errorf("%w: definitions page %d out of range", ErrCorrupt, defsID))
			} else if defs, err := storage.Open(db.pager, defsID); err != nil {
				add(defsID, "catalog", err)
			} else {
				if err := defs.Check(); err != nil {
					add(defsID, "catalog", err)
				}
				if pages, err := defs.Pages(); err != nil {
					add(defsID, "catalog", err)
				} else {
					for _, id := range pages {
						claim(id, "catalog")
					}
				}
			}
		}
	}

	// 4. Relations: heap structure, tuple decodability, index invariants,
	// index→tuple resolution.
	rels := db.catalog().relations
	names := sortedNames(rels)
	r.Relations = len(names)
	for _, name := range names {
		rel := rels[name]
		component := "relation:" + name
		// Logical invariants (id directory, heaps, indexes) check store
		// by store in parallel; then a sharded relation's page files get
		// the raw-page / free-list / ownership pass the main file gets
		// above, and a main-file relation claims its heap pages there.
		if err := rel.CheckShards(workers); err != nil {
			add(pager.InvalidPage, component, err)
		}
		if rel.Sharded() {
			db.checkShardFiles(rel, component, workers, r)
			continue
		}
		if pages, err := rel.HeapPages(); err != nil {
			add(pager.InvalidPage, component, err)
		} else {
			for _, id := range pages {
				claim(id, component)
			}
		}
	}

	// 5. Accounting: every page should be owned by exactly one
	// structure. Unowned pages are leaked, not corrupt — a crash
	// between a data sync and its header commit can strand them.
	for id := 1; id < db.pager.NumPages(); id++ {
		if _, ok := owners[pager.PageID(id)]; !ok {
			r.Leaked++
		}
	}
	return r
}

// checkShardFiles runs the file-level verification pass — raw page
// scan, free list, heap-page ownership, leak accounting — over every
// shard file of a sharded relation, up to workers shards concurrently.
// Findings land under component "<component>:shard:<i>" with
// shard-file-local page ids, appended in shard order so the report is
// deterministic at every worker count.
func (db *Database) checkShardFiles(rel *relation.Relation, component string, workers int, r *CheckReport) {
	n := rel.ShardCount()
	type shardResult struct {
		pages    int
		free     int
		leaked   int
		problems []CheckProblem
	}
	results := make([]shardResult, n)
	checkOne := func(s int) {
		res := &results[s]
		comp := fmt.Sprintf("%s:shard:%d", component, s)
		add := func(page pager.PageID, err error) {
			res.problems = append(res.problems, CheckProblem{Page: page, Component: comp, Err: err})
		}
		sp := rel.ShardPager(s)
		res.pages = sp.NumPages()

		// Raw page scan: valid trailer on every page.
		for id := pager.PageID(1); int(id) < sp.NumPages(); id++ {
			pg, err := sp.Fetch(id)
			if err != nil {
				add(id, err)
				continue
			}
			sp.Unpin(pg)
		}

		// Free list + ownership, scoped to this shard's file.
		owners := make(map[pager.PageID]string)
		claim := func(id pager.PageID, owner string) {
			if prev, dup := owners[id]; dup {
				add(id, fmt.Errorf("%w: page claimed by both %s and %s", ErrCorrupt, prev, owner))
				return
			}
			owners[id] = owner
		}
		free, err := sp.FreePages()
		if err != nil {
			add(pager.InvalidPage, err)
		}
		res.free = len(free)
		for _, id := range free {
			claim(id, "free-list")
		}
		if pages, err := rel.ShardHeapPages(s); err != nil {
			add(pager.InvalidPage, err)
		} else {
			for _, id := range pages {
				claim(id, "heap")
			}
		}
		for id := 1; id < sp.NumPages(); id++ {
			if _, ok := owners[pager.PageID(id)]; !ok {
				res.leaked++
			}
		}
	}
	_ = par.Do(n, max(workers, 1), func(s int) error {
		checkOne(s)
		return nil
	})
	for s := range results {
		r.Pages += results[s].pages
		r.FreePages += results[s].free
		r.Leaked += results[s].leaked
		r.Problems = append(r.Problems, results[s].problems...)
	}
}
