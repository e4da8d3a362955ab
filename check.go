package pictdb

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/pager"
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

// ErrDanglingLoc is Relation.Insert's refusal of a loc whose object it
// can take neither from the value nor from its picture's staged objects.
var ErrDanglingLoc = relation.ErrDanglingLoc

// CheckProblem is one verification finding, anchored to the page it
// was detected on (0 when no single page is implicated).
type CheckProblem struct {
	Page      pager.PageID
	Component string // "page", "free-list", "superblock", "catalog", "relation:<name>", "ownership"
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
// per-page diagnostics. It never mutates the file. One file pass
// (checkFile) covers the database; the structures the file holds, every
// relation's heap among them, claim their pages inside it.
func (db *Database) Check() *CheckReport {
	r := &CheckReport{}
	r.checkFile(db.pager, func(claim func(pager.PageID, string)) {
		// The catalog superblock and definitions heap.
		claim(superblockID, "superblock")
		if defsID, err := db.definitionsPage(); err != nil {
			r.add(superblockID, "superblock", err)
		} else if defsID != pager.InvalidPage {
			if int(defsID) >= db.pager.NumPages() {
				r.add(superblockID, "catalog", fmt.Errorf("%w: definitions page %d out of range", ErrCorrupt, defsID))
			} else if defs, err := storage.Open(db.pager, defsID); err != nil {
				r.add(defsID, "catalog", err)
			} else {
				if err := defs.Check(); err != nil {
					r.add(defsID, "catalog", err)
				}
				if pages, err := defs.Pages(); err != nil {
					r.add(defsID, "catalog", err)
				} else {
					for _, id := range pages {
						claim(id, "catalog")
					}
				}
			}
		}

		// Relations: heap structure, tuple decodability, index
		// invariants, index→tuple resolution (Relation.Check); then each
		// heap's pages are claimed.
		rels := db.catalog().relations
		names := sortedNames(rels)
		r.Relations = len(names)
		for _, name := range names {
			rel := rels[name]
			component := "relation:" + name
			if err := rel.Check(); err != nil {
				r.add(pager.InvalidPage, component, err)
			}
			if pages, err := rel.HeapPages(); err != nil {
				r.add(pager.InvalidPage, component, err)
			} else {
				for _, id := range pages {
					claim(id, component)
				}
			}
		}
		r.checkObjects(rels, names)
	})
	return r
}

// checkObjects files a finding for every tuple, of any relation, that
// carries an object id of a picture encoded unlike the first tuple that
// carries it: a reader takes a loc's object from its own tuple, so the
// two would answer one loc two ways.
func (r *CheckReport) checkObjects(rels map[string]*relation.Relation, names []string) {
	seen := make(map[relation.LocRef]string) // the first encoding of each object
	for _, name := range names {
		// A relation whose tuples do not decode has its finding already.
		_ = rels[name].Scan(func(id storage.TupleID, t relation.Tuple) bool {
			for _, v := range t {
				if v.Type != relation.TypeLoc || v.Loc.IsZero() {
					continue
				}
				if enc, ok := seen[v.Loc]; !ok {
					seen[v.Loc] = v.Str
				} else if enc != v.Str {
					r.add(pager.InvalidPage, "relation:"+name, fmt.Errorf("%w: tuple %v carries object %v encoded unlike another tuple", ErrCorrupt, id, v.Loc))
				}
			}
			return true
		})
	}
}

// add files one finding.
func (r *CheckReport) add(page pager.PageID, component string, err error) {
	r.Problems = append(r.Problems, CheckProblem{Page: page, Component: component, Err: err})
}

// checkFile is the file-level pass over the page file p, and adds p's
// pages, free pages and leaks to r:
//
//  1. every page reads back with a valid checksum trailer (Fetch
//     verifies it);
//  2. the free list is in range, acyclic and checksummed, and its pages
//     are claimed first;
//  3. claims claims the pages of the structures p holds, and a page
//     claimed twice is an ownership finding;
//  4. allocated pages no structure owns are counted as leaked — benign:
//     a crash between a data sync and its header commit strands them.
//
// Findings of the pass itself are filed under "page", "free-list" and
// "ownership".
func (r *CheckReport) checkFile(p *pager.Pager, claims func(claim func(pager.PageID, string))) {
	r.Pages += p.NumPages()
	for id := pager.PageID(1); int(id) < p.NumPages(); id++ {
		pg, err := p.Fetch(id)
		if err != nil {
			r.add(id, "page", err)
			continue
		}
		p.Unpin(pg)
	}

	owners := make(map[pager.PageID]string)
	claim := func(id pager.PageID, owner string) {
		if prev, dup := owners[id]; dup {
			r.add(id, "ownership", fmt.Errorf("%w: page claimed by both %s and %s", ErrCorrupt, prev, owner))
			return
		}
		owners[id] = owner
	}
	free, err := p.FreePages()
	if err != nil {
		r.add(pager.InvalidPage, "free-list", err)
	}
	r.FreePages += len(free)
	for _, id := range free {
		claim(id, "free-list")
	}
	claims(claim)

	for id := 1; id < p.NumPages(); id++ {
		if _, ok := owners[pager.PageID(id)]; !ok {
			r.Leaked++
		}
	}
}
