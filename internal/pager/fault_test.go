package pager

import (
	"errors"
	"fmt"
	"testing"
)

// buildImage creates a committed page file image with n patterned
// pages, returning its bytes.
func buildImage(t *testing.T, n int) []byte {
	t.Helper()
	mem := NewMemBackend(nil)
	p, err := OpenBackend(mem, n+4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		pg, err := p.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		fillPage(pg)
		p.Unpin(pg)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	return mem.Bytes()
}

// typedCorruption reports whether err is one of the typed errors the
// durability layer is allowed to surface for a damaged file.
func typedCorruption(err error) bool {
	return errors.Is(err, ErrChecksum) ||
		errors.Is(err, ErrTruncated) ||
		errors.Is(err, ErrBadMagic) ||
		errors.Is(err, ErrPageRange)
}

func TestFaultReadError(t *testing.T) {
	img := buildImage(t, 4)
	// Fail the first read: the header itself is unreadable.
	fb := NewFaultBackend(NewMemBackend(img), FaultConfig{FailRead: 1})
	if _, err := OpenBackend(fb, 8); !errors.Is(err, ErrInjected) {
		t.Fatalf("open with failing header read: %v, want ErrInjected", err)
	}
	// Fail a later read: open succeeds, the Fetch that needs the read
	// reports the injected error.
	fb = NewFaultBackend(NewMemBackend(img), FaultConfig{FailRead: 3})
	p, err := OpenBackend(fb, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var sawInjected bool
	for id := PageID(1); id <= 4; id++ {
		if _, err := p.Fetch(id); err != nil {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("Fetch(%d): %v, want ErrInjected", id, err)
			}
			sawInjected = true
		} else if pg, _ := p.Fetch(id); pg != nil {
			p.Unpin(pg)
			p.Unpin(pg)
		}
	}
	if !sawInjected {
		t.Fatal("expected one injected read fault")
	}
	if faults := fb.Faults(); len(faults) != 1 {
		t.Fatalf("Faults() = %v, want exactly one", faults)
	}
}

func TestFaultWriteError(t *testing.T) {
	fb := NewFaultBackend(NewMemBackend(nil), FaultConfig{FailWrite: 2})
	p, err := OpenBackend(fb, 8) // write 1: fresh header
	if err != nil {
		t.Fatal(err)
	}
	pg, err := p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	fillPage(pg)
	p.Unpin(pg)
	if err := p.Commit(); !errors.Is(err, ErrInjected) {
		t.Fatalf("Commit with failing page write: %v, want ErrInjected", err)
	}
}

func TestFaultShortWrite(t *testing.T) {
	fb := NewFaultBackend(NewMemBackend(nil), FaultConfig{ShortWrite: 2})
	p, err := OpenBackend(fb, 8)
	if err != nil {
		t.Fatal(err)
	}
	pg, err := p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	fillPage(pg)
	p.Unpin(pg)
	if err := p.Commit(); !errors.Is(err, ErrInjected) {
		t.Fatalf("Commit with short page write: %v, want ErrInjected", err)
	}
}

func TestFaultSyncError(t *testing.T) {
	fb := NewFaultBackend(NewMemBackend(nil), FaultConfig{FailSync: 1})
	p, err := OpenBackend(fb, 8)
	if err != nil {
		t.Fatal(err)
	}
	pg, err := p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	fillPage(pg)
	p.Unpin(pg)
	if err := p.Commit(); !errors.Is(err, ErrInjected) {
		t.Fatalf("Commit with failing sync: %v, want ErrInjected", err)
	}
}

// TestTornWriteDetected tears a data-page write (half the page
// persists while the write reports success) and requires the damage to
// surface as a typed error on the next read of that page.
func TestTornWriteDetected(t *testing.T) {
	mem := NewMemBackend(nil)
	// Write 1 is the fresh-file header; write 2 is the first data page
	// flushed by Commit.
	fb := NewFaultBackend(mem, FaultConfig{TornWrite: 2})
	p, err := OpenBackend(fb, 8)
	if err != nil {
		t.Fatal(err)
	}
	var ids []PageID
	for i := 0; i < 3; i++ {
		pg, err := p.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		fillPage(pg)
		ids = append(ids, pg.ID)
		p.Unpin(pg)
	}
	// Commit "succeeds": the torn write lied.
	if err := p.Commit(); err != nil {
		t.Fatalf("Commit over torn write reported failure: %v", err)
	}

	// Reopen from the backing bytes, as after a crash.
	p2, err := OpenBackend(NewMemBackend(mem.Bytes()), 8)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	var torn int
	for _, id := range ids {
		pg, err := p2.Fetch(id)
		switch {
		case err == nil:
			checkPattern(t, pg) // verified pages must be intact
			p2.Unpin(pg)
		case errors.Is(err, ErrChecksum), errors.Is(err, ErrTruncated):
			// Write-back order within a stripe is unspecified; a tear of
			// the file's last page leaves it short rather than mismatched.
			torn++
		default:
			t.Fatalf("Fetch(%d): %v, want success, ErrChecksum or ErrTruncated", id, err)
		}
	}
	if torn != 1 {
		t.Fatalf("%d pages failed verification, want exactly the torn one", torn)
	}
}

// TestRandomTornWritesNeverSilent runs many seeds of probabilistic
// write tearing through a full workload and asserts the core
// durability invariant: every page read back either carries exactly
// the bytes that were written or fails with a typed corruption error.
// No fault may produce a successful read of wrong data.
func TestRandomTornWritesNeverSilent(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			mem := NewMemBackend(nil)
			fb := NewFaultBackend(mem, FaultConfig{Seed: seed, TornWriteProb: 0.3})
			p, err := OpenBackend(fb, 4) // tiny pool forces evictions mid-run
			if err != nil {
				t.Fatal(err)
			}
			var ids []PageID
			for i := 0; i < 12; i++ {
				pg, err := p.Allocate()
				if err != nil {
					t.Fatal(err)
				}
				fillPage(pg)
				ids = append(ids, pg.ID)
				p.Unpin(pg)
			}
			p.Commit() // may or may not surface an error; both are fine
			p.Close()

			p2, err := OpenBackend(NewMemBackend(mem.Bytes()), 16)
			if err != nil {
				if !typedCorruption(err) {
					t.Fatalf("reopen: %v is not a typed corruption error (faults: %v)", err, fb.Faults())
				}
				return
			}
			defer p2.Close()
			for _, id := range ids {
				if int(id) >= p2.NumPages() {
					continue // header never committed past this page
				}
				pg, err := p2.Fetch(id)
				if err != nil {
					if !typedCorruption(err) {
						t.Fatalf("Fetch(%d): %v is not typed (faults: %v)", id, err, fb.Faults())
					}
					continue
				}
				// The invariant: a successful read is a correct read.
				checkPattern(t, pg)
				p2.Unpin(pg)
			}
		})
	}
}

// TestCrashPointsPager snapshots the backing bytes at every sync and
// reopens the pager from each snapshot — the states an ordered-write
// crash can leave. Every snapshot must open (one of the header slots
// is always intact) and every page inside the recovered header's page
// count must verify.
func TestCrashPointsPager(t *testing.T) {
	snap := NewSnapshotBackend()
	p, err := OpenBackend(snap, 8)
	if err != nil {
		t.Fatal(err)
	}
	var ids []PageID
	for round := 0; round < 4; round++ {
		for i := 0; i < 3; i++ {
			pg, err := p.Allocate()
			if err != nil {
				t.Fatal(err)
			}
			fillPage(pg)
			ids = append(ids, pg.ID)
			p.Unpin(pg)
		}
		if err := p.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	snaps := snap.Snapshots()
	if len(snaps) < 8 {
		t.Fatalf("expected at least 8 sync snapshots, got %d", len(snaps))
	}
	for i, img := range snaps {
		p2, err := OpenBackend(NewMemBackend(img), 16)
		if err != nil {
			t.Fatalf("snapshot %d: reopen: %v", i, err)
		}
		if _, err := p2.FreePages(); err != nil {
			t.Fatalf("snapshot %d: free list: %v", i, err)
		}
		for id := 1; id < p2.NumPages(); id++ {
			pg, err := p2.Fetch(PageID(id))
			if err != nil {
				t.Fatalf("snapshot %d: page %d: %v", i, id, err)
			}
			checkPattern(t, pg)
			p2.Unpin(pg)
		}
		p2.Close()
	}
}
