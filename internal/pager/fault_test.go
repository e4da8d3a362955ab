package pager

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

// buildImage creates a committed page file image with n patterned
// pages, returning its bytes.
func buildImage(t *testing.T, n int) []byte {
	t.Helper()
	mem := NewMemBackend(nil)
	p, _ := newWALPager(t, mem, n+4)
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

// filledPage allocates one patterned page on p and commits it to the log.
func filledPage(t *testing.T, p *Pager) PageID {
	t.Helper()
	pg, err := p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	fillPage(pg)
	id := pg.ID
	p.Unpin(pg)
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	return id
}

// The page file is written only by a checkpoint (and by recovery), so
// its write and sync faults surface there.
func TestFaultWriteError(t *testing.T) {
	fb := NewFaultBackend(NewMemBackend(nil), FaultConfig{FailWrite: 2})
	p, _ := newWALPager(t, fb, 8) // write 1: fresh header
	filledPage(t, p)
	if err := p.CheckpointWAL(); !errors.Is(err, ErrInjected) {
		t.Fatalf("checkpoint with failing page write: %v, want ErrInjected", err)
	}
}

func TestFaultShortWrite(t *testing.T) {
	fb := NewFaultBackend(NewMemBackend(nil), FaultConfig{ShortWrite: 2})
	p, _ := newWALPager(t, fb, 8)
	filledPage(t, p)
	if err := p.CheckpointWAL(); !errors.Is(err, ErrInjected) {
		t.Fatalf("checkpoint with short page write: %v, want ErrInjected", err)
	}
}

func TestFaultSyncError(t *testing.T) {
	fb := NewFaultBackend(NewMemBackend(nil), FaultConfig{FailSync: 1})
	p, _ := newWALPager(t, fb, 8)
	filledPage(t, p)
	if err := p.CheckpointWAL(); !errors.Is(err, ErrInjected) {
		t.Fatalf("checkpoint with failing sync: %v, want ErrInjected", err)
	}
}

// TestTornWriteDetected tears a data-page write (half the page
// persists while the write reports success) and requires the damage to
// surface as a typed error on the next read of that page.
func TestTornWriteDetected(t *testing.T) {
	mem := NewMemBackend(nil)
	// Write 1 is the fresh-file header; write 2 is the first page the
	// checkpoint writes back.
	fb := NewFaultBackend(mem, FaultConfig{TornWrite: 2})
	p, _ := newWALPager(t, fb, 8)
	var ids []PageID
	for i := 0; i < 3; i++ {
		ids = append(ids, filledPage(t, p))
	}
	// The checkpoint "succeeds": the torn write lied.
	if err := p.CheckpointWAL(); err != nil {
		t.Fatalf("checkpoint over torn write reported failure: %v", err)
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
			// A tear of the file's last page leaves it short rather than
			// mismatched.
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
			p, _ := newWALPager(t, fb, 4)
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
			p.Commit()
			p.Close() // writes back through fb: may or may not surface an error; both are fine

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

// TestCrashPointsPager captures the page file and its log at every
// sync of a pager that allocates, commits and checkpoints in rounds, and
// reopens each capture with recovery. Every capture must open, hold a
// committed round's page count no smaller than the last round
// acknowledged when it was taken, keep a valid free list, and verify
// every page inside its page count with the bytes written to it.
func TestCrashPointsPager(t *testing.T) {
	pair := NewCrashPair()
	var acked atomic.Int64 // pages acknowledged, header included
	acked.Store(1)
	ackedAt := make(map[int]int64)
	pair.OnSync = func(i int, _ CrashImage) { ackedAt[i] = acked.Load() } // serialized by the pair
	p, err := OpenBackend(pair.Main(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.EnableWALBackend(pair.WAL()); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 4; round++ {
		for i := 0; i < 3; i++ {
			pg, err := p.Allocate()
			if err != nil {
				t.Fatal(err)
			}
			fillPage(pg)
			p.Unpin(pg)
		}
		if err := p.Commit(); err != nil {
			t.Fatal(err)
		}
		acked.Store(int64(p.NumPages()))
		if round%2 == 1 {
			if err := p.CheckpointWAL(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	images := pair.Images()
	if len(images) < 8 {
		t.Fatalf("expected at least 8 crash images, got %d", len(images))
	}
	for i, img := range images {
		p2, err := OpenBackend(NewMemBackend(img.Main), 16)
		if err != nil {
			t.Fatalf("image %d: reopen: %v", i, err)
		}
		if err := p2.EnableWALBackend(NewMemBackend(img.WAL)); err != nil {
			t.Fatalf("image %d: recovery: %v", i, err)
		}
		if n := int64(p2.NumPages()); (n-1)%3 != 0 || n < ackedAt[i] {
			t.Fatalf("image %d: %d pages, not a committed round at or past the %d acknowledged", i, n, ackedAt[i])
		}
		if _, err := p2.FreePages(); err != nil {
			t.Fatalf("image %d: free list: %v", i, err)
		}
		for id := 1; id < p2.NumPages(); id++ {
			pg, err := p2.Fetch(PageID(id))
			if err != nil {
				t.Fatalf("image %d: page %d: %v", i, id, err)
			}
			checkPattern(t, pg)
			p2.Unpin(pg)
		}
		p2.Close()
	}
}
