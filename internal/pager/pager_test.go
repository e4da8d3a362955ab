package pager

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
)

func TestAllocateFetchRoundtrip(t *testing.T) {
	p := OpenMem(4)
	defer p.Close()

	pg, err := p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if pg.ID == InvalidPage {
		t.Fatal("allocated the invalid page id")
	}
	copy(pg.Data[:], "hello pages")
	pg.MarkDirty()
	id := pg.ID
	p.Unpin(pg)

	got, err := p.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Unpin(got)
	if string(got.Data[:11]) != "hello pages" {
		t.Fatalf("page data = %q", got.Data[:11])
	}
}

func TestFetchInvalid(t *testing.T) {
	p := OpenMem(2)
	defer p.Close()
	if _, err := p.Fetch(InvalidPage); err == nil {
		t.Error("fetching page 0 should fail")
	}
	if _, err := p.Fetch(99); err == nil {
		t.Error("fetching out-of-range page should fail")
	}
}

func TestPoolExhaustion(t *testing.T) {
	p := OpenMem(2)
	defer p.Close()
	a, err := p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Allocate(); !errors.Is(err, ErrPoolExhausted) {
		t.Fatalf("third allocation with all pages pinned: %v, want ErrPoolExhausted", err)
	}
	p.Unpin(a)
	c, err := p.Allocate()
	if err != nil {
		t.Fatalf("allocation after unpin should succeed: %v", err)
	}
	p.Unpin(b)
	p.Unpin(c)
}

// atGOMAXPROCS runs fn as a subtest at 1, 2 and 8 procs: the pool's
// behaviour must not depend on the core count.
func atGOMAXPROCS(t *testing.T, fn func(t *testing.T)) {
	for _, n := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("procs=%d", n), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
			fn(t)
		})
	}
}

// TestPoolExhaustedOnlyWhenFullyPinned: pins of pages whose ids share
// their low bits fill the pool like any others; the typed error arrives
// exactly when as many pages as the pool holds are pinned, at any core
// count.
func TestPoolExhaustedOnlyWhenFullyPinned(t *testing.T) {
	atGOMAXPROCS(t, func(t *testing.T) {
		const pool = 32
		p := OpenMem(pool)
		defer p.Close()
		for i := 0; i < 16*(pool+1); i++ {
			pg, err := p.Allocate()
			if err != nil {
				t.Fatal(err)
			}
			p.Unpin(pg)
			// Committed pages are clean, so later installs can evict them.
			if err := p.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		var held []*Page
		for i := 1; i <= pool; i++ {
			pg, err := p.Fetch(PageID(16 * i))
			if err != nil {
				t.Fatalf("pin %d of %d: %v", i, pool, err)
			}
			held = append(held, pg)
		}
		const next = PageID(16 * (pool + 1))
		if _, err := p.Fetch(next); !errors.Is(err, ErrPoolExhausted) {
			t.Fatalf("fetch with the whole pool pinned: %v, want ErrPoolExhausted", err)
		}
		p.Unpin(held[0])
		pg, err := p.Fetch(next)
		if err != nil {
			t.Fatalf("fetch after one unpin: %v", err)
		}
		p.Unpin(pg)
		for _, h := range held[1:] {
			p.Unpin(h)
		}
	})
}

// TestEvictionIsPoolWideLRU: the victim is the least recently used
// clean page of the whole pool, whatever its id, at any core count.
func TestEvictionIsPoolWideLRU(t *testing.T) {
	atGOMAXPROCS(t, func(t *testing.T) {
		const pool = 32
		p := OpenMem(pool)
		defer p.Close()
		var ids []PageID
		for i := 0; i < pool+1; i++ {
			pg, err := p.Allocate()
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, pg.ID)
			p.Unpin(pg)
			// Committed pages are clean: the last allocation evicts ids[0].
			if err := p.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		// Use the pool's pages but ids[1], from the last to the first, so
		// ids[1] is the least recently used and ids[2] the next.
		for i := pool; i >= 2; i-- {
			pg, err := p.Fetch(ids[i])
			if err != nil {
				t.Fatal(err)
			}
			p.Unpin(pg)
		}
		pg, err := p.Fetch(ids[0]) // evicts exactly ids[1]
		if err != nil {
			t.Fatal(err)
		}
		p.Unpin(pg)
		for i, id := range ids {
			if got, want := p.resident.get(id), i != 1; got != want {
				t.Fatalf("page %d (ids[%d]): resident %v, want %v", id, i, got, want)
			}
		}
		if s := p.Stats(); s.Evictions != 2 {
			t.Fatalf("evictions %d, want 2 (the allocation's and the fetch's)", s.Evictions)
		}
	})
}

// TestPoolMissReusesEvictedFrame: a miss on a full pool of clean pages
// reads the page into the frame it evicts, so it allocates no Page — a
// fetch's or an allocation's — and an allocated page that takes a frame
// still holding another page's bytes comes back zeroed.
func TestPoolMissReusesEvictedFrame(t *testing.T) {
	const pool = 8
	p := OpenMem(pool)
	defer p.Close()
	var ids []PageID
	for i := 0; i < 2*pool; i++ {
		pg, err := p.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		pg.Data[0] = byte(i + 1)
		ids = append(ids, pg.ID)
		p.Unpin(pg)
		// Committed pages are clean: the pool never grows past pool.
		if err := p.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.CheckpointWAL(); err != nil {
		t.Fatal(err)
	}
	i := 0
	fetch := func() {
		pg, err := p.Fetch(ids[i%len(ids)]) // a page the pool evicted a lap ago
		if err != nil {
			t.Fatal(err)
		}
		if pg.Data[0] != byte(i%len(ids)+1) {
			t.Fatalf("page %d reads %d, want %d", pg.ID, pg.Data[0], i%len(ids)+1)
		}
		p.Unpin(pg)
		i++
	}
	fetch() // the first lap's map growth is not a miss's
	before := p.Stats().Misses
	if allocs := testing.AllocsPerRun(4*len(ids), fetch); allocs != 0 {
		t.Fatalf("a pool miss allocates %.1f times, want 0", allocs)
	}
	if misses := p.Stats().Misses - before; misses < uint64(4*len(ids)) {
		t.Fatalf("%d misses in %d fetches: the pool served what the test meant to miss", misses, 4*len(ids))
	}
	pg, err := p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	defer p.Unpin(pg)
	if pg.Data != [PageSize]byte{} {
		t.Fatalf("an allocated page reuses a frame's bytes: % x", pg.Data[:8])
	}
}

// TestDirtyPoolOvercommitsUntilCommit: a full pool whose unpinned pages
// are all dirty grows past its capacity rather than fail, and shrinks
// back to it once a commit has made its pages clean.
func TestDirtyPoolOvercommitsUntilCommit(t *testing.T) {
	const pool = 8
	p := OpenMem(pool)
	defer p.Close()
	for i := 0; i < 2*pool; i++ {
		pg, err := p.Allocate()
		if err != nil {
			t.Fatalf("allocation %d into a dirty pool: %v", i, err)
		}
		p.Unpin(pg)
	}
	if n := p.Resident(); n != 2*pool {
		t.Fatalf("resident %d before the commit, want %d", n, 2*pool)
	}
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	pg, err := p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(pg)
	if n := p.Resident(); n != pool {
		t.Fatalf("resident %d after the commit, want %d", n, pool)
	}
}

func TestFreeAndReuse(t *testing.T) {
	p := OpenMem(4)
	defer p.Close()
	pg, err := p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	id := pg.ID
	p.Unpin(pg)
	if err := p.Free(id); err != nil {
		t.Fatal(err)
	}
	pg2, err := p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	defer p.Unpin(pg2)
	if pg2.ID != id {
		t.Errorf("expected freed page %d to be reused, got %d", id, pg2.ID)
	}
	for _, b := range pg2.Data {
		if b != 0 {
			t.Fatal("reused page not zeroed")
		}
	}
}

func TestFreePinnedFails(t *testing.T) {
	p := OpenMem(4)
	defer p.Close()
	pg, err := p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Free(pg.ID); err == nil {
		t.Error("freeing a pinned page should fail")
	}
	p.Unpin(pg)
}

func TestPersistenceAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.db")
	p := openLogged(t, path, 4)
	pg, err := p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	id := pg.ID
	copy(pg.Data[100:], "persisted")
	pg.MarkDirty()
	p.Unpin(pg)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	p2, err := Open(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if p2.NumPages() != 2 {
		t.Errorf("NumPages = %d, want 2", p2.NumPages())
	}
	got, err := p2.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Unpin(got)
	if string(got.Data[100:109]) != "persisted" {
		t.Errorf("data not persisted: %q", got.Data[100:109])
	}
}

func TestFreeListPersists(t *testing.T) {
	path := filepath.Join(t.TempDir(), "free.db")
	p := openLogged(t, path, 4)
	a, _ := p.Allocate()
	b, _ := p.Allocate()
	idA := a.ID
	p.Unpin(a)
	p.Unpin(b)
	if err := p.Free(idA); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	p2 := openLogged(t, path, 4)
	defer p2.Close()
	pg, err := p2.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Unpin(pg)
	if pg.ID != idA {
		t.Errorf("free list lost across reopen: got %d, want %d", pg.ID, idA)
	}
}

func TestBadMagicRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.db")
	p, err := Open(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the magic in both header slots and reopen. (Corrupting
	// just one slot is recoverable: the other slot still validates.)
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("XXXXXXXX"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("XXXXXXXX"), headerSlotSize); err != nil {
		t.Fatal(err)
	}
	f.Close()
	_, err = Open(path, 2)
	if err == nil {
		t.Fatal("opening a corrupt file should fail")
	}
	if !errors.Is(err, ErrBadMagic) {
		t.Errorf("error should wrap ErrBadMagic, got %v", err)
	}
	// The message must carry enough to diagnose from a log line: the
	// file path, the magic we accept, and the bytes actually found.
	for _, want := range []string{path, "PICTDB02", "XXXXXXXX"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q should mention %q", err, want)
		}
	}
}

func TestClosedOperationsFail(t *testing.T) {
	p := OpenMem(2)
	p.Close()
	if _, err := p.Allocate(); err != ErrClosed {
		t.Errorf("Allocate after close: %v, want ErrClosed", err)
	}
	if _, err := p.Fetch(1); err != ErrClosed {
		t.Errorf("Fetch after close: %v, want ErrClosed", err)
	}
	if err := p.Commit(); err != ErrClosed {
		t.Errorf("Commit after close: %v, want ErrClosed", err)
	}
	if err := p.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

func TestStatsCounters(t *testing.T) {
	p := OpenMem(8)
	defer p.Close()
	pg, _ := p.Allocate()
	id := pg.ID
	p.Unpin(pg)
	pg2, _ := p.Fetch(id) // pooled: hit
	p.Unpin(pg2)
	s := p.Stats()
	if s.Allocs != 1 {
		t.Errorf("Allocs = %d, want 1", s.Allocs)
	}
	if s.Hits == 0 {
		t.Errorf("expected at least one pool hit")
	}
	p.ResetStats()
	if s := p.Stats(); s != (Stats{}) {
		t.Errorf("ResetStats left %+v", s)
	}
}

func TestLRUOrder(t *testing.T) {
	p := OpenMem(2)
	defer p.Close()
	a, _ := p.Allocate()
	b, _ := p.Allocate()
	idA, idB := a.ID, b.ID
	p.Unpin(a)
	p.Unpin(b)
	// Logged pages are clean: only a clean page is an eviction victim.
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	// Touch A so B becomes the LRU victim.
	a2, _ := p.Fetch(idA)
	p.Unpin(a2)
	c, _ := p.Allocate() // evicts B
	p.Unpin(c)
	s := p.Stats()
	// Fetching A should still hit; fetching B should miss.
	p.ResetStats()
	a3, _ := p.Fetch(idA)
	p.Unpin(a3)
	b2, _ := p.Fetch(idB)
	p.Unpin(b2)
	s = p.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Errorf("hits=%d misses=%d, want 1 and 1", s.Hits, s.Misses)
	}
}

// TestShardedPoolConcurrentMixed hammers the pool with concurrent
// allocates, fetches, and frees, then checks every surviving page
// round-trips its stamp. Run under -race (make check) this exercises
// the pool's lock and the header lock taken before it.
func TestShardedPoolConcurrentMixed(t *testing.T) {
	atGOMAXPROCS(t, testShardedPoolConcurrentMixed)
}

func testShardedPoolConcurrentMixed(t *testing.T) {
	p := OpenMem(16)
	defer p.Close()

	const workers = 8
	var mu sync.Mutex
	live := make(map[PageID]uint32)

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				switch i % 4 {
				case 0: // allocate and stamp
					pg, err := p.Allocate()
					if err != nil {
						errs <- err
						return
					}
					stamp := uint32(w*1000 + i)
					binary.LittleEndian.PutUint32(pg.Data[:4], stamp)
					pg.MarkDirty()
					id := pg.ID
					p.Unpin(pg)
					mu.Lock()
					live[id] = stamp
					mu.Unlock()
				default: // fetch a random live page and verify its stamp
					mu.Lock()
					var id PageID
					var want uint32
					for k, v := range live {
						id, want = k, v
						break
					}
					mu.Unlock()
					if id == InvalidPage {
						continue
					}
					pg, err := p.Fetch(id)
					if err != nil {
						errs <- err
						return
					}
					got := binary.LittleEndian.Uint32(pg.Data[:4])
					p.Unpin(pg)
					if got != want {
						errs <- fmt.Errorf("page %d stamped %d, read %d", id, want, got)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Every page written during the storm must round-trip.
	for id, want := range live {
		pg, err := p.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		if got := binary.LittleEndian.Uint32(pg.Data[:4]); got != want {
			t.Errorf("page %d = %d, want %d", id, got, want)
		}
		p.Unpin(pg)
	}
}

func TestConcurrentFetches(t *testing.T) {
	atGOMAXPROCS(t, testConcurrentFetches)
}

func testConcurrentFetches(t *testing.T) {
	p := OpenMem(8)
	defer p.Close()
	var ids []PageID
	for i := 0; i < 32; i++ {
		pg, err := p.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint32(pg.Data[:4], uint32(pg.ID))
		pg.MarkDirty()
		ids = append(ids, pg.ID)
		p.Unpin(pg)
	}
	// Logged, the pages are clean, and the fetches below evict them.
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	fail := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(start int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				id := ids[(start+i)%len(ids)]
				pg, err := p.Fetch(id)
				if err != nil {
					fail <- err.Error()
					return
				}
				if got := PageID(binary.LittleEndian.Uint32(pg.Data[:4])); got != id {
					fail <- "page content mismatch"
					p.Unpin(pg)
					return
				}
				p.Unpin(pg)
			}
		}(g * 4)
	}
	wg.Wait()
	close(fail)
	for e := range fail {
		t.Fatal(e)
	}
}

// openLogged opens the page file at path with its log attached, as a
// pager that writes must be.
func openLogged(t testing.TB, path string, pool int) *Pager {
	t.Helper()
	p, err := Open(path, pool)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.EnableWAL(); err != nil {
		p.Close()
		t.Fatal(err)
	}
	return p
}

// TestNoLogPagerIsAReader: a pager without a log refuses every write
// with ErrNoWAL and serves reads, and Close reports a page dirtied
// behind its back.
func TestNoLogPagerIsAReader(t *testing.T) {
	img := buildImage(t, 2)
	p, err := OpenBackend(NewMemBackend(img), 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Allocate(); !errors.Is(err, ErrNoWAL) {
		t.Fatalf("Allocate = %v, want ErrNoWAL", err)
	}
	if err := p.Free(1); !errors.Is(err, ErrNoWAL) {
		t.Fatalf("Free = %v, want ErrNoWAL", err)
	}
	if err := p.Commit(); !errors.Is(err, ErrNoWAL) {
		t.Fatalf("Commit = %v, want ErrNoWAL", err)
	}
	if err := p.CheckpointWAL(); !errors.Is(err, ErrNoWAL) {
		t.Fatalf("CheckpointWAL = %v, want ErrNoWAL", err)
	}
	pg, err := p.Fetch(1)
	if err != nil {
		t.Fatal(err)
	}
	checkPattern(t, pg)
	pg.Data[8] ^= 0xFF
	pg.MarkDirty()
	p.Unpin(pg)
	if err := p.Close(); !errors.Is(err, ErrNoWAL) {
		t.Fatalf("Close with a page dirtied and no log = %v, want ErrNoWAL", err)
	}
}
