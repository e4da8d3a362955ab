package pager

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// buildFile creates a committed page file at path with n patterned
// pages and returns their ids.
func buildFile(t *testing.T, path string, n int) []PageID {
	t.Helper()
	p := openLogged(t, path, n+4)
	ids := make([]PageID, n)
	for i := 0; i < n; i++ {
		pg, err := p.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		fillPage(pg)
		ids[i] = pg.ID
		p.Unpin(pg)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	return ids
}

// TestPinParityWithFetch reads every page through both APIs, with and
// without mmap, and requires identical bytes. On a cold pool with an
// active mapping, pins must be zero-copy (MmapPins counts them).
func TestPinParityWithFetch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pin.db")
	ids := buildFile(t, path, 6)

	p, err := Open(path, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	mmapErr := p.EnableMmap()
	if mmapSupported {
		if mmapErr != nil {
			t.Fatalf("EnableMmap: %v", mmapErr)
		}
		if !p.MmapActive() {
			t.Fatal("mapping should be active")
		}
	} else {
		if !errors.Is(mmapErr, ErrMmapUnsupported) {
			t.Fatalf("EnableMmap without mmap support: %v, want ErrMmapUnsupported", mmapErr)
		}
	}

	// Cold pool: with a mapping these pins never touch the pool.
	for _, id := range ids {
		v, err := p.Pin(id)
		if err != nil {
			t.Fatalf("Pin(%d): %v", id, err)
		}
		for i := 8; i < 256; i++ {
			if v.Data()[i] != byte(uint32(id)*uint32(i)) {
				t.Fatalf("page %d byte %d mismatch through Pin", id, i)
			}
		}
		v.Unpin()
	}
	if mmapSupported {
		if got := p.Stats().MmapPins; got != uint64(len(ids)) {
			t.Fatalf("MmapPins = %d, want %d", got, len(ids))
		}
	}

	// Fetch path agrees byte for byte.
	for _, id := range ids {
		pg, err := p.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		v, err := p.Pin(id)
		if err != nil {
			t.Fatal(err)
		}
		if string(v.Data()[:256]) != string(pg.Data[:256]) {
			t.Fatalf("page %d: Pin and Fetch disagree", id)
		}
		v.Unpin()
		p.Unpin(pg)
	}
}

// readers are the two entry points of the one read routine: a View is a
// Reader that has read one page. Each returns the page's bytes and the
// call that releases them.
var readers = []struct {
	name string
	read func(p *Pager, id PageID) ([]byte, func(), error)
}{
	{"Pin", func(p *Pager, id PageID) ([]byte, func(), error) {
		v, err := p.Pin(id)
		if err != nil {
			return nil, nil, err
		}
		return v.Data(), v.Unpin, nil
	}},
	{"Reader", func(p *Pager, id PageID) ([]byte, func(), error) {
		r := p.BeginRead()
		b, err := r.Page(id)
		if err != nil {
			r.End()
			return nil, nil, err
		}
		return b, r.End, nil
	}},
}

// evictAll pushes every unpinned page out of a pool of capacity pages
// by fetching that many others.
func evictAll(t *testing.T, p *Pager, others []PageID) {
	t.Helper()
	for _, id := range others {
		pg, err := p.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		p.Unpin(pg)
	}
}

// TestPinPrefersDirtyPoolPage is the residency rule: a page fetched
// and dirtied is resident, so both entry points serve its frame (the new
// bytes, not the stale image under the mapping); once it is committed,
// checkpointed and evicted the bit is down, the next read comes from the
// mapping again, and — the write-back having cleared the verified bit —
// pays the CRC of the new on-disk generation once.
func TestPinPrefersDirtyPoolPage(t *testing.T) {
	for _, rd := range readers {
		t.Run(rd.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "dirty.db")
			ids := buildFile(t, path, 5)
			p := openLogged(t, path, 2) // a pool of two frames
			defer p.Close()
			if err := p.EnableMmap(); err != nil && mmapSupported {
				t.Fatal(err)
			}
			target := ids[0]
			if p.resident.get(target) {
				t.Fatal("page resident before anyone fetched it")
			}

			pg, err := p.Fetch(target)
			if err != nil {
				t.Fatal(err)
			}
			if !p.resident.get(target) {
				t.Fatal("fetched page not marked resident")
			}
			copy(pg.Data[8:], "fresh uncommitted bytes")
			pg.MarkDirty()
			p.Unpin(pg)

			before := p.Stats()
			b, release, err := rd.read(p, target)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.HasPrefix(string(b[8:40]), "fresh uncommitted bytes") {
				t.Fatalf("read of a dirty resident page returned stale bytes: %q", b[8:40])
			}
			release()
			if st := p.Stats(); st.Hits != before.Hits+1 || st.MmapPins != before.MmapPins {
				t.Fatalf("resident page: hits %d -> %d, mmap pins %d -> %d, want one hit and no mmap pin",
					before.Hits, st.Hits, before.MmapPins, st.MmapPins)
			}

			// Commit and checkpoint, then evict: the frame and both bits go.
			if err := p.Commit(); err != nil {
				t.Fatal(err)
			}
			if err := p.CheckpointWAL(); err != nil {
				t.Fatal(err)
			}
			evictAll(t, p, ids[1:3])
			if p.resident.get(target) {
				t.Fatal("residency bit survived eviction")
			}
			if p.verified.get(target) {
				t.Fatal("verified bit survived the write-back")
			}

			before = p.Stats()
			b, release, err = rd.read(p, target)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.HasPrefix(string(b[8:40]), "fresh uncommitted bytes") {
				t.Fatalf("read after checkpoint and eviction lost the write: %q", b[8:40])
			}
			release()
			if !p.verified.get(target) {
				t.Fatal("first read of the new on-disk generation did not verify it")
			}
			if !p.MmapActive() {
				return // no mapping in this build: the pool served it, as before
			}
			if st := p.Stats(); st.MmapPins != before.MmapPins+1 || st.Hits+st.Misses != before.Hits+before.Misses {
				t.Fatalf("evicted page: mmap pins %d -> %d, pool reads %d -> %d, want one mmap pin and no pool read",
					before.MmapPins, st.MmapPins, before.Hits+before.Misses, st.Hits+st.Misses)
			}
			if p.resident.get(target) {
				t.Fatal("a read through the mapping installed the page")
			}
		})
	}
}

// TestWALFramedPageServedThroughPool: while a page's newest image is a
// WAL frame the bytes under the mapping are stale, so a read of it goes
// through the pool's WAL-aware path even after its frame was evicted;
// once a checkpoint has backfilled the page file the mapping serves it.
func TestWALFramedPageServedThroughPool(t *testing.T) {
	for _, rd := range readers {
		t.Run(rd.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "framed.db")
			ids := buildFile(t, path, 5)
			p := openLogged(t, path, 2)
			defer p.Close()
			if err := p.EnableMmap(); err != nil && mmapSupported {
				t.Fatal(err)
			}
			target := ids[0]
			pg, err := p.Fetch(target)
			if err != nil {
				t.Fatal(err)
			}
			copy(pg.Data[8:], "committed to the log")
			pg.MarkDirty()
			p.Unpin(pg)
			if err := p.Commit(); err != nil { // appends a frame; the page file keeps the old image
				t.Fatal(err)
			}
			evictAll(t, p, ids[1:3])
			if p.resident.get(target) {
				t.Fatal("logged page not evicted")
			}

			before := p.Stats()
			b, release, err := rd.read(p, target)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.HasPrefix(string(b[8:40]), "committed to the log") {
				t.Fatalf("read of a WAL-framed page returned the stale page-file image: %q", b[8:40])
			}
			release()
			if st := p.Stats(); st.MmapPins != before.MmapPins || st.Misses != before.Misses+1 {
				t.Fatalf("framed page: mmap pins %d -> %d, misses %d -> %d, want a pool miss and no mmap pin",
					before.MmapPins, st.MmapPins, before.Misses, st.Misses)
			}

			if err := p.CheckpointWAL(); err != nil {
				t.Fatal(err)
			}
			evictAll(t, p, ids[1:3])
			before = p.Stats()
			b, release, err = rd.read(p, target)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.HasPrefix(string(b[8:40]), "committed to the log") {
				t.Fatalf("read after checkpoint lost the write: %q", b[8:40])
			}
			release()
			if st := p.Stats(); p.MmapActive() && st.MmapPins != before.MmapPins+1 {
				t.Fatalf("backfilled page: mmap pins %d -> %d, want the mapping to serve it", before.MmapPins, st.MmapPins)
			}
		})
	}
}

// TestPageBitsLoseNoBitToGrowth: eight goroutines walk the whole id
// range together, each setting its own bit of one shared word per step
// and setting then clearing the bit next to it, so every chunk's
// allocation and every word's update is raced eight ways; afterwards
// exactly the bits left set are set.
func TestPageBitsLoseNoBitToGrowth(t *testing.T) {
	var b pageBits
	const workers, stride = 8, chunkPages / 4
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for base := 0; base < trackedPages; base += stride {
				id := PageID(base + 2*g)
				b.set(id)
				b.set(id + 1)
				b.clear(id + 1)
			}
		}(g)
	}
	wg.Wait()
	for base := 0; base < trackedPages; base += stride {
		for off := 0; off < 32; off++ {
			id := PageID(base + off)
			if want := off < 2*workers && off%2 == 0; b.get(id) != want {
				t.Fatalf("bit %d reads %v, want %v", id, !want, want)
			}
		}
	}
	if b.get(trackedPages) || b.get(trackedPages+12345) {
		t.Fatal("untracked page reads as set")
	}
	b.set(trackedPages) // no-ops, not panics
	b.clear(trackedPages)
}

// TestResidencyMatchesPoolUnderChurn: eight goroutines fetch, dirty and
// release pages of a pool too small to hold them (installs and
// evictions throughout) while another allocates (the file grows);
// afterwards a page's residency bit is set exactly when the pool holds
// its frame, at any core count.
func TestResidencyMatchesPoolUnderChurn(t *testing.T) {
	atGOMAXPROCS(t, testResidencyMatchesPoolUnderChurn)
}

func testResidencyMatchesPoolUnderChurn(t *testing.T) {
	p := OpenMem(32)
	defer p.Close()
	const pages = 256
	for i := 0; i < pages; i++ {
		pg, err := p.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		p.Unpin(pg)
	}
	// Logged, the pages are clean: the reads below evict them.
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var failed atomic.Bool
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500 && !failed.Load(); i++ {
				id := PageID(1 + (i*31+g*17)%pages)
				if g == 0 && i%8 == 0 {
					pg, err := p.Allocate()
					if err != nil {
						t.Error(err)
						failed.Store(true)
						return
					}
					p.Unpin(pg)
					continue
				}
				r := p.BeginRead()
				if _, err := r.Page(id); err != nil {
					t.Errorf("page %d: %v", id, err)
					failed.Store(true)
				}
				r.End()
			}
		}(g)
	}
	wg.Wait()
	for id := PageID(1); int(id) < p.NumPages(); id++ {
		p.pmu.Lock()
		_, inPool := p.pages[id]
		p.pmu.Unlock()
		if got := p.resident.get(id); got != inPool {
			t.Fatalf("page %d: residency bit %v, frame in pool %v", id, got, inPool)
		}
	}
}

// TestPinSeesPagesAllocatedAfterMmap allocates and commits new pages
// after the mapping was made: pins of the new pages return the committed
// bytes, from the pool's log frames until a checkpoint writes the pages
// back and remaps, and from the grown mapping after it.
func TestPinSeesPagesAllocatedAfterMmap(t *testing.T) {
	path := filepath.Join(t.TempDir(), "grow.db")
	buildFile(t, path, 2)

	p := openLogged(t, path, 16)
	defer p.Close()
	if err := p.EnableMmap(); err != nil {
		if mmapSupported {
			t.Fatal(err)
		}
		t.Skip("mmap not supported in this build")
	}

	var newIDs []PageID
	for i := 0; i < 4; i++ {
		pg, err := p.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		fillPage(pg)
		newIDs = append(newIDs, pg.ID)
		p.Unpin(pg)
	}
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	pinAll := func(when string) {
		for _, id := range newIDs {
			v, err := p.Pin(id)
			if err != nil {
				t.Fatalf("Pin(%d) %s: %v", id, when, err)
			}
			for i := 8; i < 256; i++ {
				if v.Data()[i] != byte(uint32(id)*uint32(i)) {
					t.Fatalf("page %d byte %d mismatch %s", id, i, when)
				}
			}
			v.Unpin()
		}
	}
	pinAll("after the commit")
	if err := p.CheckpointWAL(); err != nil {
		t.Fatal(err)
	}
	if m := p.mapping.Load(); uint32(newIDs[len(newIDs)-1]) >= m.pages {
		t.Fatalf("checkpoint left a mapping of %d pages, short of page %d", m.pages, newIDs[len(newIDs)-1])
	}
	pinAll("after the checkpoint's remap")
}

// TestPinDetectsCorruption flips a committed byte directly in the file
// and requires the first Pin of that page to report ErrChecksum on
// both the mmap and the pool path.
func TestPinDetectsCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corrupt.db")
	ids := buildFile(t, path, 3)

	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	off := int64(ids[1]) * PageSize
	if _, err := f.WriteAt([]byte{0xFF, 0xEE, 0xDD}, off+100); err != nil {
		t.Fatal(err)
	}
	f.Close()

	p, err := Open(path, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	_ = p.EnableMmap()

	if _, err := p.Pin(ids[1]); !errors.Is(err, ErrChecksum) {
		t.Fatalf("Pin of corrupt page: %v, want ErrChecksum", err)
	}
	// Neighbors still verify.
	v, err := p.Pin(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	v.Unpin()
}

// TestVerifiedBitmapSkipsReverify pins the same page twice and checks
// the second pin is served without re-verification (observable through
// pageVerified), and that a write-back clears the bit.
func TestVerifiedBitmapSkipsReverify(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bitmap.db")
	ids := buildFile(t, path, 2)

	p := openLogged(t, path, 8)
	defer p.Close()
	_ = p.EnableMmap()

	if p.verified.get(ids[0]) {
		t.Fatal("page verified before any read")
	}
	v, err := p.Pin(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	v.Unpin()
	if !p.verified.get(ids[0]) {
		t.Fatal("page not marked verified after Pin")
	}

	// Dirty the page, commit and checkpoint it: the on-disk generation
	// changed, so the bit must drop.
	pg, err := p.Fetch(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	pg.Data[8] ^= 0xFF
	pg.MarkDirty()
	p.Unpin(pg)
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := p.CheckpointWAL(); err != nil {
		t.Fatal(err)
	}
	if p.verified.get(ids[0]) {
		t.Fatal("verified bit survived a write-back")
	}
}

// TestCloseRefusesWithPinnedViews is the pin-while-freed misuse
// detection: Close must fail, naming the leak, while a view or a reader
// holds the mapping, leave the pager usable, and succeed after the
// release.
func TestCloseRefusesWithPinnedViews(t *testing.T) {
	for _, rd := range readers {
		t.Run(rd.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "leak.db")
			ids := buildFile(t, path, 2)

			p, err := Open(path, 8)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.EnableMmap(); err != nil {
				if mmapSupported {
					t.Fatal(err)
				}
				p.Close()
				t.Skip("mmap not supported in this build")
			}
			_, release, err := rd.read(p, ids[0])
			if err != nil {
				t.Fatal(err)
			}
			err = p.Close()
			if err == nil || !strings.Contains(err.Error(), "pinned mmap view") {
				t.Fatalf("Close with an outstanding read: %v, want an error naming the leak", err)
			}
			// The pager must still be usable: the refusal is a diagnostic,
			// not a half-close.
			if !p.MmapActive() {
				t.Fatal("refused Close dropped the mapping")
			}
			_, release2, err := rd.read(p, ids[1])
			if err != nil {
				t.Fatalf("read after refused Close: %v", err)
			}
			release2()
			release()
			if err := p.Close(); err != nil {
				t.Fatalf("Close after release: %v", err)
			}
		})
	}
}

// TestUnpinTwicePanics: releasing a view or ending a reader twice is
// a lifetime bug and must panic rather than corrupt the reference count.
func TestUnpinTwicePanics(t *testing.T) {
	for _, rd := range readers {
		t.Run(rd.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "double.db")
			ids := buildFile(t, path, 1)
			p, err := Open(path, 4)
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			_ = p.EnableMmap()
			_, release, err := rd.read(p, ids[0])
			if err != nil {
				t.Fatal(err)
			}
			release()
			defer func() {
				if recover() == nil {
					t.Fatal("second release did not panic")
				}
			}()
			release()
		})
	}
}

// liveMappings counts the mappings of p not yet unmapped.
func liveMappings(p *Pager) int {
	n := 0
	for _, m := range p.mappings() {
		if !m.dead() {
			n++
		}
	}
	return n
}

// growAndCommit allocates one patterned page, commits it, and folds the
// log into the page file, which remaps. It takes the checkpoint past its
// check for readers: a reader that begins just after that check holds
// its mapping across the remap, the window the mapping's reference count
// exists for, and these tests hold readers there on purpose.
func growAndCommit(t *testing.T, p *Pager) PageID {
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
	w := p.wal.Load()
	w.commitMu.Lock()
	defer w.commitMu.Unlock()
	if err := p.fold(w); err != nil {
		t.Fatal(err)
	}
	return id
}

func checkBytes(t *testing.T, id PageID, b []byte) {
	t.Helper()
	for i := 8; i < 256; i++ {
		if b[i] != byte(uint32(id)*uint32(i)) {
			t.Errorf("page %d byte %d = %#x, want %#x", id, i, b[i], byte(uint32(id)*uint32(i)))
			return
		}
	}
}

// TestRetiredMappingsAreUnmapped: every commit that grew the file
// replaces the mapping, and a replaced mapping is unmapped as soon as no
// reader holds it — 200 growths leave the current mapping and the one a
// reader begun before the first of them still holds, not 201. That
// reader keeps reading correct bytes throughout, of old pages (its
// mapping) and of new ones (the pool).
func TestRetiredMappingsAreUnmapped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "retire.db")
	ids := buildFile(t, path, 4)
	p := openLogged(t, path, 64)
	defer p.Close()
	if err := p.EnableMmap(); err != nil {
		if mmapSupported {
			t.Fatal(err)
		}
		t.Skip("mmap not supported in this build")
	}
	old := p.BeginRead()
	first := p.mapping.Load()
	for i := 0; i < 200; i++ {
		id := growAndCommit(t, p)
		if cur := p.mapping.Load(); cur == first || uint32(id) >= cur.pages {
			t.Fatalf("growth %d: page %d not inside a new mapping", i, id)
		}
		if n := liveMappings(p); n > 2 {
			t.Fatalf("growth %d: %d mappings alive, want at most 2", i, n)
		}
		for _, id := range []PageID{ids[i%len(ids)], id} {
			b, err := old.Page(id)
			if err != nil {
				t.Fatalf("growth %d: reader begun before the remap: page %d: %v", i, id, err)
			}
			checkBytes(t, id, b)
		}
	}
	if first.dead() {
		t.Fatal("a mapping was unmapped under its reader")
	}
	old.End()
	if !first.dead() {
		t.Fatal("the retired mapping outlived its last reader")
	}
	if n := liveMappings(p); n != 1 {
		t.Fatalf("%d mappings alive after the last reader left, want 1", n)
	}
}

// TestRemapUnderReaders races batches of reads against 200 remaps: every
// batch reads correct bytes whichever mapping it began on (the race
// detector and a fault on unmapped memory are the other two judges), and
// when the readers have left only the current mapping is alive.
func TestRemapUnderReaders(t *testing.T) {
	path := filepath.Join(t.TempDir(), "race.db")
	ids := buildFile(t, path, 8)
	p := openLogged(t, path, 64)
	defer p.Close()
	if err := p.EnableMmap(); err != nil {
		if mmapSupported {
			t.Fatal(err)
		}
		t.Skip("mmap not supported in this build")
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; !stop.Load(); i++ {
				r := p.BeginRead()
				for k := 0; k < 3; k++ {
					id := ids[(i+k)%len(ids)]
					b, err := r.Page(id)
					if err != nil {
						t.Errorf("page %d: %v", id, err)
						stop.Store(true)
						break
					}
					checkBytes(t, id, b)
				}
				r.End()
			}
		}(g)
	}
	for i := 0; i < 200 && !stop.Load(); i++ {
		growAndCommit(t, p)
	}
	stop.Store(true)
	wg.Wait()
	if n := liveMappings(p); n != 1 {
		t.Fatalf("%d mappings alive after the readers left, want 1", n)
	}
}

// TestEnableMmapRejectsNonFileBackends: memory and fault-injecting
// backends keep the pool path, preserving their interception of every
// read.
func TestEnableMmapRejectsNonFileBackends(t *testing.T) {
	p := OpenMem(4)
	defer p.Close()
	if err := p.EnableMmap(); !errors.Is(err, ErrMmapUnsupported) {
		t.Fatalf("EnableMmap on memory backend: %v, want ErrMmapUnsupported", err)
	}

	img := buildImage(t, 2)
	fp, err := OpenBackend(NewFaultBackend(NewMemBackend(img), FaultConfig{}), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer fp.Close()
	if err := fp.EnableMmap(); !errors.Is(err, ErrMmapUnsupported) {
		t.Fatalf("EnableMmap on fault backend: %v, want ErrMmapUnsupported", err)
	}
}

// TestPinFaultParity: through a FaultBackend, Pin degrades to the pool
// path, so injected read faults surface through Pin exactly as they do
// through Fetch — the mmap layer cannot bypass fault injection.
func TestPinFaultParity(t *testing.T) {
	img := buildImage(t, 4)
	fb := NewFaultBackend(NewMemBackend(img), FaultConfig{FailRead: 3})
	p, err := OpenBackend(fb, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	sawInjected := false
	for id := PageID(1); id <= 4; id++ {
		v, err := p.Pin(id)
		if err != nil {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("Pin(%d): %v, want ErrInjected", id, err)
			}
			sawInjected = true
			continue
		}
		v.Unpin()
	}
	if !sawInjected {
		t.Fatal("expected one injected read fault through Pin")
	}
	if faults := fb.Faults(); len(faults) != 1 {
		t.Fatalf("Faults() = %v, want exactly one", faults)
	}
}

// TestPinFallbackWithoutMmap: Pin must work (via the pool) when
// EnableMmap was never called — the portable fallback path.
func TestPinFallbackWithoutMmap(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fallback.db")
	ids := buildFile(t, path, 3)
	p, err := Open(path, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for _, id := range ids {
		v, err := p.Pin(id)
		if err != nil {
			t.Fatal(err)
		}
		for i := 8; i < 256; i++ {
			if v.Data()[i] != byte(uint32(id)*uint32(i)) {
				t.Fatalf("page %d byte %d mismatch on fallback path", id, i)
			}
		}
		v.Unpin()
	}
	if p.Stats().MmapPins != 0 {
		t.Fatal("fallback path counted mmap pins")
	}
	if p.MmapActive() {
		t.Fatal("mapping active without EnableMmap")
	}
}

// TestPinOutOfRange mirrors Fetch's range checking.
func TestPinOutOfRange(t *testing.T) {
	p := OpenMem(4)
	defer p.Close()
	if _, err := p.Pin(InvalidPage); !errors.Is(err, ErrPageRange) {
		t.Fatalf("Pin(InvalidPage): %v, want ErrPageRange", err)
	}
	if _, err := p.Pin(99); !errors.Is(err, ErrPageRange) {
		t.Fatalf("Pin(99): %v, want ErrPageRange", err)
	}
}
