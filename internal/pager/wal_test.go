package pager

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// newWALPager opens a pager over main with a fresh in-memory log
// attached, returning the log too for crash simulation.
func newWALPager(t testing.TB, main Backend, pool int) (*Pager, *MemBackend) {
	t.Helper()
	wal := NewMemBackend(nil)
	p, err := OpenBackend(main, pool)
	if err != nil {
		t.Fatalf("OpenBackend: %v", err)
	}
	if err := p.EnableWALBackend(wal); err != nil {
		t.Fatalf("EnableWALBackend: %v", err)
	}
	return p, wal
}

// reopenWAL opens a fresh pager over crash images of the two halves,
// running WAL recovery.
func reopenWAL(t *testing.T, mainImg, walImg []byte, pool int) *Pager {
	t.Helper()
	p, err := OpenBackend(NewMemBackend(mainImg), pool)
	if err != nil {
		t.Fatalf("reopen: OpenBackend: %v", err)
	}
	if err := p.EnableWALBackend(NewMemBackend(walImg)); err != nil {
		t.Fatalf("reopen: EnableWALBackend: %v", err)
	}
	return p
}

// writeCounter stamps value into page id's payload and commits.
func writeCounter(t testing.TB, p *Pager, id PageID, value uint64) {
	t.Helper()
	p.BeginWrite()
	pg, err := p.Fetch(id)
	if err != nil {
		p.EndWrite()
		t.Fatalf("Fetch(%d): %v", id, err)
	}
	binary.LittleEndian.PutUint64(pg.Data[0:8], value)
	pg.MarkDirty()
	p.Unpin(pg)
	p.EndWrite()
	if err := p.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
}

func readCounter(t *testing.T, p *Pager, id PageID) uint64 {
	t.Helper()
	pg, err := p.Fetch(id)
	if err != nil {
		t.Fatalf("Fetch(%d): %v", id, err)
	}
	v := binary.LittleEndian.Uint64(pg.Data[0:8])
	p.Unpin(pg)
	return v
}

func allocPage(t testing.TB, p *Pager) PageID {
	t.Helper()
	pg, err := p.Allocate()
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	id := pg.ID
	p.Unpin(pg)
	return id
}

func TestWALCommitRecoverReopen(t *testing.T) {
	main := NewMemBackend(nil)
	p, wal := newWALPager(t, main, 64)
	id := allocPage(t, p)
	writeCounter(t, p, id, 41)
	writeCounter(t, p, id, 42)

	if s := p.WALStats(); s.Commits != 2 || s.LastGen == 0 {
		t.Fatalf("WALStats = %+v, want 2 commits and nonzero gen", s)
	}

	// Crash (no Close): reopen from the current images. Recovery must
	// replay the committed records into the page file.
	rp := reopenWAL(t, main.Bytes(), wal.Bytes(), 64)
	if got := readCounter(t, rp, id); got != 42 {
		t.Fatalf("recovered counter = %d, want 42", got)
	}
	if np := rp.NumPages(); np != p.NumPages() {
		t.Fatalf("recovered NumPages = %d, want %d", np, p.NumPages())
	}
	// Recovery truncates the log.
	if s := rp.WALStats(); s.Size != walHeaderSize {
		t.Fatalf("recovered WAL size = %d, want %d", s.Size, walHeaderSize)
	}
}

func TestWALNoStealUntilCheckpoint(t *testing.T) {
	main := NewMemBackend(nil)
	p, _ := newWALPager(t, main, 4) // tiny pool: forces eviction pressure
	var ids []PageID
	for i := 0; i < 12; i++ {
		ids = append(ids, allocPage(t, p))
	}
	before := main.Bytes()
	for i, id := range ids {
		writeCounter(t, p, id, uint64(100+i))
	}
	// Commits went to the WAL only: the page file must be untouched.
	if !bytes.Equal(main.Bytes(), before) {
		t.Fatal("page file changed before checkpoint (dirty page stolen)")
	}
	// Evicted pages must still read back their newest image (from WAL).
	for i, id := range ids {
		if got := readCounter(t, p, id); got != uint64(100+i) {
			t.Fatalf("page %d = %d, want %d", id, got, 100+i)
		}
	}
	if err := p.CheckpointWAL(); err != nil {
		t.Fatalf("CheckpointWAL: %v", err)
	}
	if bytes.Equal(main.Bytes(), before) {
		t.Fatal("page file unchanged after checkpoint")
	}
	if s := p.WALStats(); s.Size != walHeaderSize || s.Checkpoints != 1 {
		t.Fatalf("after checkpoint WALStats = %+v", s)
	}
	// And the page file alone (no WAL) now carries everything.
	solo, err := OpenBackend(NewMemBackend(main.Bytes()), 64)
	if err != nil {
		t.Fatalf("solo open: %v", err)
	}
	for i, id := range ids {
		if got := readCounter(t, solo, id); got != uint64(100+i) {
			t.Fatalf("solo page %d = %d, want %d", id, got, 100+i)
		}
	}
}

// slowSyncBackend delays Sync so concurrent committers pile up behind
// the leader and group.
type slowSyncBackend struct {
	*MemBackend
	d     time.Duration
	syncs atomic.Int64
}

func (s *slowSyncBackend) Sync() error {
	s.syncs.Add(1)
	time.Sleep(s.d)
	return s.MemBackend.Sync()
}

func TestWALGroupCommitBatchesWriters(t *testing.T) {
	main := NewMemBackend(nil)
	wal := &slowSyncBackend{MemBackend: NewMemBackend(nil), d: 2 * time.Millisecond}
	p, err := OpenBackend(main, 256)
	if err != nil {
		t.Fatalf("OpenBackend: %v", err)
	}
	if err := p.EnableWALBackend(wal); err != nil {
		t.Fatalf("EnableWALBackend: %v", err)
	}

	const writers = 8
	const commitsPer = 10
	ids := make([]PageID, writers)
	for i := range ids {
		ids[i] = allocPage(t, p)
	}
	if err := p.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}

	var wg sync.WaitGroup
	errs := make([]error, writers)
	for wi := 0; wi < writers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			for n := 1; n <= commitsPer; n++ {
				p.BeginWrite()
				pg, err := p.Fetch(ids[wi])
				if err != nil {
					p.EndWrite()
					errs[wi] = err
					return
				}
				binary.LittleEndian.PutUint64(pg.Data[0:8], uint64(n))
				pg.MarkDirty()
				p.Unpin(pg)
				p.EndWrite()
				if err := p.Commit(); err != nil {
					errs[wi] = err
					return
				}
			}
		}(wi)
	}
	wg.Wait()
	for wi, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", wi, err)
		}
	}
	s := p.WALStats()
	if s.Commits != writers*commitsPer+1 { // +1: the setup commit above
		t.Fatalf("Commits = %d, want %d", s.Commits, writers*commitsPer+1)
	}
	if s.Batches >= s.Commits {
		t.Fatalf("no grouping: %d batches for %d commits", s.Batches, s.Commits)
	}
	// Every writer's final value is durable.
	rp := reopenWAL(t, main.Bytes(), wal.MemBackend.Bytes(), 256)
	for wi := range ids {
		if got := readCounter(t, rp, ids[wi]); got != commitsPer {
			t.Fatalf("writer %d recovered %d, want %d", wi, got, commitsPer)
		}
	}
}

func TestWALRecoveryTruncatesTornTail(t *testing.T) {
	main := NewMemBackend(nil)
	p, wal := newWALPager(t, main, 64)
	id := allocPage(t, p)
	writeCounter(t, p, id, 7)
	committedWAL := wal.Bytes()
	writeCounter(t, p, id, 8)

	full := wal.Bytes()
	// Crash mid-append of the second commit: cut the last record short.
	for _, cut := range []int{1, frameTrailer, frameHeaderSize + 100} {
		torn := append([]byte(nil), full[:len(full)-cut]...)
		rp := reopenWAL(t, main.Bytes(), torn, 64)
		if got := readCounter(t, rp, id); got != 7 {
			t.Fatalf("cut %d: recovered %d, want 7 (second commit torn)", cut, got)
		}
	}
	// Garbage appended after the last durable commit is likewise
	// discarded.
	garbled := append(append([]byte(nil), committedWAL...), 0xDE, 0xAD, 0xBE, 0xEF)
	rp := reopenWAL(t, main.Bytes(), garbled, 64)
	if got := readCounter(t, rp, id); got != 7 {
		t.Fatalf("garbage tail: recovered %d, want 7", got)
	}
	// The intact log recovers the newest commit.
	rp = reopenWAL(t, main.Bytes(), full, 64)
	if got := readCounter(t, rp, id); got != 8 {
		t.Fatalf("intact: recovered %d, want 8", got)
	}
}

// TestWALRecoveryRejectsBadMagic: recovery and InspectWAL refuse a log
// whose header lacks the magic, or whose header CRC is wrong, with the
// same sentinel, and recovery names the log.
func TestWALRecoveryRejectsBadMagic(t *testing.T) {
	badCRC := append([]byte(nil), walMagic[:]...)
	badCRC = append(badCRC, 1, 0, 0, 0, 0, 0, 0, 0)
	for _, c := range []struct {
		log  []byte
		want error
	}{
		{[]byte("NOTAWAL0randomgarbagebytes"), ErrBadMagic},
		{badCRC, ErrChecksum},
	} {
		mainP, err := OpenBackend(NewMemBackend(nil), 16)
		if err != nil {
			t.Fatal(err)
		}
		err = mainP.EnableWALBackend(NewMemBackend(c.log))
		if !errors.Is(err, c.want) || !strings.Contains(err.Error(), "(wal backend)") {
			t.Errorf("EnableWALBackend over %q = %v, want %v naming the log", c.log, err, c.want)
		}
		if _, err := InspectWAL(NewMemBackend(c.log)); !errors.Is(err, c.want) {
			t.Errorf("InspectWAL over %q = %v, want %v", c.log, err, c.want)
		}
	}
}

func TestInspectWALClassifiesCorruption(t *testing.T) {
	p, wal := newWALPager(t, NewMemBackend(nil), 64)
	id := allocPage(t, p)
	writeCounter(t, p, id, 1)
	afterFirst := wal.Bytes()
	writeCounter(t, p, id, 2)
	full := wal.Bytes()

	// Intact log: all records valid, no tears.
	rep, err := InspectWAL(NewMemBackend(full))
	if err != nil {
		t.Fatalf("InspectWAL: %v", err)
	}
	if !rep.OK() || rep.TornTail || rep.Commits != 2 || rep.Records < 4 {
		t.Fatalf("intact report = %+v", rep)
	}

	// Torn tail after the last commit: tolerated.
	torn := append([]byte(nil), full[:len(full)-3]...)
	rep, err = InspectWAL(NewMemBackend(torn))
	if err != nil {
		t.Fatalf("InspectWAL torn: %v", err)
	}
	if !rep.OK() || !rep.TornTail || rep.Commits != 1 {
		t.Fatalf("torn-tail report = %+v", rep)
	}

	// A corrupt byte inside the *first* commit's records, with a valid
	// commit after it: committed data is damaged — not OK.
	corrupt := append([]byte(nil), full...)
	corrupt[len(afterFirst)/2] ^= 0xFF
	rep, err = InspectWAL(NewMemBackend(corrupt))
	if err != nil {
		t.Fatalf("InspectWAL corrupt: %v", err)
	}
	if rep.OK() || !rep.CorruptBefore {
		t.Fatalf("corrupt-before-commit report = %+v", rep)
	}

	// Empty log.
	rep, err = InspectWAL(NewMemBackend(nil))
	if err != nil {
		t.Fatalf("InspectWAL empty: %v", err)
	}
	if !rep.Empty || !rep.OK() {
		t.Fatalf("empty report = %+v", rep)
	}
}

func TestWALAppendFaults(t *testing.T) {
	t.Run("torn append surfaces at recovery", func(t *testing.T) {
		main := NewMemBackend(nil)
		walMem := NewMemBackend(nil)
		p, err := OpenBackend(main, 64)
		if err != nil {
			t.Fatal(err)
		}
		fb := NewFaultBackend(walMem, FaultConfig{TornAppend: 3})
		if err := p.EnableWALBackend(fb); err != nil {
			t.Fatalf("EnableWALBackend: %v", err)
		}
		id := allocPage(t, p)
		writeCounter(t, p, id, 1)
		writeCounter(t, p, id, 2) // this append tears, but "succeeds"
		if len(fb.Faults()) == 0 {
			t.Fatal("no fault injected; ordinal misses the schedule")
		}
		// The medium lied; recovery discovers the tear and falls back to
		// the last intact commit.
		rp := reopenWAL(t, main.Bytes(), walMem.Bytes(), 64)
		if got := readCounter(t, rp, id); got != 1 {
			t.Fatalf("recovered %d, want 1 (torn commit discarded)", got)
		}
	})

	t.Run("failed append keeps pages dirty and retries", func(t *testing.T) {
		main := NewMemBackend(nil)
		walMem := NewMemBackend(nil)
		p, err := OpenBackend(main, 64)
		if err != nil {
			t.Fatal(err)
		}
		// Append-region writes: #1 the WAL header at enable, #2 the
		// first commit's batch, #3 the second commit's batch (fails).
		fb := NewFaultBackend(walMem, FaultConfig{FailAppend: 3})
		if err := p.EnableWALBackend(fb); err != nil {
			t.Fatal(err)
		}
		id := allocPage(t, p)
		writeCounter(t, p, id, 1)
		p.BeginWrite()
		pg, err := p.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint64(pg.Data[0:8], 2)
		pg.MarkDirty()
		p.Unpin(pg)
		p.EndWrite()
		if err := p.Commit(); !errors.Is(err, ErrInjected) {
			t.Fatalf("Commit over failing append = %v, want ErrInjected", err)
		}
		// The batch failed before acknowledging anything; a retry must
		// still carry the mutation.
		if err := p.Commit(); err != nil {
			t.Fatalf("retry Commit: %v", err)
		}
		rp := reopenWAL(t, main.Bytes(), walMem.Bytes(), 64)
		if got := readCounter(t, rp, id); got != 2 {
			t.Fatalf("recovered %d, want 2 (retried commit)", got)
		}
	})

	// failedSync leaves page id with an acknowledged frame (value 1) and a
	// newer one (value 9) whose batch reached the log but whose fsync
	// failed. WAL syncs: #1 the header at enable, #2 the first commit,
	// #3 the second commit (fails). ackedWAL is the log as the last
	// successful fsync left it: what a medium that dropped the failed
	// batch holds.
	failedSync := func(t *testing.T) (p *Pager, main, walMem *MemBackend, ackedWAL []byte, id PageID) {
		t.Helper()
		main = NewMemBackend(nil)
		walMem = NewMemBackend(nil)
		p, err := OpenBackend(main, 64)
		if err != nil {
			t.Fatal(err)
		}
		fb := NewFaultBackend(walMem, FaultConfig{FailSync: 3})
		if err := p.EnableWALBackend(fb); err != nil {
			t.Fatal(err)
		}
		id = allocPage(t, p)
		writeCounter(t, p, id, 1)
		ackedWAL = walMem.Bytes()
		p.BeginWrite()
		pg, err := p.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint64(pg.Data[0:8], 9)
		pg.MarkDirty()
		p.Unpin(pg)
		p.EndWrite()
		if err := p.Commit(); !errors.Is(err, ErrInjected) || !errors.Is(err, ErrReadOnly) {
			t.Fatalf("Commit over failing sync = %v, want ErrInjected and ErrReadOnly", err)
		}
		return p, main, walMem, ackedWAL, id
	}
	// recovered reopens the page file beside each log the failed sync may
	// have left: the acknowledged 1 must come back from both, and the
	// unacknowledged 9 may only come from the log that kept its batch.
	recovered := func(t *testing.T, mainImg, walImg, ackedWAL []byte, id PageID) {
		t.Helper()
		if got := readCounter(t, reopenWAL(t, mainImg, ackedWAL, 64), id); got != 1 {
			t.Fatalf("recovered %d from the log without the failed batch, want the acknowledged 1", got)
		}
		if got := readCounter(t, reopenWAL(t, mainImg, walImg, 64), id); got != 1 && got != 9 {
			t.Fatalf("recovered %d, want the acknowledged 1 or the failed batch's 9", got)
		}
	}

	// A failed fsync is fail-stop: the batch's pages are already marked
	// clean, so a retried Commit would write nothing and acknowledge a 9
	// that may not be durable. Every later write is refused instead.
	t.Run("failed wal sync fails the commit", func(t *testing.T) {
		p, main, walMem, ackedWAL, id := failedSync(t)
		if err := p.Commit(); !errors.Is(err, ErrReadOnly) {
			t.Fatalf("retry Commit = %v, want ErrReadOnly", err)
		}
		if _, err := p.Allocate(); !errors.Is(err, ErrReadOnly) {
			t.Fatalf("Allocate after a failed sync = %v, want ErrReadOnly", err)
		}
		if err := p.Close(); err != nil {
			t.Fatalf("Close of the read-only pager: %v", err)
		}
		recovered(t, main.Bytes(), walMem.Bytes(), ackedWAL, id)
	})

	// The probe that once acknowledged a lost value: failed sync, then a
	// checkpoint, then a retried Commit. The checkpoint backfills only the
	// acknowledged image — walState.index keeps every frame of a page
	// because the failed batch's frame is indexed (newest) before its
	// fsync — and drops the failed batch with the log; the Commit after it
	// must not return nil.
	t.Run("checkpoint after failed wal sync backfills the acknowledged", func(t *testing.T) {
		p, main, walMem, ackedWAL, id := failedSync(t)
		if err := p.CheckpointWAL(); err != nil {
			t.Fatalf("CheckpointWAL: %v", err)
		}
		img := main.Bytes()
		if int64(len(img)) < (int64(id)+1)*PageSize {
			t.Fatalf("page file ends at %d, before page %d", len(img), id)
		}
		if got := binary.LittleEndian.Uint64(img[int64(id)*PageSize:]); got != 1 {
			t.Fatalf("page file holds %d, want the acknowledged 1", got)
		}
		if err := p.Commit(); !errors.Is(err, ErrReadOnly) {
			t.Fatalf("Commit after the checkpoint = %v, want ErrReadOnly", err)
		}
		recovered(t, img, walMem.Bytes(), ackedWAL, id)
	})
}

// closeCounter counts Close calls on the backend it wraps.
type closeCounter struct {
	Backend
	closes int
}

func (c *closeCounter) Close() error {
	c.closes++
	return c.Backend.Close()
}

// TestWALCloseFaultReleasesBackends: once Close has marked the pager
// closed, a failing final commit or checkpoint is reported and both
// backends are still released, exactly once — a second Close has
// nothing left to do and says so.
func TestWALCloseFaultReleasesBackends(t *testing.T) {
	// open builds a WAL pager with one committed and one uncommitted
	// write, over backends failing the given Sync ordinals (0: none).
	open := func(t *testing.T, mainFail, walFail int) (p *Pager, main, wal *closeCounter, mainFB, walFB *FaultBackend) {
		t.Helper()
		mainFB = NewFaultBackend(NewMemBackend(nil), FaultConfig{FailSync: mainFail})
		walFB = NewFaultBackend(NewMemBackend(nil), FaultConfig{FailSync: walFail})
		main, wal = &closeCounter{Backend: mainFB}, &closeCounter{Backend: walFB}
		p, err := OpenBackend(main, 64)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.EnableWALBackend(wal); err != nil {
			t.Fatal(err)
		}
		id := allocPage(t, p)
		writeCounter(t, p, id, 1)
		pg, err := p.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint64(pg.Data[0:8], 2)
		pg.MarkDirty()
		p.Unpin(pg)
		return p, main, wal, mainFB, walFB
	}
	// The Sync ordinals Close starts from, read off a fault-free run.
	p, _, _, mainFB, walFB := open(t, 0, 0)
	_, _, mainSyncs := mainFB.Ops()
	_, _, walSyncs := walFB.Ops()
	if err := p.Close(); err != nil {
		t.Fatalf("fault-free Close: %v", err)
	}

	for _, tc := range []struct {
		name              string
		mainFail, walFail int
	}{
		{"final commit's wal sync", 0, walSyncs + 1},
		{"final checkpoint's page-file sync", mainSyncs + 1, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, main, wal, _, _ := open(t, tc.mainFail, tc.walFail)
			if err := p.Close(); !errors.Is(err, ErrInjected) {
				t.Fatalf("Close = %v, want ErrInjected", err)
			}
			if main.closes != 1 || wal.closes != 1 {
				t.Fatalf("backend closes: main %d, wal %d, want 1 and 1", main.closes, wal.closes)
			}
			if err := p.Close(); err != nil {
				t.Fatalf("second Close = %v, want nil", err)
			}
			if main.closes != 1 || wal.closes != 1 {
				t.Fatalf("second Close closed again: main %d, wal %d", main.closes, wal.closes)
			}
			if _, err := p.Fetch(1); !errors.Is(err, ErrClosed) {
				t.Fatalf("Fetch after failed Close = %v, want ErrClosed", err)
			}
		})
	}
}

func TestWALCrashPointSweep(t *testing.T) {
	pair := NewCrashPair()
	var acked atomic.Uint64
	ackedAt := make(map[int]uint64)
	var ackedAtMu sync.Mutex
	pair.OnSync = func(i int, img CrashImage) {
		ackedAtMu.Lock()
		ackedAt[i] = acked.Load()
		ackedAtMu.Unlock()
	}

	p, err := OpenBackend(pair.Main(), 32)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.EnableWALBackend(pair.WAL()); err != nil {
		t.Fatal(err)
	}
	id := allocPage(t, p)
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	const commits = 25
	for n := uint64(1); n <= commits; n++ {
		writeCounter(t, p, id, n)
		acked.Store(n)
		if n%8 == 0 {
			if err := p.CheckpointWAL(); err != nil {
				t.Fatalf("checkpoint at %d: %v", n, err)
			}
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	images := pair.Images()
	if len(images) < commits {
		t.Fatalf("only %d crash images for %d commits", len(images), commits)
	}
	for i, img := range images {
		rp := reopenWAL(t, img.Main, img.WAL, 32)
		var got uint64
		if rp.NumPages() > int(id) {
			got = readCounter(t, rp, id)
		}
		ackedAtMu.Lock()
		floor := ackedAt[i]
		ackedAtMu.Unlock()
		if got < floor {
			t.Fatalf("image %d: recovered counter %d < %d acked commits — acked commit lost", i, got, floor)
		}
		if got > commits {
			t.Fatalf("image %d: recovered counter %d exceeds %d commits ever made", i, got, commits)
		}
	}
}

func TestWALFileBackedReopenAndMmap(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "db.pages")
	p, err := Open(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.EnableWAL(); err != nil {
		t.Fatalf("EnableWAL: %v", err)
	}
	id := allocPage(t, p)
	writeCounter(t, p, id, 5)
	if err := p.EnableMmap(); err != nil && !errors.Is(err, ErrMmapUnsupported) {
		t.Fatalf("EnableMmap: %v", err)
	}
	// The mapping's bytes for id are stale (the newest image is in the
	// WAL); Pin must route through the pool.
	writeCounter(t, p, id, 6)
	v, err := p.Pin(id)
	if err != nil {
		t.Fatalf("Pin: %v", err)
	}
	if got := binary.LittleEndian.Uint64(v.Data()[0:8]); got != 6 {
		t.Fatalf("pinned view sees %d, want 6", got)
	}
	v.Unpin()
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Close checkpointed: the sidecar is truncated to its bare header
	// and the page file stands alone.
	if fi, err := os.Stat(WALPath(path)); err != nil || fi.Size() != walHeaderSize {
		t.Fatalf("wal sidecar after close: size=%v err=%v, want %d", fi, err, walHeaderSize)
	}
	rp, err := Open(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := rp.EnableWAL(); err != nil {
		t.Fatal(err)
	}
	if got := readCounter(t, rp, id); got != 5+1 {
		t.Fatalf("reopened counter = %d, want 6", got)
	}
	if err := rp.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestWALAutoCheckpoint(t *testing.T) {
	p, _ := newWALPager(t, NewMemBackend(nil), 256)
	p.wal.Load().checkpointEvery = 16 * PageSize
	var ids []PageID
	for i := 0; i < 8; i++ {
		ids = append(ids, allocPage(t, p))
	}
	for round := 0; round < 10; round++ {
		for _, id := range ids {
			writeCounter(t, p, id, uint64(round))
		}
	}
	if s := p.WALStats(); s.Checkpoints == 0 {
		t.Fatalf("no automatic checkpoint despite %d bytes threshold: %+v", 16*PageSize, s)
	}
}

func TestWALStatsString(t *testing.T) {
	// Exercise the fmt path used by pictdbcheck's summary line.
	p, _ := newWALPager(t, NewMemBackend(nil), 16)
	id := allocPage(t, p)
	writeCounter(t, p, id, 1)
	s := p.WALStats()
	if out := fmt.Sprintf("records=%d gen=%d", s.Frames, s.LastGen); out == "" {
		t.Fatal("unreachable")
	}
}
