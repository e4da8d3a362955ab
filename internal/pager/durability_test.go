package pager

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// fillPage writes a recognizable per-page pattern into the payload.
func fillPage(pg *Page) {
	for i := 8; i < 256; i++ {
		pg.Data[i] = byte(uint32(pg.ID) * uint32(i))
	}
	pg.MarkDirty()
}

// checkPattern verifies the pattern written by fillPage.
func checkPattern(t *testing.T, pg *Page) {
	t.Helper()
	for i := 8; i < 256; i++ {
		if pg.Data[i] != byte(uint32(pg.ID)*uint32(i)) {
			t.Fatalf("page %d byte %d = %#x, want %#x", pg.ID, i, pg.Data[i], byte(uint32(pg.ID)*uint32(i)))
		}
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sum.db")
	p := openLogged(t, path, 8)
	pg, err := p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	id := pg.ID
	fillPage(pg)
	p.Unpin(pg)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip one payload byte on disk.
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	off := int64(id)*PageSize + 64
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x01
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	f.Close()

	p, err = Open(path, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.Fetch(id); !errors.Is(err, ErrChecksum) {
		t.Fatalf("Fetch of corrupted page: %v, want ErrChecksum", err)
	}
}

func TestMissingTrailerOnFullSumsFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "miss.db")
	p := openLogged(t, path, 8)
	pg, err := p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	id := pg.ID
	fillPage(pg)
	p.Unpin(pg)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	// Zero the trailer: on a fully-checksummed file an unstamped page
	// is corruption, not a legacy page.
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(make([]byte, TrailerSize), int64(id)*PageSize+PayloadSize); err != nil {
		t.Fatal(err)
	}
	f.Close()

	p, err = Open(path, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.Fetch(id); !errors.Is(err, ErrChecksum) {
		t.Fatalf("Fetch of unstamped page: %v, want ErrChecksum", err)
	}
}

func TestTruncatedFileTypedError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trunc.db")
	p := openLogged(t, path, 8)
	var last PageID
	for i := 0; i < 3; i++ {
		pg, err := p.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		fillPage(pg)
		last = pg.ID
		p.Unpin(pg)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	// Chop the last page off the file; the header still claims it.
	if err := os.Truncate(path, int64(last)*PageSize); err != nil {
		t.Fatal(err)
	}

	p, err := Open(path, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	_, err = p.Fetch(last)
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("Fetch past EOF: %v, want ErrTruncated", err)
	}
	if !errors.Is(err, ErrPageRange) {
		t.Fatalf("ErrTruncated must wrap ErrPageRange, got %v", err)
	}
	// A merely out-of-range id is ErrPageRange but NOT a truncation.
	_, err = p.Fetch(last + 10)
	if !errors.Is(err, ErrPageRange) || errors.Is(err, ErrTruncated) {
		t.Fatalf("Fetch out of range: %v, want ErrPageRange without ErrTruncated", err)
	}
}

// v1Image hand-crafts a legacy "PICTDB01" page file with numPages
// pages whose payloads use all PageSize bytes (no trailer zone).
func v1Image(numPages int) []byte {
	img := make([]byte, numPages*PageSize)
	copy(img[0:8], "PICTDB01")
	binary.LittleEndian.PutUint32(img[8:12], uint32(numPages))
	for id := 1; id < numPages; id++ {
		for i := 0; i < PageSize; i++ {
			img[id*PageSize+i] = byte(id * i)
		}
	}
	return img
}

// partialSumsImage is a current-magic file whose header admits to
// partial checksum coverage — what the old in-place v1 upgrade left.
func partialSumsImage() []byte {
	img := make([]byte, 2*PageSize)
	encodeHeaderSlot(img, 2, InvalidPage, 7)
	img[16] &^= flagFullSums
	binary.LittleEndian.PutUint32(img[28:32], crc32.Checksum(img[:28], castagnoli))
	return img
}

// TestUnsupportedFormatRefused: a v1 file and a partially checksummed
// one are refused with the typed sentinel and not modified.
func TestUnsupportedFormatRefused(t *testing.T) {
	for name, img := range map[string][]byte{"v1 magic": v1Image(3), "full-checksum flag clear": partialSumsImage()} {
		path := filepath.Join(t.TempDir(), "old.db")
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		p, err := Open(path, 8)
		if err == nil {
			p.Close()
			t.Fatalf("%s: opened, want ErrUnsupportedFormat", name)
		}
		if !errors.Is(err, ErrUnsupportedFormat) {
			t.Fatalf("%s: %v, want ErrUnsupportedFormat", name, err)
		}
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(after, img) {
			t.Fatalf("%s: refused open modified the file", name)
		}
	}
}

func TestFreeListAcrossCommitAndReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "free.db")
	p := openLogged(t, path, 8)
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
	if err := p.Free(ids[1]); err != nil {
		t.Fatal(err)
	}
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	numPages := p.NumPages()
	free, err := p.FreePages()
	if err != nil {
		t.Fatal(err)
	}
	if len(free) != 1 || free[0] != ids[1] {
		t.Fatalf("FreePages = %v, want [%d]", free, ids[1])
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	p = openLogged(t, path, 8)
	defer p.Close()
	if got := p.NumPages(); got != numPages {
		t.Fatalf("NumPages after reopen = %d, want %d", got, numPages)
	}
	// The freed page must be reused rather than the file growing.
	pg, err := p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if pg.ID != ids[1] {
		t.Fatalf("Allocate reused page %d, want freed page %d", pg.ID, ids[1])
	}
	p.Unpin(pg)
	if got := p.NumPages(); got != numPages {
		t.Fatalf("NumPages after reuse = %d, want %d (file must not grow)", got, numPages)
	}
	if free, err := p.FreePages(); err != nil || len(free) != 0 {
		t.Fatalf("FreePages after reuse = %v, %v, want empty", free, err)
	}
}

// opRecorder logs the order of backend operations so the test can
// assert the write-back protocol: data writes, sync, header write, sync.
type opRecorder struct {
	*MemBackend
	ops []string
}

func (r *opRecorder) WriteAt(p []byte, off int64) (int, error) {
	kind := "data"
	if len(p) == headerSlotSize {
		kind = "header"
	}
	r.ops = append(r.ops, kind)
	return r.MemBackend.WriteAt(p, off)
}

func (r *opRecorder) Sync() error {
	r.ops = append(r.ops, "sync")
	return r.MemBackend.Sync()
}

// writeBackOrder compacts ops into runs and requires the one write-back
// step's: data+ sync header sync.
func writeBackOrder(t *testing.T, what string, ops []string) {
	t.Helper()
	var compact []string
	for _, op := range ops {
		if len(compact) > 0 && compact[len(compact)-1] == op {
			continue
		}
		compact = append(compact, op)
	}
	if !slices.Equal(compact, []string{"data", "sync", "header", "sync"}) {
		t.Fatalf("%s op sequence %v, want data+ sync header sync", what, ops)
	}
}

// TestCommitOrdersDataBeforeHeader: a commit writes only the log; the
// page file is written by a checkpoint and by recovery, and both order
// its pages before the header that describes them.
func TestCommitOrdersDataBeforeHeader(t *testing.T) {
	rec := &opRecorder{MemBackend: NewMemBackend(nil)}
	p, err := OpenBackend(rec, 8)
	if err != nil {
		t.Fatal(err)
	}
	wal := NewMemBackend(nil)
	if err := p.EnableWALBackend(wal); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		pg, err := p.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		fillPage(pg)
		p.Unpin(pg)
	}
	rec.ops = nil // ignore the fresh-file header write
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	if len(rec.ops) != 0 {
		t.Fatalf("commit touched the page file: %v", rec.ops)
	}
	img, log := rec.Bytes(), wal.Bytes()
	if err := p.CheckpointWAL(); err != nil {
		t.Fatal(err)
	}
	writeBackOrder(t, "checkpoint", rec.ops)
	p.Close()

	// Recovery replays the same log through the same step.
	rec = &opRecorder{MemBackend: NewMemBackend(img)}
	rp, err := OpenBackend(rec, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := rp.EnableWALBackend(NewMemBackend(log)); err != nil {
		t.Fatal(err)
	}
	writeBackOrder(t, "recovery", rec.ops)
	rp.Close()
}

// onePage opens a logged pager over rec and allocates and fills one
// page, not yet committed.
func onePage(t *testing.T, rec Backend) (*Pager, PageID) {
	t.Helper()
	p, err := OpenBackend(rec, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.EnableWALBackend(NewMemBackend(nil)); err != nil {
		t.Fatal(err)
	}
	pg, err := p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	fillPage(pg)
	p.Unpin(pg)
	return p, pg.ID
}

// commitAndFold commits and checkpoints p.
func commitAndFold(t *testing.T, p *Pager) {
	t.Helper()
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := p.CheckpointWAL(); err != nil {
		t.Fatal(err)
	}
}

func TestHeaderSlotAlternation(t *testing.T) {
	rec := NewMemBackend(nil)
	p, _ := onePage(t, rec)
	commitAndFold(t, p)
	img1 := rec.Bytes()
	commitAndFold(t, p)
	img2 := rec.Bytes()
	p.Close()

	// Consecutive checkpoints must write different slots: one slot of
	// img2 equals the corresponding slot of img1 (untouched), the other
	// differs (new generation).
	s0Same := bytes.Equal(img1[0:headerSlotSize], img2[0:headerSlotSize])
	s1Same := bytes.Equal(img1[headerSlotSize:2*headerSlotSize], img2[headerSlotSize:2*headerSlotSize])
	if s0Same == s1Same {
		t.Fatalf("checkpoints must alternate header slots (slot0 same=%v, slot1 same=%v)", s0Same, s1Same)
	}
}

func TestTornHeaderSlotFallsBack(t *testing.T) {
	rec := NewMemBackend(nil)
	p, id := onePage(t, rec)
	// Two checkpoints: both header slots describe the page.
	commitAndFold(t, p)
	commitAndFold(t, p)
	p.Close()

	// Tear the most recent header slot; open must fall back to the
	// older one rather than fail.
	img := rec.Bytes()
	// Find which slot has the higher generation and scribble on it.
	gen0 := binary.LittleEndian.Uint64(img[20:28])
	gen1 := binary.LittleEndian.Uint64(img[headerSlotSize+20 : headerSlotSize+28])
	newer := 0
	if gen1 > gen0 {
		newer = 1
	}
	img[newer*headerSlotSize+10] ^= 0xFF

	p2, err := OpenBackend(NewMemBackend(img), 8)
	if err != nil {
		t.Fatalf("open with one torn slot: %v", err)
	}
	defer p2.Close()
	pg2, err := p2.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	checkPattern(t, pg2)
	p2.Unpin(pg2)

	// Tearing both slots must yield a typed checksum error.
	img[(1-newer)*headerSlotSize+10] ^= 0xFF
	if _, err := OpenBackend(NewMemBackend(img), 8); !errors.Is(err, ErrChecksum) {
		t.Fatalf("open with both slots torn: %v, want ErrChecksum", err)
	}
}
