package storage

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/pager"
)

func newHeap(t *testing.T) *Heap {
	t.Helper()
	p := pager.OpenMem(16)
	t.Cleanup(func() { p.Close() })
	h, _, err := Create(p)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestInsertGetRoundtrip(t *testing.T) {
	h := newHeap(t)
	recs := [][]byte{
		[]byte("alpha"),
		[]byte(""),
		bytes.Repeat([]byte("x"), 1000),
		[]byte("delta"),
	}
	var ids []TupleID
	for _, r := range recs {
		id, err := h.Insert(r)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if h.Len() != len(recs) {
		t.Fatalf("Len = %d", h.Len())
	}
	for i, id := range ids {
		got, err := h.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, recs[i]) {
			t.Fatalf("record %d: got %q", i, got)
		}
	}
}

func TestInsertSpillsAcrossPages(t *testing.T) {
	h := newHeap(t)
	rec := bytes.Repeat([]byte("p"), 1200)
	var ids []TupleID
	for i := 0; i < 20; i++ { // 20 * 1.2KB >> one 4KB page
		id, err := h.Insert(rec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	pages := map[pager.PageID]bool{}
	for _, id := range ids {
		pages[id.Page] = true
		if _, err := h.Get(id); err != nil {
			t.Fatal(err)
		}
	}
	if len(pages) < 2 {
		t.Fatalf("expected records across multiple pages, got %d page(s)", len(pages))
	}
}

func TestRecordTooLarge(t *testing.T) {
	h := newHeap(t)
	if _, err := h.Insert(make([]byte, MaxRecordSize+1)); err == nil {
		t.Fatal("oversized record accepted")
	}
	// Exactly max fits.
	if _, err := h.Insert(make([]byte, MaxRecordSize)); err != nil {
		t.Fatalf("max-size record rejected: %v", err)
	}
}

func TestDelete(t *testing.T) {
	h := newHeap(t)
	a, _ := h.Insert([]byte("a"))
	b, _ := h.Insert([]byte("b"))
	if err := h.Delete(a); err != nil {
		t.Fatal(err)
	}
	if h.Len() != 1 {
		t.Fatalf("Len = %d", h.Len())
	}
	if _, err := h.Get(a); err == nil {
		t.Fatal("deleted record still readable")
	}
	if err := h.Delete(a); err == nil {
		t.Fatal("double delete succeeded")
	}
	if got, err := h.Get(b); err != nil || string(got) != "b" {
		t.Fatalf("unrelated record damaged: %q, %v", got, err)
	}
}

// TestDeadSlotStaysDead: an insert after a delete takes a new slot,
// and the dead slot still resolves to no record after a reopen.
func TestDeadSlotStaysDead(t *testing.T) {
	path := filepath.Join(t.TempDir(), "heap.db")
	p := openLogged(t, path, 8)
	h, _, err := Create(p)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := h.Insert([]byte("victim"))
	h.Insert([]byte("keeper"))
	if err := h.Delete(a); err != nil {
		t.Fatal(err)
	}
	c, err := h.Insert([]byte("newcomer"))
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Fatalf("insert after delete took the dead slot %v", a)
	}
	if c.Page != a.Page {
		t.Fatalf("insert went to page %d, want the last page %d", c.Page, a.Page)
	}
	if _, err := h.Get(a); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get of the dead slot = %v, want ErrNotFound", err)
	}
	first := h.FirstPage()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	p2 := openLogged(t, path, 8)
	defer p2.Close()
	h2, err := Open(p2, first)
	if err != nil {
		t.Fatal(err)
	}
	d, err := h2.Insert([]byte("after reopen"))
	if err != nil {
		t.Fatal(err)
	}
	if d == a || d == c {
		t.Fatalf("insert after reopen took slot %v (dead %v, live %v)", d, a, c)
	}
	if _, err := h2.Get(a); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get of the dead slot after reopen = %v, want ErrNotFound", err)
	}
	if err := h2.Delete(a); !errors.Is(err, ErrNotFound) {
		t.Fatalf("second Delete of the dead slot = %v, want ErrNotFound", err)
	}
	if got, err := h2.Get(c); err != nil || string(got) != "newcomer" {
		t.Fatalf("Get(%v) after reopen = %q, %v", c, got, err)
	}
	if h2.Len() != 3 {
		t.Fatalf("Len after reopen = %d, want 3", h2.Len())
	}
}

func TestScan(t *testing.T) {
	h := newHeap(t)
	want := map[string]bool{}
	for i := 0; i < 50; i++ {
		rec := fmt.Sprintf("record-%02d", i)
		h.Insert([]byte(rec))
		want[rec] = true
	}
	// Delete a few, after the scan that picks them: a scan holds the
	// heap's latch, so its fn does not write.
	i := 0
	var victims []TupleID
	h.Scan(func(id TupleID, rec []byte) bool {
		if i%7 == 0 {
			delete(want, string(rec))
			victims = append(victims, id)
		}
		i++
		return true
	})
	for _, id := range victims {
		h.Delete(id)
	}
	got := map[string]bool{}
	if err := h.Scan(func(_ TupleID, rec []byte) bool {
		got[string(rec)] = true
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("scan saw %d records, want %d", len(got), len(want))
	}
	for k := range want {
		if !got[k] {
			t.Fatalf("scan missed %q", k)
		}
	}
}

func TestScanEarlyStop(t *testing.T) {
	h := newHeap(t)
	for i := 0; i < 10; i++ {
		h.Insert([]byte{byte(i)})
	}
	n := 0
	h.Scan(func(TupleID, []byte) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Fatalf("early stop saw %d", n)
	}
}

func TestGetBatchMatchesGet(t *testing.T) {
	h := newHeap(t)
	var ids []TupleID
	for i := 0; i < 200; i++ {
		id, err := h.Insert([]byte(fmt.Sprintf("batch-record-%03d-%s", i, bytes.Repeat([]byte("z"), i%50))))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// Shuffle and duplicate some ids: GetBatch must deliver each request
	// at its own index regardless of page order or repetition.
	rng := rand.New(rand.NewSource(5))
	req := append([]TupleID(nil), ids...)
	rng.Shuffle(len(req), func(i, j int) { req[i], req[j] = req[j], req[i] })
	req = append(req, req[0], req[1], req[0])

	got := make([][]byte, len(req))
	if err := h.GetBatch(req, func(i int, rec []byte) error {
		got[i] = append([]byte(nil), rec...) // rec only valid during callback
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, id := range req {
		want, err := h.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[i], want) {
			t.Fatalf("batch index %d (id %v): got %q want %q", i, id, got[i], want)
		}
	}
}

func TestGetBatchEmpty(t *testing.T) {
	h := newHeap(t)
	if err := h.GetBatch(nil, func(int, []byte) error {
		t.Fatal("callback on empty batch")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestGetBatchDeadSlot(t *testing.T) {
	h := newHeap(t)
	a, _ := h.Insert([]byte("a"))
	b, _ := h.Insert([]byte("b"))
	if err := h.Delete(a); err != nil {
		t.Fatal(err)
	}
	// A deleted id is handed to fn with a nil record; the batch goes on.
	got := make([][]byte, 2)
	called := make([]bool, 2)
	err := h.GetBatch([]TupleID{b, a}, func(i int, rec []byte) error {
		got[i], called[i] = append([]byte(nil), rec...), true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !called[0] || !called[1] || string(got[0]) != "b" || got[1] != nil {
		t.Fatalf("GetBatch of a live and a deleted id = %q (called %v), want [b <nil>]", got, called)
	}
	if _, err := h.Get(a); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get of the deleted id = %v, want ErrNotFound", err)
	}
}

func TestGetBatchBadSlot(t *testing.T) {
	h := newHeap(t)
	a, _ := h.Insert([]byte("a"))
	bad := TupleID{Page: a.Page, Slot: a.Slot + 99}
	err := h.GetBatch([]TupleID{bad}, func(int, []byte) error { return nil })
	if err == nil {
		t.Fatal("out-of-range slot readable through GetBatch")
	}
}

func TestGetBatchCallbackError(t *testing.T) {
	h := newHeap(t)
	var ids []TupleID
	for i := 0; i < 10; i++ {
		id, _ := h.Insert([]byte{byte(i)})
		ids = append(ids, id)
	}
	boom := fmt.Errorf("boom")
	calls := 0
	err := h.GetBatch(ids, func(i int, _ []byte) error {
		calls++
		if calls == 3 {
			return boom
		}
		return nil
	})
	if err == nil || calls != 3 {
		t.Fatalf("callback error not propagated: err=%v calls=%d", err, calls)
	}
}

func TestTupleIDInt64Roundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		id := TupleID{Page: pager.PageID(rng.Uint32()), Slot: uint16(rng.Uint32())}
		if got := TupleIDFromInt64(id.Int64()); got != id {
			t.Fatalf("roundtrip %v -> %v", id, got)
		}
	}
	if TupleID.IsValid(TupleID{}) {
		t.Fatal("zero TupleID should be invalid")
	}
}

// TestTupleIDEncoding: an id encodes as page<<16|slot, non-negative at
// the largest page and slot, and decodes back.
func TestTupleIDEncoding(t *testing.T) {
	id := TupleID{Page: math.MaxUint32, Slot: math.MaxUint16}
	if got, want := id.Int64(), int64(math.MaxUint32)<<16|math.MaxUint16; got != want {
		t.Fatalf("%v encodes as %#x, want page<<16|slot = %#x", id, got, want)
	}
	if got := TupleIDFromInt64(id.Int64()); got != id {
		t.Fatalf("roundtrip %v -> %v", id, got)
	}
}

// TestEmptyHeapHasNoPage: Create touches no page, and every walk of a
// heap with no page — Open, Scan, Pages, Check, Free — ends at once; the
// first Insert allocates the first page, and the heap reopens from it.
func TestEmptyHeapHasNoPage(t *testing.T) {
	p := pager.OpenMem(8)
	defer p.Close()
	pages := p.NumPages()
	h, first, err := Create(p)
	if err != nil {
		t.Fatal(err)
	}
	if first != pager.InvalidPage || h.FirstPage() != pager.InvalidPage || p.NumPages() != pages {
		t.Fatalf("Create: first page %d (FirstPage %d), %d pages -> %d; want no page", first, h.FirstPage(), pages, p.NumPages())
	}
	empty, err := Open(p, pager.InvalidPage)
	if err != nil || empty.Len() != 0 {
		t.Fatalf("Open of no page = %d records, %v", empty.Len(), err)
	}
	if err := empty.Scan(func(TupleID, []byte) bool { t.Fatal("Scan of an empty heap called fn"); return false }); err != nil {
		t.Fatal(err)
	}
	if ids, err := empty.Pages(); err != nil || len(ids) != 0 {
		t.Fatalf("Pages of an empty heap = %v, %v", ids, err)
	}
	if err := empty.Check(); err != nil {
		t.Fatal(err)
	}
	if err := empty.Free(); err != nil {
		t.Fatal(err)
	}
	id, err := h.Insert([]byte("first"))
	if err != nil {
		t.Fatal(err)
	}
	if p.NumPages() != pages+1 || h.FirstPage() != id.Page {
		t.Fatalf("first Insert: %d pages -> %d, first page %d, record on %d; want one page, the record's", pages, p.NumPages(), h.FirstPage(), id.Page)
	}
	h2, err := Open(p, h.FirstPage())
	if err != nil || h2.Len() != 1 {
		t.Fatalf("reopened from the first page: %d records, %v", h2.Len(), err)
	}
}

func TestHeapReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "heap.db")
	p := openLogged(t, path, 8)
	h, _, err := Create(p)
	if err != nil {
		t.Fatal(err)
	}
	var ids []TupleID
	for i := 0; i < 100; i++ {
		id, err := h.Insert([]byte(fmt.Sprintf("tuple %d", i)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	h.Delete(ids[3])
	first := h.FirstPage()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	p2 := openLogged(t, path, 8)
	defer p2.Close()
	h2, err := Open(p2, first)
	if err != nil {
		t.Fatal(err)
	}
	if h2.Len() != 99 {
		t.Fatalf("reopened Len = %d, want 99", h2.Len())
	}
	got, err := h2.Get(ids[42])
	if err != nil || string(got) != "tuple 42" {
		t.Fatalf("reopened Get = %q, %v", got, err)
	}
	if _, err := h2.Get(ids[3]); err == nil {
		t.Fatal("deleted tuple resurrected after reopen")
	}
	// The heap remains appendable after reopen.
	if _, err := h2.Insert([]byte("new after reopen")); err != nil {
		t.Fatal(err)
	}
}

// TestScanPageResumes: a heap walked a page at a time yields what one
// Scan yields, in the same order, one call per page of the chain, and a
// callback that stops ends the walk.
func TestScanPageResumes(t *testing.T) {
	p := pager.OpenMem(64)
	defer p.Close()
	h, _, err := Create(p)
	if err != nil {
		t.Fatal(err)
	}
	var ids []TupleID
	for i := 0; i < 600; i++ {
		id, err := h.Insert([]byte(fmt.Sprintf("record-%04d-%s", i, strings.Repeat("x", i%50))))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for i := 0; i < len(ids); i += 9 {
		if err := h.Delete(ids[i]); err != nil {
			t.Fatal(err)
		}
	}
	var want []string
	if err := h.Scan(func(id TupleID, rec []byte) bool {
		want = append(want, id.String()+"="+string(rec))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	pages, err := h.Pages()
	if err != nil || len(pages) < 4 {
		t.Fatalf("want a heap of several pages, got %d (%v)", len(pages), err)
	}
	var got []string
	var walked []pager.PageID
	for next := h.FirstPage(); next != pager.InvalidPage; {
		walked = append(walked, next)
		next, err = h.ScanPage(next, func(id TupleID, rec []byte) bool {
			got = append(got, id.String()+"="+string(rec))
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(walked, pages) {
		t.Fatalf("page-wise walk differs from Scan: %d vs %d records over pages %v vs %v", len(got), len(want), walked, pages)
	}
	seen := 0
	next, err := h.ScanPage(h.FirstPage(), func(TupleID, []byte) bool { seen++; return seen < 3 })
	if err != nil || next != pager.InvalidPage || seen != 3 {
		t.Fatalf("stopped walk: next=%v seen=%d err=%v", next, seen, err)
	}
}

// TestWalksReportCorruptPage: a page whose slot directory is invalid
// but whose bytes are intact (no checksum can see it) stops Scan,
// ScanPage and Check with an error wrapping ErrCorrupt, and every one
// of them releases its reader on that path (the package's TestMain
// fails on a pin left behind, the pager closed or not).
func TestWalksReportCorruptPage(t *testing.T) {
	p := pager.OpenMem(16)
	defer p.Close()
	h, _, err := Create(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := h.Insert([]byte(fmt.Sprintf("record-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	first := h.FirstPage()
	pg, err := p.Fetch(first)
	if err != nil {
		t.Fatal(err)
	}
	pageView{pg}.setFreeEnd(0) // below the slot directory
	pg.MarkDirty()
	p.Unpin(pg)
	scan := func(TupleID, []byte) bool { return true }
	for name, walk := range map[string]func() error{
		"Scan":     func() error { return h.Scan(scan) },
		"ScanPage": func() error { _, err := h.ScanPage(first, scan); return err },
		"Check":    h.Check,
	} {
		if err := walk(); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s over a corrupt slot directory = %v, want ErrCorrupt", name, err)
		}
	}
}

// TestOpenRefusesCorruptChain reopens a heap whose one page claims more
// slots than the page holds, and one whose page links back to itself:
// Open checks each page before it counts its records and guards the
// chain as Pages does, so both fail with ErrCorrupt instead of indexing
// past the page or walking the loop forever.
func TestOpenRefusesCorruptChain(t *testing.T) {
	for name, corrupt := range map[string]func(v pageView){
		"slot count past the page": func(v pageView) { v.setSlotCount(2000) },
		"chain cycle":              func(v pageView) { v.setNextPage(v.pg.ID) },
	} {
		t.Run(name, func(t *testing.T) {
			p := pager.OpenMem(16)
			defer p.Close()
			h, _, err := Create(p)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				if _, err := h.Insert([]byte(fmt.Sprintf("record-%d", i))); err != nil {
					t.Fatal(err)
				}
			}
			pg, err := p.Fetch(h.FirstPage())
			if err != nil {
				t.Fatal(err)
			}
			corrupt(pageView{pg})
			pg.MarkDirty()
			p.Unpin(pg)
			done := make(chan error, 1)
			go func() {
				_, err := Open(p, h.FirstPage())
				done <- err
			}()
			select {
			case err := <-done:
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("Open = %v, want ErrCorrupt", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Open did not return within 5 s")
			}
		})
	}
}

// scatteredHeapFile writes a heap of pages pages (nine ~400-byte records
// each) to a file under tb's temporary directory, closes it, and reopens
// it as pictdb.Open would — log attached and empty, file mapped where the
// build can — returning the pager, the heap's first page and one record
// id per page.
func scatteredHeapFile(tb testing.TB, pages int) (*pager.Pager, pager.PageID, []TupleID) {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "scattered.db")
	p := openLogged(tb, path, pages+8)
	h, _, err := Create(p)
	if err != nil {
		tb.Fatal(err)
	}
	rec := bytes.Repeat([]byte("r"), 400)
	var onePerPage []TupleID
	for len(onePerPage) < pages {
		id, err := h.Insert(rec)
		if err != nil {
			tb.Fatal(err)
		}
		if n := len(onePerPage); n == 0 || onePerPage[n-1].Page != id.Page {
			onePerPage = append(onePerPage, id)
		}
	}
	first := h.FirstPage()
	if err := p.Close(); err != nil {
		tb.Fatal(err)
	}
	p = openLogged(tb, path, pages+8)
	tb.Cleanup(func() { p.Close() })
	_ = p.EnableMmap()
	return p, first, onePerPage
}

// TestReadOnlyMethodsInstallNothing: with the file mapped, opening a
// heap and reading it every way there is leaves the buffer pool as it
// found it — no frame installed, no pool lookup counted — because the
// read-only methods read through the mapping; the first write then
// installs exactly the page it touches.
func TestReadOnlyMethodsInstallNothing(t *testing.T) {
	p, first, ids := scatteredHeapFile(t, 40)
	if !p.MmapActive() {
		t.Skip("no file mapping in this build: every read takes the pool path")
	}
	before, resident := p.Stats(), p.Resident()
	h, err := Open(p, first)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Get(ids[7]); err != nil {
		t.Fatal(err)
	}
	if err := h.GetBatch(ids, func(int, []byte) error { return nil }); err != nil {
		t.Fatal(err)
	}
	seen := 0
	if err := h.Scan(func(TupleID, []byte) bool { seen++; return true }); err != nil {
		t.Fatal(err)
	}
	if _, err := h.ScanPage(ids[3].Page, func(TupleID, []byte) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if err := h.Check(); err != nil { // one walk of the chain
		t.Fatal(err)
	}
	if seen != h.Len() {
		t.Fatalf("Scan saw %d records, Len is %d", seen, h.Len())
	}
	after := p.Stats()
	if p.Resident() != resident || after.Hits+after.Misses != before.Hits+before.Misses {
		t.Fatalf("read-only walks touched the pool: resident %d -> %d, lookups %d -> %d",
			resident, p.Resident(), before.Hits+before.Misses, after.Hits+after.Misses)
	}
	// Open 40, Get 1, GetBatch 40, Scan 40, ScanPage 1, Check 40.
	if got := after.MmapPins - before.MmapPins; got != 162 {
		t.Fatalf("%d pages read through the mapping, want 162: one per page per walk", got)
	}
	if err := h.Delete(ids[7]); err != nil {
		t.Fatal(err)
	}
	if got := p.Resident(); got != resident+1 {
		t.Fatalf("one Delete left %d pages resident, want %d", got, resident+1)
	}
	if _, err := h.Get(ids[7]); err == nil {
		t.Fatal("Get read the deleted record from the stale mapped image, not the dirty frame")
	}
}

// BenchmarkGetBatchScattered reads 100 records on 100 distinct pages of
// a 2 000-page mapped heap from every core at once — the heap fetch of
// a window whose candidates scatter — and reports the cost per page.
func BenchmarkGetBatchScattered(b *testing.B) {
	p, first, ids := scatteredHeapFile(b, 2000)
	h, err := Open(p, first)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1985))
	batches := make([][]TupleID, 64)
	for i := range batches {
		perm := rng.Perm(len(ids))[:100]
		batch := make([]TupleID, 100)
		for k, j := range perm {
			batch[k] = ids[j]
		}
		slices.SortFunc(batch, TupleID.Compare)
		batches[i] = batch
	}
	var next atomic.Uint32
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		total := 0
		for i := int(next.Add(1)) * 17; pb.Next(); i++ {
			err := h.GetBatch(batches[i%len(batches)], func(_ int, rec []byte) error {
				total += len(rec)
				return nil
			})
			if err != nil {
				b.Error(err)
				return
			}
		}
		_ = total
	})
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/100, "ns/page")
}

// openLogged opens the page file at path with its log attached, as
// pictdb.Open does: a pager that writes keeps a log.
func openLogged(tb testing.TB, path string, pool int) *pager.Pager {
	tb.Helper()
	p, err := pager.Open(path, pool)
	if err != nil {
		tb.Fatal(err)
	}
	if err := p.EnableWAL(); err != nil {
		p.Close()
		tb.Fatal(err)
	}
	return p
}
