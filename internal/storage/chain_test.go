package storage

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/pager"
)

// chainedHeap returns a heap of n chains in one pager, chain c holding
// records "c<c>-<i>" for i < per[c]: the layout a relation's heap has
// when its file was written with one store per chain.
func chainedHeap(t *testing.T, p *pager.Pager, per ...int) (*Heap, []pager.PageID) {
	t.Helper()
	firsts := make([]pager.PageID, len(per))
	for c, n := range per {
		h, _, _ := Create(p)
		for i := 0; i < n; i++ {
			if _, err := h.Insert([]byte(fmt.Sprintf("c%d-%d", c, i))); err != nil {
				t.Fatal(err)
			}
		}
		firsts[c] = h.FirstPage()
	}
	h, err := OpenChains(p, firsts)
	if err != nil {
		t.Fatal(err)
	}
	return h, firsts
}

// TestChainsReadAsOneHeap: a heap of several chains, empty ones among
// them, counts, scans and lists every chain's records in ascending id
// order, appends to the last chain only, and reopens from the same chain
// list.
func TestChainsReadAsOneHeap(t *testing.T) {
	p := pager.OpenMem(64)
	t.Cleanup(func() { p.Close() })
	h, firsts := chainedHeap(t, p, 300, 0, 250, 0)
	if h.Len() != 550 {
		t.Fatalf("Len = %d, want 550", h.Len())
	}
	var want []string
	for i := 0; i < 300; i++ {
		want = append(want, fmt.Sprintf("c0-%d", i))
	}
	for i := 0; i < 250; i++ {
		want = append(want, fmt.Sprintf("c2-%d", i))
	}
	scan := func() []string {
		var got []string
		if err := h.Scan(func(_ TupleID, rec []byte) bool {
			got = append(got, string(rec))
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return got
	}
	if got := scan(); !slices.Equal(got, want) {
		t.Fatalf("Scan: %d records, want %d in id order", len(got), len(want))
	}
	id, err := h.Insert([]byte("new"))
	if err != nil {
		t.Fatal(err)
	}
	chains := h.Chains()
	if !slices.Equal(chains[:3], firsts[:3]) || chains[3] != id.Page {
		t.Fatalf("chains after an insert %v, want %v with the last chain started at %d", chains, firsts, id.Page)
	}
	if got := scan(); !slices.Equal(got, append(want, "new")) {
		t.Fatalf("Scan after an insert: %d records, want the new one last", len(got))
	}
	if err := h.Check(); err != nil {
		t.Fatal(err)
	}
	pages, err := h.Pages()
	if err != nil {
		t.Fatal(err)
	}
	re, err := OpenChains(p, chains)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != 551 {
		t.Fatalf("reopened Len = %d, want 551", re.Len())
	}
	if rp, _ := re.Pages(); !slices.Equal(rp, pages) {
		t.Fatalf("reopened pages %v, want %v", rp, pages)
	}
}

// TestPageInTwoChainsIsCorrupt: a chain list naming one page twice, or
// a chain linking into another chain's page, is refused by OpenChains
// with ErrCorrupt, as is a heap of no chain.
func TestPageInTwoChainsIsCorrupt(t *testing.T) {
	p := pager.OpenMem(64)
	t.Cleanup(func() { p.Close() })
	_, firsts := chainedHeap(t, p, 1000, 1000)
	pages, err := func() ([]pager.PageID, error) {
		h, err := Open(p, firsts[1])
		if err != nil {
			return nil, err
		}
		return h.Pages()
	}()
	if err != nil || len(pages) < 2 {
		t.Fatalf("chain 1 pages %v: %v", pages, err)
	}
	for _, chains := range [][]pager.PageID{
		{firsts[0], firsts[0]},
		{firsts[0], firsts[1], pages[1]},
		{},
	} {
		if _, err := OpenChains(p, chains); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("OpenChains(%v) = %v, want ErrCorrupt", chains, err)
		}
	}
}

// TestWaitingWriterLetInBetweenPages: a batch read lets a writer that
// waits for the heap's latch in between two pages. At the first page
// boundary of a read of every record of a many-page heap, an Insert
// starts on another goroutine; the read must see it return before it
// reads the next page, and read exactly what a read with no writer
// reads.
func TestWaitingWriterLetInBetweenPages(t *testing.T) {
	p := pager.OpenMem(64)
	t.Cleanup(func() { p.Close() })
	h, _, _ := Create(p)
	var ids []TupleID
	for i := 0; i < 2000; i++ {
		id, err := h.Insert([]byte(fmt.Sprintf("record %d", i)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if ids[len(ids)-1].Page == ids[0].Page {
		t.Fatal("the records fit one page")
	}
	read := func() []string {
		var got []string
		if err := h.GetBatch(ids, func(_ int, rec []byte) error {
			got = append(got, string(rec))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return got
	}
	want := read()

	inserted := make(chan error, 1)
	boundaries := 0
	pageHook = func() {
		if boundaries++; boundaries != 1 {
			return
		}
		go func() {
			_, err := h.Insert([]byte("from a writer"))
			inserted <- err
		}()
		for h.writers.Load() == 0 { // the writer waits for the latch
			runtime.Gosched()
		}
	}
	t.Cleanup(func() { pageHook = nil })
	var got []string
	err := h.GetBatch(ids, func(i int, rec []byte) error {
		if i > 0 && ids[i].Page != ids[i-1].Page && boundaries == 1 {
			select {
			case err := <-inserted:
				if err != nil {
					return err
				}
				boundaries++
			case <-time.After(10 * time.Second):
				return errors.New("the writer waited for the whole read")
			}
		}
		got = append(got, string(rec))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if boundaries < 2 {
		t.Fatal("the read passed no page boundary")
	}
	if !slices.Equal(got, want) {
		t.Fatalf("the read beside a writer returned %d records unlike the %d read alone", len(got), len(want))
	}
	if h.Len() != len(ids)+1 {
		t.Fatalf("Len = %d, want %d", h.Len(), len(ids)+1)
	}
}

// TestScanInIDOrderAcrossChains: over two chains whose pages interleave,
// Scan and a walk of ScanPage from NextPage deliver every record once,
// in ascending id order.
func TestScanInIDOrderAcrossChains(t *testing.T) {
	p := pager.OpenMem(64)
	t.Cleanup(func() { p.Close() })
	a, _, _ := Create(p)
	b, _, _ := Create(p)
	for i := 0; i < 1500; i++ {
		if _, err := []*Heap{a, b}[i/100%2].Insert([]byte(fmt.Sprintf("r%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	h, err := OpenChains(p, []pager.PageID{a.FirstPage(), b.FirstPage()})
	if err != nil {
		t.Fatal(err)
	}
	if pages, _ := h.Pages(); slices.IsSorted(pages) {
		t.Fatalf("chain pages %v do not interleave", pages)
	}
	var byScan, byPage []TupleID
	if err := h.Scan(func(id TupleID, _ []byte) bool {
		byScan = append(byScan, id)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	for page := h.NextPage(pager.InvalidPage); page != pager.InvalidPage; {
		if page, err = h.ScanPage(page, func(id TupleID, _ []byte) bool {
			byPage = append(byPage, id)
			return true
		}); err != nil {
			t.Fatal(err)
		}
	}
	if len(byScan) != 1500 || !slices.IsSortedFunc(byScan, TupleID.Compare) || !slices.Equal(byScan, byPage) {
		t.Fatalf("Scan gave %d ids, sorted %v, equal to the page walk's %d: %v", len(byScan), slices.IsSortedFunc(byScan, TupleID.Compare), len(byPage), slices.Equal(byScan, byPage))
	}
}
