package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/pager"
)

// FuzzScanPage hands Heap.ScanPage one arbitrary slotted page in a
// memory pager: the decoder of a heap page's raw bytes. Seeds are a
// page holding records, the same page with a dead slot, an empty page
// and a blank one. Properties: ScanPage either succeeds or fails with
// an error wrapping ErrCorrupt, never panics, yields no record longer
// than a page's data area, and every record it yields is the one Get
// returns for the same id.
func FuzzScanPage(f *testing.F) {
	p := pager.OpenMem(4)
	h, _, err := Create(p)
	if err != nil {
		f.Fatal(err)
	}
	var ids []TupleID
	for _, rec := range []string{"alpha", "", "gamma gamma", "delta"} {
		id, err := h.Insert([]byte(rec))
		if err != nil {
			f.Fatal(err)
		}
		ids = append(ids, id)
	}
	first := h.FirstPage()
	f.Add(emptyPageBytes())
	f.Add(pageBytes(f, p, first))
	if err := h.Delete(ids[1]); err != nil {
		f.Fatal(err)
	}
	f.Add(pageBytes(f, p, first))
	f.Add(make([]byte, headerSize))
	if err := p.Close(); err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		p := pager.OpenMem(4)
		defer p.Close()
		h, _, err := Create(p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.Insert(nil); err != nil {
			t.Fatal(err)
		}
		first := h.FirstPage()
		pg, err := p.Fetch(first)
		if err != nil {
			t.Fatal(err)
		}
		pg.Data = [pager.PageSize]byte{}
		copy(pg.Data[:pager.PayloadSize], data)
		pg.MarkDirty()
		p.Unpin(pg)

		type visit struct {
			id  TupleID
			rec []byte
		}
		var seen []visit
		_, err = h.ScanPage(first, func(id TupleID, rec []byte) bool {
			if len(rec) > pager.PageSize-headerSize {
				t.Fatalf("record %v of %d bytes is longer than a page's data area", id, len(rec))
			}
			seen = append(seen, visit{id, bytes.Clone(rec)})
			return true
		})
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("ScanPage failed without ErrCorrupt: %v", err)
			}
			return
		}
		for _, v := range seen {
			got, err := h.Get(v.id)
			if err != nil || !bytes.Equal(got, v.rec) {
				t.Fatalf("Get(%v) = %q, %v; ScanPage yielded %q", v.id, got, err, v.rec)
			}
		}
	})
}

// emptyPageBytes returns the payload of a slotted page holding no
// record, as a heap's first Insert initializes it.
func emptyPageBytes() []byte {
	b := make([]byte, pager.PayloadSize)
	binary.LittleEndian.PutUint16(b[offFreeEnd:], pager.PayloadSize)
	return b
}

// pageBytes copies the payload of page id.
func pageBytes(tb testing.TB, p *pager.Pager, id pager.PageID) []byte {
	tb.Helper()
	pg, err := p.Fetch(id)
	if err != nil {
		tb.Fatal(err)
	}
	defer p.Unpin(pg)
	return bytes.Clone(pg.Data[:pager.PayloadSize])
}
