package pager

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"runtime"
	"testing"
)

// FuzzParseHeaderSlots opens a pager over arbitrary page-0 bytes. With
// restamp set, each slot's CRC is recomputed first, so mutated page
// counts, free heads, flags and generations get past the checksum gate
// and reach the checks behind it. Properties: open never panics, an
// error is one of the typed sentinels, a header field never sizes an
// allocation unchecked, and a pager over an accepted header closes
// cleanly.
func FuzzParseHeaderSlots(f *testing.F) {
	var good [2 * headerSlotSize]byte
	encodeHeaderSlot(good[:], 3, 2, 9)
	encodeHeaderSlot(good[headerSlotSize:], 2, InvalidPage, 8)
	f.Add(good[:], false)
	f.Add(good[:headerSlotSize+5], false)
	f.Add(v1Image(1)[:64], false)
	f.Add(partialSumsImage()[:64], false)
	f.Add([]byte{}, false)
	huge := append([]byte(nil), good[:]...)
	binary.LittleEndian.PutUint32(huge[8:12], 0xFFFFFFFF)
	f.Add(huge, true)
	f.Add(append([]byte(nil), good[:]...), true)

	f.Fuzz(func(t *testing.T, data []byte, restamp bool) {
		img := append([]byte(nil), data...)
		if restamp {
			for off := 0; off+headerSlotSize <= len(img) && off < 2*headerSlotSize; off += headerSlotSize {
				binary.LittleEndian.PutUint32(img[off+28:], crc32.Checksum(img[off:off+28], castagnoli))
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p, err := newPager(NewMemBackend(img), 8, "(fuzz)")
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
			t.Fatalf("open allocated %d bytes for a %d-byte header", grew, len(img))
		}
		if err != nil {
			if !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrChecksum) &&
				!errors.Is(err, ErrUnsupportedFormat) && !errors.Is(err, ErrPageRange) {
				t.Fatalf("untyped open error: %v", err)
			}
			return
		}
		if p.NumPages() < 1 {
			t.Fatalf("accepted header with %d pages", p.NumPages())
		}
		if err := p.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
	})
}

// FuzzRecoverWAL feeds arbitrary sidecar bytes, beside a small valid
// page file, to InspectWAL and to EnableWALBackend's recovery. With
// restamp set the log header's CRC, every record's CRC and every page
// record's page trailer are recomputed first, so mutated kinds, counts,
// lengths and header states get past the checksum gates and reach the
// checks behind them. Properties: neither panics; a length field never
// sizes an allocation unchecked; a log InspectWAL refuses, recovery
// refuses with the same sentinel; a log it reports free of corruption
// before a commit, recovery replays through the last commit it
// reports; any other recovery failure is typed; and the recovered pager
// holds a sane header, verifies every page it has bytes for, closes
// cleanly and reopens.
func FuzzRecoverWAL(f *testing.F) {
	main := NewMemBackend(nil)
	p, wal := newWALPager(f, main, 64)
	a, b := allocPage(f, p), allocPage(f, p)
	writeCounter(f, p, a, 1)
	writeCounter(f, p, b, 2)
	if err := p.CheckpointWAL(); err != nil {
		f.Fatal(err)
	}
	mainImg := main.Bytes()
	writeCounter(f, p, a, 3)
	one := wal.Bytes()
	writeCounter(f, p, b, 4)
	two := wal.Bytes()
	flipped := append([]byte(nil), two...)
	flipped[len(one)-1] ^= 0xFF // the first commit record's CRC

	f.Add([]byte{}, false)            // an empty log
	f.Add(one[:walHeaderSize], false) // a bare header
	f.Add(one, false)                 // one committed batch
	f.Add(two[:len(two)-3], false)    // a torn tail
	f.Add(flipped, false)             // a flipped CRC before a commit
	f.Add(two, true)                  // restamped: mutations reach the sense checks
	f.Add(two[:len(one)+frameHeaderSize+9], true)

	f.Fuzz(func(t *testing.T, data []byte, restamp bool) {
		log := append([]byte(nil), data...)
		if restamp {
			restampWAL(log)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rep, ierr := InspectWAL(NewMemBackend(log))
		mainB := NewMemBackend(mainImg)
		p, err := OpenBackend(mainB, 8)
		if err != nil {
			t.Fatalf("page file: %v", err)
		}
		fileGen := p.gen
		err = p.EnableWALBackend(NewMemBackend(log))
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20+8*uint64(len(log)) {
			t.Fatalf("inspection and recovery allocated %d bytes for a %d-byte log", grew, len(log))
		}
		if ierr != nil {
			for _, sentinel := range []error{ErrBadMagic, ErrChecksum} {
				if errors.Is(ierr, sentinel) != errors.Is(err, sentinel) {
					t.Fatalf("InspectWAL refused with %v, recovery answered %v", ierr, err)
				}
			}
			return
		}
		if err != nil {
			if !errors.Is(err, ErrChecksum) {
				t.Fatalf("untyped recovery error: %v", err)
			}
			return
		}
		// A replay leaves the pager one generation past the last commit it
		// applied (its closing header write takes the next one); with
		// nothing to replay the page file's generation stands.
		want := fileGen
		if rep.Commits > 0 {
			want = max(fileGen, rep.LastGen) + 1
		}
		if rep.OK() && p.WALStats().LastGen != want {
			t.Fatalf("report %+v is free of corruption before a commit, yet recovery stands at generation %d, not %d",
				rep, p.WALStats().LastGen, want)
		}
		if p.NumPages() < 1 {
			t.Fatalf("recovered a header with %d pages", p.NumPages())
		}
		have := len(mainB.Bytes()) / PageSize
		for id := PageID(1); int(id) < min(p.NumPages(), have); id++ {
			pg, err := p.Fetch(id)
			if err != nil {
				t.Fatalf("recovered page %d: %v", id, err)
			}
			p.Unpin(pg)
		}
		if err := p.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		rp, err := OpenBackend(NewMemBackend(mainB.Bytes()), 8)
		if err != nil {
			t.Fatalf("reopen of the recovered page file: %v", err)
		}
		rp.Close()
	})
}

// restampWAL recomputes, in place, the checksums of a write-ahead log
// image as far as its records chain: the header's CRC, each page
// record's page trailer, each record's magic and CRC.
func restampWAL(log []byte) {
	if len(log) < walHeaderSize {
		return
	}
	binary.LittleEndian.PutUint32(log[12:16], crc32.Checksum(log[:12], castagnoli))
	for off := walHeaderSize; off+frameHeaderSize <= len(log); {
		plen := int(binary.LittleEndian.Uint32(log[off+20 : off+24]))
		end := off + frameHeaderSize + plen
		if plen > PageSize || end+frameTrailer > len(log) {
			return
		}
		binary.LittleEndian.PutUint32(log[off:off+4], frameMagic)
		if log[off+4] == frameKindPage && plen == PageSize {
			stampTrailer(log[off+frameHeaderSize : end])
		}
		binary.LittleEndian.PutUint32(log[end:], crc32.Checksum(log[off:end], castagnoli))
		off = end + frameTrailer
	}
}
