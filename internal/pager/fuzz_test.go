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
