package pager

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// BenchmarkFetchChecksum measures Fetch on pool misses: every
// iteration pays one 4 KiB backend read, and the first lap also pays
// one CRC-32C per page (later laps find the page in the
// verified-bitmap).

const benchPages = 256

func benchPager(b *testing.B) *Pager {
	b.Helper()
	mem := NewMemBackend(nil)
	p, err := OpenBackend(mem, benchPages+1)
	if err != nil {
		b.Fatal(err)
	}
	if err := p.EnableWALBackend(NewMemBackend(nil)); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < benchPages; i++ {
		pg, err := p.Allocate()
		if err != nil {
			b.Fatal(err)
		}
		fillPage(pg)
		p.Unpin(pg)
	}
	// Close folds the log into the page file. Reopen over its bytes with
	// a pool of one page, so every Fetch in the loop below is a miss that
	// reads from the backend.
	if err := p.Close(); err != nil {
		b.Fatal(err)
	}
	p2, err := OpenBackend(NewMemBackend(mem.Bytes()), 1)
	if err != nil {
		b.Fatal(err)
	}
	return p2
}

func BenchmarkFetchChecksum(b *testing.B) {
	p := benchPager(b)
	defer p.Close()
	b.SetBytes(PageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pg, err := p.Fetch(PageID(1 + i%benchPages))
		if err != nil {
			b.Fatal(err)
		}
		p.Unpin(pg)
	}
}

// warmPinPager writes benchPages pages to a real file and reopens it
// with a pool of pool pages, far fewer than benchPages, so the pool
// cannot serve a Pin; only the mapping (or, without it, backend reads)
// can. A parallel benchmark passes one page per goroutine, as each holds
// one pin at a time. With wal the write-ahead log is attached, holding
// no frame — how every pictdb.Open serves a read-only workload.
func warmPinPager(b *testing.B, wal bool, pool int) *Pager {
	b.Helper()
	path := b.TempDir() + "/bench.db"
	p := openLogged(b, path, benchPages+1)
	for i := 0; i < benchPages; i++ {
		pg, err := p.Allocate()
		if err != nil {
			b.Fatal(err)
		}
		fillPage(pg)
		p.Unpin(pg)
	}
	if err := p.Close(); err != nil {
		b.Fatal(err)
	}
	p, err := Open(path, pool)
	if err != nil {
		b.Fatal(err)
	}
	if wal {
		if err := p.EnableWAL(); err != nil {
			b.Fatal(err)
		}
	}
	_ = p.EnableMmap()
	return p
}

// BenchmarkPinWarm measures the zero-copy read path against a warm
// verified-bitmap on a real file: after the first lap every Pin is a
// bitmap check plus a pointer into the mapping — no read, no copy, no
// CRC. Without mmap support the same loop exercises the pool path.
func BenchmarkPinWarm(b *testing.B) { benchPinWarm(b, false) }

// BenchmarkPinWarmWAL is BenchmarkPinWarm with an empty log attached:
// what Pin asks the log (does this page have a frame?) should cost a
// load when the log holds nothing.
func BenchmarkPinWarmWAL(b *testing.B) { benchPinWarm(b, true) }

func benchPinWarm(b *testing.B, wal bool) {
	p := warmPinPager(b, wal, 1)
	defer p.Close()
	b.ReportAllocs()
	b.SetBytes(PageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := p.Pin(PageID(1 + i%benchPages))
		if err != nil {
			b.Fatal(err)
		}
		v.Unpin()
	}
}

// BenchmarkPinWarmParallel and BenchmarkPinWarmWALParallel pin the same
// file from every core at once: what a pin costs when the words it
// writes (the mapping's reference count, the mmap-pin counter — and, on
// the pool path, the pool's lock and LRU links) are shared.
func BenchmarkPinWarmParallel(b *testing.B)    { benchPinWarmParallel(b, false) }
func BenchmarkPinWarmWALParallel(b *testing.B) { benchPinWarmParallel(b, true) }

func benchPinWarmParallel(b *testing.B, wal bool) {
	p := warmPinPager(b, wal, runtime.GOMAXPROCS(0))
	defer p.Close()
	b.ReportAllocs()
	b.SetBytes(PageSize)
	var next atomic.Uint32
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int(next.Add(1)) * 97 // each goroutine starts elsewhere in the file
		for ; pb.Next(); i++ {
			v, err := p.Pin(PageID(1 + i%benchPages))
			if err != nil {
				b.Error(err)
				return
			}
			v.Unpin()
		}
	})
}

// BenchmarkReadBatchParallel is the same traffic through one Reader per
// 100 pages, as Heap.GetBatch reads a window's candidates: one mapping
// reference and one counter update per batch instead of per page.
func BenchmarkReadBatchParallel(b *testing.B) {
	p := warmPinPager(b, true, runtime.GOMAXPROCS(0))
	defer p.Close()
	b.ReportAllocs()
	var next atomic.Uint32
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int(next.Add(1)) * 97
		for pb.Next() {
			r := p.BeginRead()
			for k := 0; k < 100; k, i = k+1, i+1 {
				if _, err := r.Page(PageID(1 + i%benchPages)); err != nil {
					b.Error(err)
					break
				}
			}
			r.End()
		}
	})
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/100, "ns/page")
}
