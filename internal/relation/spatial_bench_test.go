package relation

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/pager"
	"repro/internal/picture"
	"repro/internal/storage"
	"repro/internal/workload"
)

// benchFixture builds a cities relation with nPacked tuples in the
// packed tree and nDelta tuples absorbed by the write side (the delta
// tree), with every 10th delta-era op deleting a packed
// tuple so tombstone filtering is on the measured path.
func benchFixture(b *testing.B, nPacked, nDelta int) (*Relation, *SpatialIndex) {
	b.Helper()
	p := pager.OpenMem(4096)
	b.Cleanup(func() { p.Close() })
	pic := usMap()
	rel, err := NewSharded(p, 1, "cities", citySchema(), catalogOf(pic))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1985))
	for i := 0; i < nPacked; i++ {
		addBenchCity(b, rel, pic, fmt.Sprintf("p%d", i), rng.Float64()*1000, rng.Float64()*1000)
	}
	if err := rel.AttachPicture(pic, hilbertPack); err != nil {
		b.Fatal(err)
	}
	si := rel.Spatial("us-map")
	si.SetDeltaThreshold(math.MaxInt)
	for i := 0; i < nDelta; i++ {
		id := addBenchCity(b, rel, pic, fmt.Sprintf("d%d", i), rng.Float64()*1000, rng.Float64()*1000)
		if i%10 == 9 {
			if err := rel.Delete(id); err != nil {
				b.Fatal(err)
			}
		}
	}
	return rel, si
}

func addBenchCity(b *testing.B, rel *Relation, pic *picture.Picture, name string, x, y float64) storage.TupleID {
	b.Helper()
	oid := pic.AddPoint(name, geom.Pt(x, y))
	id, err := rel.Insert(Tuple{S(name), S("ST"), I(0), L(pic.Name(), oid)})
	if err != nil {
		b.Fatal(err)
	}
	return id
}

// BenchmarkDeltaMergedSearch measures the two-tree merged window read
// (packed + delta minus tombstones, canonically ordered) that
// every query pays while writes are pending — the read-amplification
// side of the LSM trade. Run via `make benchcheck`.
func BenchmarkDeltaMergedSearch(b *testing.B) {
	rel, si := benchFixture(b, 5000, 1000)
	if si.DeltaLen() == 0 {
		b.Fatal("fixture has no pending delta")
	}
	windows := make([]geom.Rect, 64)
	rng := rand.New(rand.NewSource(7))
	for i := range windows {
		cx, cy := rng.Float64()*1000, rng.Float64()*1000
		windows[i] = geom.R(cx-25, cy-25, cx+25, cy+25)
	}
	pred := func(obj, win geom.Rect) bool { return true }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := rel.SearchArea("us-map", windows[i%len(windows)], pred); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPackedOnlySearch is the same workload with the write side
// fully repacked — the baseline the merged read is compared against.
func BenchmarkPackedOnlySearch(b *testing.B) {
	rel, si := benchFixture(b, 5000, 1000)
	si.RepackNow(false)
	if si.DeltaLen() != 0 || si.TombstoneCount() != 0 {
		b.Fatal("repack left pending write side")
	}
	windows := make([]geom.Rect, 64)
	rng := rand.New(rand.NewSource(7))
	for i := range windows {
		cx, cy := rng.Float64()*1000, rng.Float64()*1000
		windows[i] = geom.R(cx-25, cy-25, cx+25, cy+25)
	}
	pred := func(obj, win geom.Rect) bool { return true }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := rel.SearchArea("us-map", windows[i%len(windows)], pred); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRepack times one repack at the served size: 200 000 packed
// points (the window_read shape, clustered) and a 4 096-entry write
// side, merged and re-packed by one RepackNow plus WaitRepack per op.
// Every op starts from the same packed tree and the same write side, so
// every op does the same work; building them is untimed. It is the
// figure relation.repack_ms is a sum of.
func BenchmarkRepack(b *testing.B) {
	const packed = 200_000
	items := workload.PointItems(workload.ClusteredPoints(packed+DefaultDeltaThreshold, 50, 30, 1985))
	base := packTree(items[:packed])
	pic := usMap()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		si := newSpatialIndex(pic, base)
		si.SetDeltaThreshold(math.MaxInt)
		for _, it := range items[packed:] {
			si.insert(it.Rect, it.Data)
		}
		b.StartTimer()
		si.RepackNow(false)
		si.WaitRepack()
		if si.DeltaLen() != 0 || si.PackedTree().Len() != len(items) {
			b.Fatalf("repack left %d pending, packed %d of %d", si.DeltaLen(), si.PackedTree().Len(), len(items))
		}
	}
}
