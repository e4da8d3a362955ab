package relation

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/pager"
)

// shardBenchFixture builds a repacked relation over nShards page files
// (nShards == 0 means unsharded) so the scatter-gather window read can
// be compared against the single-tree baseline. Attach happens before
// the load so placement is Hilbert routing, matching production use.
func shardBenchFixture(b *testing.B, nShards, n int) *Relation {
	b.Helper()
	var rel *Relation
	var err error
	pic := usMap()
	p := pager.OpenMem(4096)
	b.Cleanup(func() { p.Close() })
	if nShards == 0 {
		rel, err = New(p, "cities", citySchema(), catalogOf(pic))
	} else {
		rel, err = NewSharded(p, nShards, "cities", citySchema(), catalogOf(pic))
	}
	if err != nil {
		b.Fatal(err)
	}
	if err := rel.AttachPicture(pic, hilbertPack); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1985))
	for i := 0; i < n; i++ {
		addBenchCity(b, rel, pic, fmt.Sprintf("p%d", i), rng.Float64()*1000, rng.Float64()*1000)
	}
	repack(rel, "us-map")
	return rel
}

func benchWindows() []geom.Rect {
	windows := make([]geom.Rect, 64)
	rng := rand.New(rand.NewSource(7))
	for i := range windows {
		cx, cy := rng.Float64()*1000, rng.Float64()*1000
		windows[i] = geom.R(cx-25, cy-25, cx+25, cy+25)
	}
	return windows
}

func runShardSearchBench(b *testing.B, rel *Relation) {
	windows := benchWindows()
	pred := func(obj, win geom.Rect) bool { return true }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := rel.SearchArea("us-map", windows[i%len(windows)], pred); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUnshardedSearch is the baseline clustered-window read over
// one packed tree. Compared against BenchmarkShardedSearch by `make
// benchcheck` — the issue's budget is sharded p50 within 1.2x of this.
func BenchmarkUnshardedSearch(b *testing.B) {
	runShardSearchBench(b, shardBenchFixture(b, 0, 6000))
}

// BenchmarkShardedSearch is the same workload scatter-gathered across
// 8 Hilbert-range shards: the directory prunes non-overlapping shards,
// then per-shard result streams merge in ascending sequence order.
func BenchmarkShardedSearch(b *testing.B) {
	runShardSearchBench(b, shardBenchFixture(b, 8, 6000))
}
