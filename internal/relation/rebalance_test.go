package relation

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/geom"
	"repro/internal/pack"
	"repro/internal/pager"
	"repro/internal/picture"
	"repro/internal/storage"
)

func TestEvenKeyRangesAndShardForKey(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8} {
		ranges := evenKeyRanges(n)
		if len(ranges) != n {
			t.Fatalf("n=%d: %d ranges", n, len(ranges))
		}
		if ranges[0].Lo != 0 || ranges[n-1].Hi != 1<<pack.HilbertKeyBits {
			t.Fatalf("n=%d: ranges do not span the key space: %v", n, ranges)
		}
		for s := 1; s < n; s++ {
			if ranges[s].Lo != ranges[s-1].Hi {
				t.Fatalf("n=%d: gap between shard %d and %d: %v", n, s-1, s, ranges)
			}
		}
		// Every key routes to the shard whose range holds it.
		for s, kr := range ranges {
			if got := shardForKey(ranges, kr.Lo); got != s {
				t.Fatalf("n=%d: key %d -> shard %d, want %d", n, kr.Lo, got, s)
			}
			if got := shardForKey(ranges, kr.Hi-1); got != s {
				t.Fatalf("n=%d: key %d -> shard %d, want %d", n, kr.Hi-1, got, s)
			}
		}
	}
	// An out-of-range key (degenerate extents can quantize past the
	// top) lands on the shard owning the top of the space, even after a
	// split reorders Hi values.
	ranges := []KeyRange{{Lo: 0, Hi: 100}, {Lo: 100, Hi: 1 << 32}, {Lo: 50, Hi: 100}}
	if got := shardForKey(ranges, 1<<32); got != 1 {
		t.Fatalf("overflow key -> shard %d, want 1", got)
	}
}

// newHilbertShardedCities builds a k-shard cities relation with the picture
// attached BEFORE inserts, so routing uses Hilbert keys.
func newHilbertShardedCities(t *testing.T, k int) (*Relation, *picture.Picture) {
	t.Helper()
	pagers := make([]*pager.Pager, k)
	for i := range pagers {
		pagers[i] = pager.OpenMem(64)
	}
	t.Cleanup(func() {
		for _, p := range pagers {
			p.Close()
		}
	})
	rel, err := NewSharded(pagers, "cities", citySchema())
	if err != nil {
		t.Fatal(err)
	}
	pic := picture.New("us-map", geom.R(0, 0, 1000, 1000))
	if err := rel.AttachPicture(pic, pack.Options{}); err != nil {
		t.Fatal(err)
	}
	return rel, pic
}

func TestShardBalanceAndMostLoaded(t *testing.T) {
	rel, pic := newHilbertShardedCities(t, 4)
	// Clustered corner: everything near the origin shares a narrow
	// Hilbert prefix and lands on one shard.
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 120; i++ {
		addCity(t, rel, pic, fmt.Sprintf("c%03d", i), "ST", int64(i), rng.Float64()*80, rng.Float64()*80)
	}
	infos, imbalance := rel.ShardBalance()
	if len(infos) != 4 {
		t.Fatalf("%d balance entries", len(infos))
	}
	total := int64(0)
	for _, in := range infos {
		total += in.Items
	}
	if total != 120 {
		t.Fatalf("balance counts %d tuples, want 120", total)
	}
	if imbalance < 3.0 {
		t.Fatalf("corner cluster imbalance %.2f, want >= 3 (all on one shard)", imbalance)
	}
	s, ok := rel.MostLoadedShard(2.0, 10)
	if !ok {
		t.Fatal("MostLoadedShard found nothing over factor 2")
	}
	if infos[s].Items*2 < total {
		t.Fatalf("most loaded shard %d holds only %d of %d", s, infos[s].Items, total)
	}
	if _, ok := rel.MostLoadedShard(2.0, 1000); ok {
		t.Fatal("minTuples=1000 should suppress the split")
	}
	// Unsharded relations report nothing.
	u, _ := newCities(t)
	if infos, f := u.ShardBalance(); infos != nil || f != 0 {
		t.Fatal("unsharded ShardBalance not empty")
	}
}

// TestSplitShardMovesMedianUpperHalf checks the relation-level split
// contract: ranges partition at the occupancy median, live counts
// follow the moved tuples, results stay identical, and FinishSplit
// leaves the source heap consistent with the route table (Check-clean).
func TestSplitShardMovesMedianUpperHalf(t *testing.T) {
	rel, pic := newHilbertShardedCities(t, 2)
	rng := rand.New(rand.NewSource(9))
	var ids []storage.TupleID
	for i := 0; i < 200; i++ {
		// Hot corner plus a uniform sprinkle.
		x, y := rng.Float64()*100, rng.Float64()*100
		if i%10 == 0 {
			x, y = rng.Float64()*1000, rng.Float64()*1000
		}
		ids = append(ids, addCity(t, rel, pic, fmt.Sprintf("c%03d", i), "ST", int64(i), x, y))
	}
	src, ok := rel.MostLoadedShard(1.2, 10)
	if !ok {
		t.Fatal("no overloaded shard")
	}
	var before []string
	if err := rel.Scan(func(id storage.TupleID, tu Tuple) bool {
		before = append(before, fmt.Sprintf("%v=%s", id, tu[0].Str))
		return true
	}); err != nil {
		t.Fatal(err)
	}

	pgr := pager.OpenMem(64)
	t.Cleanup(func() { pgr.Close() })
	dst, pending, err := rel.SplitShard(src, pgr)
	if err != nil {
		t.Fatal(err)
	}
	if dst != 2 || rel.ShardCount() != 3 {
		t.Fatalf("dst=%d count=%d", dst, rel.ShardCount())
	}
	if pending.Moved() == 0 {
		t.Fatal("split moved nothing")
	}
	infos, _ := rel.ShardBalance()
	if infos[dst].Items != int64(pending.Moved()) {
		t.Fatalf("dst live count %d, moved %d", infos[dst].Items, pending.Moved())
	}
	if infos[src].KeyHi != infos[dst].KeyLo {
		t.Fatalf("ranges do not meet: src.Hi=%d dst.Lo=%d", infos[src].KeyHi, infos[dst].KeyLo)
	}
	if err := rel.FinishSplit(pending); err != nil {
		t.Fatal(err)
	}
	var after []string
	if err := rel.Scan(func(id storage.TupleID, tu Tuple) bool {
		after = append(after, fmt.Sprintf("%v=%s", id, tu[0].Str))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if !namesEqual(before, after) {
		t.Fatalf("scan diverged across split:\nbefore %v\nafter  %v", before, after)
	}
	if err := rel.CheckShards(4); err != nil {
		t.Fatal(err)
	}
	// Every Get still resolves through the rewritten routes.
	for i, id := range ids {
		tu, err := rel.Get(id)
		if err != nil {
			t.Fatalf("Get(%v) after split: %v", id, err)
		}
		if tu[0].Str != fmt.Sprintf("c%03d", i) {
			t.Fatalf("Get(%v) = %q", id, tu[0].Str)
		}
	}
}

// TestSplitShardConcurrentReadersAndWriters races a split against
// readers (Get, SearchArea, JuxtaposeSpatial, Scan) and writers
// (Insert, Delete) under -race. Readers must never observe a missing
// or duplicated tuple; the split must reconcile with racing deletes.
func TestSplitShardConcurrentReadersAndWriters(t *testing.T) {
	rel, pic := newHilbertShardedCities(t, 2)
	rng := rand.New(rand.NewSource(21))
	var ids []storage.TupleID
	for i := 0; i < 300; i++ {
		ids = append(ids, addCity(t, rel, pic, fmt.Sprintf("c%03d", i), "ST", int64(i), rng.Float64()*120, rng.Float64()*120))
	}
	// The stable prefix is never deleted: readers assert on it.
	stable := ids[:200]
	window := geom.R(0, 0, 1000, 1000)

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	reader := func(seed int64) {
		defer wg.Done()
		r := rand.New(rand.NewSource(seed))
		for !stop.Load() {
			switch r.Intn(4) {
			case 0:
				id := stable[r.Intn(len(stable))]
				if _, err := rel.Get(id); err != nil {
					errs <- fmt.Errorf("Get(%v): %w", id, err)
					return
				}
			case 1:
				got, _, err := rel.SearchArea("us-map", window, func(o, w geom.Rect) bool { return o.Intersects(w) })
				if err != nil {
					errs <- fmt.Errorf("SearchArea: %w", err)
					return
				}
				for i := 1; i < len(got); i++ {
					if !tupleIDLessOrEqual(got[i-1], got[i]) {
						errs <- fmt.Errorf("SearchArea out of order or duplicated: %v then %v", got[i-1], got[i])
						return
					}
				}
				if len(got) < len(stable) {
					errs <- fmt.Errorf("SearchArea returned %d < %d stable tuples", len(got), len(stable))
					return
				}
			case 2:
				pairs, _, err := rel.JuxtaposeSpatial("us-map", rel, "us-map",
					func(a, b geom.Rect) bool { return a.Intersects(b) }, 2)
				if err != nil {
					errs <- fmt.Errorf("Juxtapose: %w", err)
					return
				}
				for i := 1; i < len(pairs); i++ {
					if pairs[i-1] == pairs[i] {
						errs <- fmt.Errorf("duplicate join pair %v", pairs[i])
						return
					}
				}
			default:
				n := 0
				if err := rel.Scan(func(storage.TupleID, Tuple) bool { n++; return true }); err != nil {
					errs <- fmt.Errorf("Scan: %w", err)
					return
				}
				if n < len(stable) {
					errs <- fmt.Errorf("Scan saw %d < %d stable tuples", n, len(stable))
					return
				}
			}
		}
	}
	writer := func() {
		defer wg.Done()
		r := rand.New(rand.NewSource(99))
		next := 300
		victims := append([]storage.TupleID(nil), ids[200:]...)
		for !stop.Load() {
			if len(victims) > 0 && r.Intn(2) == 0 {
				v := victims[len(victims)-1]
				victims = victims[:len(victims)-1]
				if err := rel.Delete(v); err != nil {
					errs <- fmt.Errorf("Delete(%v): %w", v, err)
					return
				}
			} else {
				oid := pic.AddPoint(fmt.Sprintf("w%04d", next), geom.Pt(r.Float64()*120, r.Float64()*120))
				if _, err := rel.Insert(Tuple{S(fmt.Sprintf("w%04d", next)), S("ST"), I(int64(next)), L("us-map", oid)}); err != nil {
					errs <- fmt.Errorf("Insert: %w", err)
					return
				}
				next++
			}
		}
	}
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go reader(int64(i) + 1)
	}
	wg.Add(1)
	go writer()

	src, ok := rel.MostLoadedShard(1.2, 10)
	if !ok {
		t.Fatal("no overloaded shard")
	}
	pgr := pager.OpenMem(64)
	t.Cleanup(func() { pgr.Close() })
	dst, pending, err := rel.SplitShard(src, pgr)
	stop.Store(true)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := rel.FinishSplit(pending); err != nil {
		t.Fatal(err)
	}
	rel.WaitRepacks()
	if err := rel.CheckShards(4); err != nil {
		t.Fatal(err)
	}
	infos, _ := rel.ShardBalance()
	if infos[dst].Items == 0 {
		t.Fatal("racing split moved nothing")
	}
	for _, id := range stable {
		if _, err := rel.Get(id); err != nil {
			t.Fatalf("stable id %v lost: %v", id, err)
		}
	}
}

func tupleIDLessOrEqual(a, b storage.TupleID) bool {
	if a.Page != b.Page {
		return a.Page < b.Page
	}
	return a.Slot <= b.Slot
}

// buildClusteredJoinRel makes a relation of small square regions drawn
// around Gaussian clusters (picture attached before inserts): sharded
// and routed by Hilbert key, or with shards == 0 the unsharded
// reference holding the same tuples in the same order.
func buildClusteredJoinRel(t *testing.T, pic *picture.Picture, shards int, centers [][2]float64, seed int64, n int) *Relation {
	t.Helper()
	pagers := make([]*pager.Pager, max(shards, 1))
	for i := range pagers {
		pagers[i] = pager.OpenMem(64)
	}
	t.Cleanup(func() {
		for _, p := range pagers {
			p.Close()
		}
	})
	var rel *Relation
	var err error
	if shards == 0 {
		rel, err = New(pagers[0], "r", citySchema())
	} else {
		rel, err = NewSharded(pagers, "r", citySchema())
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := rel.AttachPicture(pic, pack.Options{}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		c := centers[i%len(centers)]
		x := clamp01k(c[0] + rng.NormFloat64()*20)
		y := clamp01k(c[1] + rng.NormFloat64()*20)
		name := fmt.Sprintf("r%d-%04d", seed, i)
		oid := pic.AddRegion(name, geom.Poly(
			geom.Pt(x-6, y-6), geom.Pt(x+6, y-6), geom.Pt(x+6, y+6), geom.Pt(x-6, y+6)))
		if _, err := rel.Insert(Tuple{S(name), S("ST"), I(int64(i)), L("us-map", oid)}); err != nil {
			t.Fatal(err)
		}
	}
	return rel
}

// TestScatterJuxtaposePruneIdentical checks the frontier restriction's
// two contracts on clustered data. Identity, with the write side warm
// (every tuple still in a delta tree) and again after a repack: the
// pruned sharded join resolves to the same logical pairs, in the same
// canonical order, as the unsharded relations' JuxtaposeSpatial over
// the same tuples (a single index pair, where no shard-pair pruning
// exists). Pruning power, on the packed trees the frontier is cut
// from: it joins at most half the bounds-overlapping shard pair
// product. (A 50-entry delta tree is two or three leaves, so its
// frontier is too coarse to promise a ratio; it only has to stay
// conservative.) The two relations share two cluster sites (so the
// join is non-vacuous) and differ in the rest; six even Hilbert ranges
// over five clusters give L-shaped shard regions whose MBRs overlap
// through empty space — exactly the pairs the frontier walk proves
// empty.
func TestScatterJuxtaposePruneIdentical(t *testing.T) {
	pic := picture.New("us-map", geom.R(0, 0, 1000, 1000))
	ca := [][2]float64{{120, 150}, {850, 200}, {480, 520}, {200, 840}, {880, 870}}
	cb := [][2]float64{{120, 150}, {850, 200}, {700, 650}, {350, 300}, {150, 500}}
	rel := buildClusteredJoinRel(t, pic, 6, ca, 31, 300)
	other := buildClusteredJoinRel(t, pic, 6, cb, 77, 300)
	refRel := buildClusteredJoinRel(t, pic, 0, ca, 31, 300)
	refOther := buildClusteredJoinRel(t, pic, 0, cb, 77, 300)
	pred := func(a, b geom.Rect) bool { return a.Intersects(b) }
	split := func(pairs []SpatialPair) (as, bs []storage.TupleID) {
		for _, p := range pairs {
			as = append(as, p.A)
			bs = append(bs, p.B)
		}
		return as, bs
	}
	join := func(stage string) JoinShardStats {
		t.Helper()
		pruned, stats, _, err := rel.JuxtaposeSpatialStats("us-map", other, "us-map", pred, 2)
		if err != nil {
			t.Fatal(err)
		}
		full, _, err := refRel.JuxtaposeSpatial("us-map", refOther, "us-map", pred, 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(pruned) == 0 {
			t.Fatalf("%s: vacuous, no join pairs", stage)
		}
		gotA, gotB := split(pruned)
		wantA, wantB := split(full)
		if !namesEqual(resolveNames(t, rel, gotA), resolveNames(t, refRel, wantA)) ||
			!namesEqual(resolveNames(t, other, gotB), resolveNames(t, refOther, wantB)) {
			t.Fatalf("%s: pruned sharded join (%d pairs) diverged from the unsharded join (%d pairs)", stage, len(pruned), len(full))
		}
		// And the planner's no-join estimate agrees with the real join.
		est, err := rel.JoinShardPairEstimate("us-map", other, "us-map")
		if err != nil {
			t.Fatal(err)
		}
		if est != stats {
			t.Fatalf("%s: estimate %+v diverged from join stats %+v", stage, est, stats)
		}
		return stats
	}
	join("warm write side")
	for _, r := range []*Relation{rel, other} {
		if err := r.RepackPicture("us-map", pack.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	stats := join("packed")
	if stats.PairsJoined*2 > stats.PairProduct {
		t.Fatalf("frontier restriction joined %d of %d pairs, want <= half", stats.PairsJoined, stats.PairProduct)
	}
}
