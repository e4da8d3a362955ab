package relation

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/geom"
	"repro/internal/pager"
	"repro/internal/picture"
	"repro/internal/storage"
)

// shardCounts is the oracle matrix: at each of these store counts a
// search returns the unsharded relation's rows, each relation in its own
// ascending id order.
var shardCounts = []int{1, 2, 4, 8}

// newShardedCities builds a cities relation of shards stores in a fresh
// in-memory pager, its locs resolved among pics.
func newShardedCities(t *testing.T, shards int, pics ...*picture.Picture) *Relation {
	t.Helper()
	p := pager.OpenMem(512)
	t.Cleanup(func() { p.Close() })
	rel, err := NewSharded(p, shards, "cities", citySchema(), catalogOf(pics...))
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

// shardTwins builds one unsharded relation plus sharded twins at every
// shard count, all holding identical tuples over one shared picture.
// Returns the twins and the per-twin insertion-order TupleIDs (index
// aligned across twins: ids[k][i] is the i-th inserted tuple).
func shardTwins(t *testing.T, n int, seed int64) (map[int]*Relation, map[int][]storage.TupleID, *picture.Picture) {
	t.Helper()
	pic := usMap()
	rng := rand.New(rand.NewSource(seed))
	type city struct {
		name string
		pop  int64
		obj  picture.Object
	}
	cities := make([]city, n)
	for i := range cities {
		// Clustered placement: most points land in Gaussian blobs so
		// Hilbert routing produces uneven, realistic shard extents.
		var x, y float64
		switch i % 3 {
		case 0:
			x, y = 150+rng.NormFloat64()*60, 200+rng.NormFloat64()*60
		case 1:
			x, y = 800+rng.NormFloat64()*80, 700+rng.NormFloat64()*80
		default:
			x, y = rng.Float64()*1000, rng.Float64()*1000
		}
		name := fmt.Sprintf("c%04d-%s", i, randWord(rng))
		// Small regions rather than points so juxtaposition predicates
		// have real overlaps to find.
		x, y = clamp01k(x), clamp01k(y)
		half := 4 + rng.Float64()*18
		oid := pic.AddRegion(name, geom.Poly(
			geom.Pt(x-half, y-half), geom.Pt(x+half, y-half),
			geom.Pt(x+half, y+half), geom.Pt(x-half, y+half),
		))
		obj, _ := pic.Get(oid)
		cities[i] = city{name: name, pop: int64(i * 37 % 9000), obj: obj}
	}

	twins := make(map[int]*Relation)
	ids := make(map[int][]storage.TupleID)
	// Key 0 is the unsharded oracle.
	p := pager.OpenMem(512)
	t.Cleanup(func() { p.Close() })
	un, err := NewSharded(p, 1, "cities", citySchema(), catalogOf(pic))
	if err != nil {
		t.Fatal(err)
	}
	twins[0] = un
	for _, k := range shardCounts {
		twins[k] = newShardedCities(t, k, pic)
	}
	// Every twin stores the same objects: each tuple carries its own, as
	// one read back from another relation does.
	for k, rel := range twins {
		for _, c := range cities {
			id, err := rel.Insert(carrying(Tuple{S(c.name), S("ST"), I(c.pop), L("us-map", c.obj.ID)}, c.obj))
			if err != nil {
				t.Fatalf("twin %d: %v", k, err)
			}
			ids[k] = append(ids[k], id)
		}
		if err := rel.AttachPicture(pic, hilbertPack); err != nil {
			t.Fatalf("twin %d: %v", k, err)
		}
	}
	return twins, ids, pic
}

func clamp01k(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1000 {
		return 1000
	}
	return v
}

// oracleWindows is a deterministic mix of clustered and broad windows.
var oracleWindows = []geom.Rect{
	geom.R(100, 150, 220, 280),   // inside blob A
	geom.R(700, 600, 950, 850),   // inside blob B
	geom.R(0, 0, 1000, 1000),     // everything
	geom.R(480, 480, 520, 520),   // sparse center
	geom.R(-50, -50, 10, 10),     // nearly empty corner
	geom.R(300, 0, 600, 1000),    // vertical stripe
	geom.R(140, 190, 820, 720),   // spans both blobs
	geom.R(999, 999, 1000, 1000), // boundary sliver
}

// resolveNames materializes result ids into tuple names — the
// cross-twin comparison key: every twin's ids are heap addresses of its
// own layout, so the twins agree on the rows, not on the ids or their
// order.
func resolveNames(t *testing.T, rel *Relation, ids []storage.TupleID) []string {
	t.Helper()
	out := make([]string, len(ids))
	for i, id := range ids {
		tu, err := rel.Get(id)
		if err != nil {
			t.Fatalf("resolve %v: %v", id, err)
		}
		out[i] = tu[0].Str
	}
	return out
}

// sameRows reports whether a and b hold the same names, counted with
// multiplicity, in any order.
func sameRows(a, b []string) bool {
	a, b = slices.Clone(a), slices.Clone(b)
	slices.Sort(a)
	slices.Sort(b)
	return slices.Equal(a, b)
}

// ascending fails t unless ids are in strictly ascending order: the
// canonical order of every answer.
func ascending(t *testing.T, what string, ids []storage.TupleID) {
	t.Helper()
	if !slices.IsSortedFunc(ids, storage.TupleID.Compare) || len(slices.Compact(slices.Clone(ids))) != len(ids) {
		t.Fatalf("%s: ids not strictly ascending: %v", what, ids)
	}
}

// verifyShardOracle checks every window against the unsharded oracle:
// the same rows at every store count, each twin's ids in ascending
// order.
func verifyShardOracle(t *testing.T, twins map[int]*Relation, stage string) {
	t.Helper()
	for wi, w := range oracleWindows {
		oracleIDs, _, err := twins[0].SearchArea("us-map", w, geom.Overlapping)
		if err != nil {
			t.Fatalf("%s window %d: oracle: %v", stage, wi, err)
		}
		ascending(t, stage, oracleIDs)
		want := resolveNames(t, twins[0], oracleIDs)
		for _, k := range shardCounts {
			ids, _, err := twins[k].SearchArea("us-map", w, geom.Overlapping)
			if err != nil {
				t.Fatalf("%s window %d shards=%d: %v", stage, wi, k, err)
			}
			ascending(t, fmt.Sprintf("%s window %d shards=%d", stage, wi, k), ids)
			got := resolveNames(t, twins[k], ids)
			if !sameRows(got, want) {
				t.Fatalf("%s window %d shards=%d: rows diverge from unsharded\n got %v\nwant %v",
					stage, wi, k, got, want)
			}
		}
	}

	// The batched path must match the serial calls, id for id.
	for k, rel := range twins {
		batches, _, err := rel.SearchAreaBatch("us-map", oracleWindows, geom.Overlapping, 0)
		if err != nil {
			t.Fatalf("%s shards=%d: %v", stage, k, err)
		}
		for wi, w := range oracleWindows {
			ids, _, _ := rel.SearchArea("us-map", w, geom.Overlapping)
			if !idsEqual(batches[wi], ids) {
				t.Fatalf("%s shards=%d window %d: batch diverges from SearchArea", stage, k, wi)
			}
		}
	}

	// Full enumeration (the disjoined path) must align too.
	oracleItems, _, err := twins[0].SpatialItems("us-map")
	if err != nil {
		t.Fatalf("%s: oracle items: %v", stage, err)
	}
	for _, k := range shardCounts {
		items, _, err := twins[k].SpatialItems("us-map")
		if err != nil {
			t.Fatalf("%s shards=%d: items: %v", stage, k, err)
		}
		if len(items) != len(oracleItems) {
			t.Fatalf("%s shards=%d: %d items, unsharded %d", stage, k, len(items), len(oracleItems))
		}
		ids := make([]storage.TupleID, len(items))
		got, want := make([]string, len(items)), make([]string, len(items))
		for i := range items {
			ids[i] = storage.TupleIDFromInt64(items[i].Data)
			got[i], want[i] = fmt.Sprint(items[i].Rect), fmt.Sprint(oracleItems[i].Rect)
		}
		ascending(t, fmt.Sprintf("%s shards=%d: items", stage, k), ids)
		if !sameRows(got, want) {
			t.Fatalf("%s shards=%d: item rects diverge from unsharded", stage, k)
		}
	}
}

// TestShardedSearchOracle is the oracle matrix: identical content at
// store counts 1/2/4/8 vs the unsharded relation, checked fresh, after
// deletes, and after a repack.
func TestShardedSearchOracle(t *testing.T) {
	twins, ids, _ := shardTwins(t, 600, 42)
	verifyShardOracle(t, twins, "fresh")

	// Delete every 7th tuple — positionally, so every twin loses the
	// same logical rows.
	for k, rel := range twins {
		for i := 0; i < 600; i += 7 {
			if err := rel.Delete(ids[k][i]); err != nil {
				t.Fatalf("twin %d: delete %d: %v", k, i, err)
			}
		}
	}
	verifyShardOracle(t, twins, "deleted")

	// Repack every twin (per-shard repacks for the sharded ones) and
	// re-verify from the swapped roots.
	for k, rel := range twins {
		repack(rel, "us-map")
		if got := rel.Len(); got != 600-86 {
			t.Fatalf("twin %d: Len=%d after deletes", k, got)
		}
	}
	verifyShardOracle(t, twins, "repacked")
}

// verifyJuxtaposeOracle joins a's and b's twins at every shard count
// (key 0 is the unsharded pair) and requires the pair stream to resolve
// to the same logical pairs as the unsharded join, each in its own
// canonical ascending (A, B) order.
func verifyJuxtaposeOracle(t *testing.T, stage string, a, b map[int]*Relation) {
	t.Helper()
	split := func(pairs []SpatialPair) (as, bs []storage.TupleID) {
		for _, p := range pairs {
			as = append(as, p.A)
			bs = append(bs, p.B)
		}
		return as, bs
	}
	oracle, _, err := a[0].JuxtaposeSpatial("us-map", b[0], "us-map", geom.Overlapping, 0)
	if err != nil {
		t.Fatalf("%s: oracle: %v", stage, err)
	}
	if len(oracle) == 0 {
		t.Fatalf("%s: vacuous join", stage)
	}
	// names resolves the pairs to "a|b" and fails t unless they ascend.
	names := func(k int, pairs []SpatialPair) []string {
		if !slices.IsSortedFunc(pairs, func(x, y SpatialPair) int {
			return cmp.Or(x.A.Compare(y.A), x.B.Compare(y.B))
		}) {
			t.Fatalf("%s shards=%d: pairs not in ascending (A, B) order", stage, k)
		}
		as, bs := split(pairs)
		an, bn := resolveNames(t, a[k], as), resolveNames(t, b[k], bs)
		out := make([]string, len(pairs))
		for i := range out {
			out[i] = an[i] + "|" + bn[i]
		}
		return out
	}
	want := names(0, oracle)
	for _, k := range shardCounts {
		pairs, _, err := a[k].JuxtaposeSpatial("us-map", b[k], "us-map", geom.Overlapping, 0)
		if err != nil {
			t.Fatalf("%s shards=%d: %v", stage, k, err)
		}
		if len(pairs) != len(oracle) {
			t.Fatalf("%s shards=%d: %d pairs, unsharded %d", stage, k, len(pairs), len(oracle))
		}
		if !sameRows(names(k, pairs), want) {
			t.Fatalf("%s shards=%d: join pairs diverge from unsharded", stage, k)
		}
	}
}

// buildClusteredJoinRel makes a relation of small square regions drawn
// around Gaussian clusters (picture attached before inserts, so every
// tuple is routed by Hilbert key and sits in a delta tree): sharded, or
// with shards == 0 the unsharded reference holding the same tuples in
// the same order.
func buildClusteredJoinRel(t *testing.T, pic *picture.Picture, shards int, centers [][2]float64, seed int64, n int) *Relation {
	t.Helper()
	var rel *Relation
	if shards == 0 {
		p := pager.OpenMem(64)
		t.Cleanup(func() { p.Close() })
		var err error
		if rel, err = NewSharded(p, 1, "r", citySchema(), catalogOf(pic)); err != nil {
			t.Fatal(err)
		}
	} else {
		rel = newShardedCities(t, shards, pic)
	}
	if err := rel.AttachPicture(pic, hilbertPack); err != nil {
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

// TestShardedJuxtaposeOracle holds the sharded join to the unsharded
// one on two inputs. The blob twins are packed (attached after the
// load). The clustered pair shares two of five cluster sites and
// differs in the rest, so even Hilbert ranges give L-shaped shard
// regions whose bounds overlap through space neither side occupies —
// shard pairs the scatter admits and the traversal finds empty at the
// roots; it is checked with the write side warm and again after a
// repack.
func TestShardedJuxtaposeOracle(t *testing.T) {
	aTwins, _, _ := shardTwins(t, 180, 7)
	bTwins, _, _ := shardTwins(t, 130, 11)
	verifyJuxtaposeOracle(t, "blobs", aTwins, bTwins)

	pic := usMap()
	ca := [][2]float64{{120, 150}, {850, 200}, {480, 520}, {200, 840}, {880, 870}}
	cb := [][2]float64{{120, 150}, {850, 200}, {700, 650}, {350, 300}, {150, 500}}
	ac, bc := map[int]*Relation{}, map[int]*Relation{}
	for _, k := range append([]int{0}, shardCounts...) {
		ac[k] = buildClusteredJoinRel(t, pic, k, ca, 31, 300)
		bc[k] = buildClusteredJoinRel(t, pic, k, cb, 77, 300)
	}
	verifyJuxtaposeOracle(t, "clustered, warm write side", ac, bc)
	for k := range ac {
		for _, rel := range []*Relation{ac[k], bc[k]} {
			repack(rel, "us-map")
		}
	}
	verifyJuxtaposeOracle(t, "clustered, packed", ac, bc)
}

// TestScanColsMatchesScan: the column-lazy scan visits the tuples Scan
// visits, in the same order, with the needed columns materialized and
// the rest left at their zero payload; with terms, it visits exactly the
// tuples Scan followed by the same filter visits — unsharded and at
// every shard count. Either way returning false stops the scan, and a
// record whose inline object is corrupt fails it whether the terms
// would keep or reject it.
func TestScanColsMatchesScan(t *testing.T) {
	twins, _, _ := shardTwins(t, 200, 5)
	need := []bool{false, false, true, true} // population, loc
	for _, k := range append([]int{0}, shardCounts...) {
		rel := twins[k]
		var ids []storage.TupleID
		var full []Tuple
		if err := rel.Scan(func(id storage.TupleID, tu Tuple) bool {
			ids, full = append(ids, id), append(full, tu)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		pops := make([]int64, len(full))
		for i, tu := range full {
			pops[i] = tu[2].Int
		}
		slices.Sort(pops)
		median := pops[len(pops)/2]
		for _, filtered := range []bool{false, true} {
			var terms []Term
			if filtered {
				terms = []Term{{Col: 2, Op: OpLt, Val: I(median)}}
			}
			var wantIDs []storage.TupleID
			var want []Tuple
			for i, tu := range full {
				if !filtered || tu[2].Int < median {
					wantIDs, want = append(wantIDs, ids[i]), append(want, tu)
				}
			}
			stop := len(want) * 3 / 4
			i := 0
			err := rel.ScanCols(nil, need, terms, func(id storage.TupleID, tu Tuple) bool {
				if i >= len(want) || id != wantIDs[i] {
					t.Fatalf("shards=%d, filtered %v: ScanCols tuple %d is %v, Scan disagrees", k, filtered, i, id)
				}
				if tu[2] != want[i][2] || tu[3] != want[i][3] {
					t.Fatalf("shards=%d: needed columns of %v = %v, %v; Scan read %v, %v", k, id, tu[2], tu[3], want[i][2], want[i][3])
				}
				if tu[0].Str != "" || tu[1].Str != "" || tu[0].Type != TypeString {
					t.Fatalf("shards=%d: skipped columns of %v materialized: %v", k, id, tu)
				}
				i++
				return i < stop // returning false stops the scan
			})
			if err != nil || i != stop {
				t.Fatalf("shards=%d, filtered %v: ScanCols visited %d tuples, err %v; want to stop at %d", k, filtered, i, err, stop)
			}
		}

		// A stored record whose object's kind byte is damaged.
		obj, _ := full[0][3].LocObject()
		body := appendBody(nil, Tuple{S("bad"), S("ST"), I(2), full[0][3]}, true)
		body[bytes.Index(body, picture.EncodeObject(obj))+8] = 99
		if _, err := DecodeTuple(body); !errors.Is(err, storage.ErrCorrupt) {
			t.Fatalf("the damaged body decodes: %v", err)
		}
		plant(t, rel, len(rel.stores)-1, body)
		for _, pop := range []int64{2, 3} { // one keeps the damaged record, one rejects it
			err := rel.ScanCols(nil, need, []Term{{Col: 2, Op: OpEq, Val: I(pop)}}, func(storage.TupleID, Tuple) bool { return true })
			if !errors.Is(err, storage.ErrCorrupt) {
				t.Fatalf("shards=%d: a scan for population %d over a damaged object: %v", k, pop, err)
			}
		}
	}
}

// TestRejectingScanAllocatesNothing: a scan whose terms reject every
// one of 2 000 tuples decodes none of them — it cuts no Value from the
// statement's arena and allocates nothing, into an arena or into fresh
// memory — at one store and at four. Every record is still validated
// whole (TestScanColsMatchesScan).
func TestRejectingScanAllocatesNothing(t *testing.T) {
	pic := usMap()
	for _, stores := range []int{1, 4} {
		rel := newShardedCities(t, stores, pic)
		for i := range 2000 {
			addCity(t, rel, pic, fmt.Sprintf("c%04d", i), "ST", int64(i), float64(i%1000), float64(i/2))
		}
		need := []bool{true, false, false, true}
		none := []Term{{Col: 0, Op: OpGe, Val: S("c")}, {Col: 2, Op: OpLt, Val: I(0)}}
		const runs = 10
		arenas := make([]Arena, runs+1) // AllocsPerRun runs once more to warm up
		next := 0
		for _, a := range []func() *Arena{
			func() *Arena { return nil },
			func() *Arena { next++; return &arenas[next-1] }, // fresh: any cut allocates
		} {
			allocs := testing.AllocsPerRun(runs, func() {
				if err := rel.ScanCols(a(), need, none, func(storage.TupleID, Tuple) bool {
					t.Fatal("a tuple no term keeps was handed on")
					return false
				}); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("%d stores: a scan rejecting every tuple allocates %.1f times, want 0", stores, allocs)
			}
		}
		for i := range arenas {
			if got := arenas[i].Tuples(1); got[0] != nil {
				t.Fatal("a fresh arena cut a non-nil tuple")
			}
		}
	}
}

// plant stores body, unvalidated, as a record of store s: what a
// damaged page would hold.
func plant(t *testing.T, rel *Relation, s int, body []byte) {
	t.Helper()
	st := rel.stores[s]
	st.mu.Lock()
	_, err := st.heap.Insert(body)
	st.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
}

// TestShardedScanAndBatch verifies the non-spatial read paths: Scan
// order, Get/GetBatch resolution, Len, and B-tree lookups over ids that
// name their store.
func TestShardedScanAndBatch(t *testing.T) {
	twins, ids, _ := shardTwins(t, 200, 3)
	for _, k := range shardCounts {
		rel := twins[k]
		if rel.Len() != 200 {
			t.Fatalf("shards=%d: Len=%d", k, rel.Len())
		}
		// Scan must yield every id once, in ascending order.
		var scanned []storage.TupleID
		if err := rel.Scan(func(id storage.TupleID, _ Tuple) bool {
			scanned = append(scanned, id)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		ascending(t, fmt.Sprintf("shards=%d: scan", k), scanned)
		inserted := slices.Clone(ids[k])
		slices.SortFunc(inserted, storage.TupleID.Compare)
		if !idsEqual(scanned, inserted) {
			t.Fatalf("shards=%d: scan yields other ids than were inserted", k)
		}
		// GetBatch against Get.
		tuples, err := rel.GetBatch(ids[k], nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i, id := range ids[k] {
			want, err := rel.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			if tuples[i][0].Str != want[0].Str {
				t.Fatalf("shards=%d: batch[%d] = %q, Get %q", k, i, tuples[i][0].Str, want[0].Str)
			}
		}
	}
	// B-tree index over a sharded relation resolves through the store its
	// ids name.
	rel := twins[4]
	if err := rel.CreateIndex("city"); err != nil {
		t.Fatal(err)
	}
	want, err := rel.Get(ids[4][17])
	if err != nil {
		t.Fatal(err)
	}
	found := lookupKept(t, rel, Term{Col: 0, Op: OpEq, Val: want[0]})
	if len(found) != 1 || found[0] != ids[4][17] {
		t.Fatalf("Lookup(%q) = %v, want [%v]", want[0].Str, found, ids[4][17])
	}
}

// TestIDsNameTheirStore: at four stores, every id Insert, Scan,
// SearchArea and an equality term (through Lookup on a B-tree and
// through a scan) return carries the store whose heap holds its page,
// and the two paths return the same ids.
func TestIDsNameTheirStore(t *testing.T) {
	pic := usMap()
	rel := newShardedCities(t, 4, pic)
	if err := rel.AttachPicture(pic, hilbertPack); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(38))
	var inserted []storage.TupleID
	for i := 0; i < 300; i++ {
		inserted = append(inserted, addCity(t, rel, pic, fmt.Sprintf("c%03d", i), "ST", int64(i%7), rng.Float64()*1000, rng.Float64()*1000))
	}
	pages := make([][]pager.PageID, rel.ShardCount())
	for s := range pages {
		var err error
		if pages[s], err = rel.ShardHeapPages(s); err != nil {
			t.Fatal(err)
		}
	}
	stores := map[uint8]bool{}
	check := func(how string, ids []storage.TupleID) {
		t.Helper()
		if len(ids) == 0 {
			t.Fatalf("%s returned no ids", how)
		}
		for _, id := range ids {
			if int(id.Store) >= len(pages) || !slices.Contains(pages[id.Store], id.Page) {
				t.Fatalf("%s: id %v names store %d, whose heap does not hold page %d", how, id, id.Store, id.Page)
			}
			stores[id.Store] = true
		}
	}
	check("Insert", inserted)
	var scanned []storage.TupleID
	if err := rel.Scan(func(id storage.TupleID, _ Tuple) bool {
		scanned = append(scanned, id)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	check("Scan", scanned)
	found, _, err := rel.SearchArea("us-map", geom.R(0, 0, 1000, 1000), geom.CoveredBy)
	if err != nil {
		t.Fatal(err)
	}
	check("SearchArea", found)
	three := Term{Col: 2, Op: OpEq, Val: I(3)}
	byScan := scanKept(t, rel, three)
	check("equality by scan", byScan)
	if err := rel.CreateIndex("population"); err != nil {
		t.Fatal(err)
	}
	byIndex := lookupKept(t, rel, three)
	check("equality by index", byIndex)
	if !slices.Equal(byScan, byIndex) {
		t.Fatalf("by scan %v, by index %v", byScan, byIndex)
	}
	if len(stores) != 4 {
		t.Fatalf("the ids name %d stores, want all 4", len(stores))
	}
}

// TestIDPastStoreCountNotFound: an id naming a store the relation does
// not have resolves to no tuple in Get, FetchWhere and Delete.
func TestIDPastStoreCountNotFound(t *testing.T) {
	for _, stores := range []int{1, 4} {
		t.Run(fmt.Sprintf("stores=%d", stores), func(t *testing.T) {
			pic := usMap()
			rel := newShardedCities(t, stores, pic)
			id := addCity(t, rel, pic, "one", "ST", 1, 500, 500)
			for _, s := range []int{stores, MaxShards} {
				bad := id
				bad.Store = uint8(s)
				if _, err := rel.Get(bad); !errors.Is(err, storage.ErrNotFound) {
					t.Fatalf("Get(%v) = %v, want ErrNotFound", bad, err)
				}
				if _, err := rel.FetchWhere(nil, []storage.TupleID{id, bad}, nil, nil); !errors.Is(err, storage.ErrNotFound) {
					t.Fatalf("FetchWhere(%v) = %v, want ErrNotFound", bad, err)
				}
				if err := rel.Delete(bad); !errors.Is(err, storage.ErrNotFound) {
					t.Fatalf("Delete(%v) = %v, want ErrNotFound", bad, err)
				}
			}
			if tu, err := rel.Get(id); err != nil || tu[0].Str != "one" || rel.Len() != 1 {
				t.Fatalf("Get(%v) = %v, %v with Len %d; want the one tuple", id, tu, err, rel.Len())
			}
		})
	}
}

// TestFetchSkipsTupleDeletedSinceProbe: a window search's ids, one of
// them deleted before the fetch, are fetched whole but for that entry,
// which FetchWhere leaves nil.
func TestFetchSkipsTupleDeletedSinceProbe(t *testing.T) {
	for _, stores := range []int{1, 4} {
		t.Run(fmt.Sprintf("stores=%d", stores), func(t *testing.T) {
			pic := usMap()
			rel := newShardedCities(t, stores, pic)
			if err := rel.AttachPicture(pic, hilbertPack); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(stores)))
			for i := 0; i < 200; i++ {
				addCity(t, rel, pic, fmt.Sprintf("c%03d", i), "ST", int64(i), rng.Float64()*1000, rng.Float64()*1000)
			}
			ids, _, err := rel.SearchArea("us-map", geom.R(0, 0, 600, 600), geom.Overlapping)
			if err != nil {
				t.Fatal(err)
			}
			if len(ids) < 10 {
				t.Fatalf("the window holds %d ids", len(ids))
			}
			want, err := rel.FetchWhere(nil, ids, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			victim := len(ids) / 2
			if err := rel.Delete(ids[victim]); err != nil {
				t.Fatal(err)
			}
			got, err := rel.FetchWhere(nil, ids, nil, nil)
			if err != nil {
				t.Fatalf("FetchWhere after deleting %v: %v", ids[victim], err)
			}
			for i := range ids {
				switch {
				case i == victim && got[i] != nil:
					t.Fatalf("deleted %v fetched as %v", ids[i], got[i])
				case i != victim && (got[i] == nil || got[i][0].Str != want[i][0].Str):
					t.Fatalf("entry %d (%v) = %v, want %v", i, ids[i], got[i], want[i])
				}
			}
		})
	}
}

// shardDef is what a catalog records of rel, whose stores live in p.
func shardDef(rel *Relation, p *pager.Pager) Def {
	return Def{Name: rel.Name(), Schema: rel.Schema(), Pager: p, Heaps: rel.ShardHeapFirstPages()}
}

// TestShardedReopen drops the in-memory Relation and reattaches via
// Open over the same pager: the reload's scan must reproduce ids,
// order, and contents exactly, and move the picture's allocator above
// every object id the tuples carry.
func TestShardedReopen(t *testing.T) {
	p := pager.OpenMem(512)
	t.Cleanup(func() { p.Close() })
	pic := usMap()
	rel, err := NewSharded(p, 4, "cities", citySchema(), catalogOf(pic))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	var ids []storage.TupleID
	for i := 0; i < 150; i++ {
		ids = append(ids, addCity(t, rel, pic, fmt.Sprintf("c%03d", i), "ST", int64(i), rng.Float64()*1000, rng.Float64()*1000))
	}
	for i := 0; i < 150; i += 5 {
		if err := rel.Delete(ids[i]); err != nil {
			t.Fatal(err)
		}
	}
	// The objects stay in the tuples: reopen over an empty copy of the
	// picture, which then allocates above every id they carry.
	fresh := usMap()
	re, _, err := Open(shardDef(rel, p), catalogOf(fresh))
	if err != nil {
		t.Fatal(err)
	}
	var maxID picture.ObjectID
	if err := rel.Scan(func(_ storage.TupleID, tu Tuple) bool {
		maxID = max(maxID, tu[3].Loc.Object)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if id := fresh.AddPoint("next", geom.Pt(1, 1)); id <= maxID {
		t.Fatalf("after the reopen AddPoint returned %d, a stored tuple carries %d", id, maxID)
	}
	pic = fresh
	if re.Len() != rel.Len() {
		t.Fatalf("reopened Len=%d, want %d", re.Len(), rel.Len())
	}
	var before, after []string
	collect := func(r *Relation, out *[]string) {
		if err := r.Scan(func(id storage.TupleID, tu Tuple) bool {
			*out = append(*out, fmt.Sprintf("%v=%s", id, tu[0].Str))
			return true
		}); err != nil {
			t.Fatal(err)
		}
	}
	collect(rel, &before)
	collect(re, &after)
	if !slices.Equal(before, after) {
		t.Fatalf("reopened scan diverges:\nbefore %v\nafter  %v", before, after)
	}
	if err := re.AttachPicture(pic, hilbertPack); err != nil {
		t.Fatal(err)
	}
	if err := re.Check(); err != nil {
		t.Fatal(err)
	}
	// A new insert after reopen takes an address no live tuple holds,
	// and its id resolves it.
	nid := addCity(t, re, pic, "fresh", "ST", 1, 500, 500)
	for i, id := range ids {
		if id == nid && i%5 != 0 {
			t.Fatalf("reopened relation reissued the live id %v", nid)
		}
	}
	if tu, err := re.Get(nid); err != nil || tu[0].Str != "fresh" {
		t.Fatalf("Get(%v) after reopen = %v, %v", nid, tu, err)
	}
	if err := re.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedDuplicatePageDetected forges the one corruption ids that
// name their store cannot show: a heap page chained into two stores'
// heaps. Open and Check both find the page in the heaps' own page lists
// and refuse it.
func TestShardedDuplicatePageDetected(t *testing.T) {
	p := pager.OpenMem(64)
	t.Cleanup(func() { p.Close() })
	pic := usMap()
	rel, err := NewSharded(p, 2, "cities", citySchema(), catalogOf(pic))
	if err != nil {
		t.Fatal(err)
	}
	if err := rel.AttachPicture(pic, hilbertPack); err != nil {
		t.Fatal(err)
	}
	// Two cities in opposite halves: one in each store.
	addCity(t, rel, pic, "one", "ST", 1, 100, 100)
	addCity(t, rel, pic, "two", "ST", 2, 900, 100)
	if n0, n1 := rel.stores[0].heap.Len(), rel.stores[1].heap.Len(); n0 != 1 || n1 != 1 {
		t.Fatalf("stores hold %d and %d tuples, want one each", n0, n1)
	}
	if err := rel.Check(); err != nil {
		t.Fatal(err)
	}

	// Chain store 0's page behind store 1's: the page is now in both heaps.
	pg, err := p.Fetch(rel.stores[1].heap.FirstPage())
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(pg.Data[6:10], uint32(rel.stores[0].heap.FirstPage()))
	pg.MarkDirty()
	p.Unpin(pg)

	if err := rel.Check(); !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("Check of a page in two stores: %v, want ErrCorrupt", err)
	}
	if _, _, err := Open(shardDef(rel, p), catalogOf(usMap())); !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("Open of a page in two stores: %v, want ErrCorrupt", err)
	}
}

// TestOpenRefusesObjectIDZero: a stored loc that names a picture but
// carries object id 0 is corruption, since no picture hands out id 0,
// and Open refuses it.
func TestOpenRefusesObjectIDZero(t *testing.T) {
	p := pager.OpenMem(64)
	t.Cleanup(func() { p.Close() })
	pic := usMap()
	rel, err := NewSharded(p, 1, "cities", citySchema(), catalogOf(pic))
	if err != nil {
		t.Fatal(err)
	}
	addCity(t, rel, pic, "one", "ST", 1, 100, 100)
	if _, _, err := Open(shardDef(rel, p), catalogOf(usMap())); err != nil {
		t.Fatalf("Open before the forged record: %v", err)
	}
	zero := picture.Object{ID: 0, Kind: picture.KindPoint, Label: "zero", Point: geom.Pt(5, 5)}
	plant(t, rel, 0, appendBody(nil, carrying(Tuple{S("zero"), S("ST"), I(2), L(pic.Name(), 0)}, zero), true))
	_, _, err = Open(shardDef(rel, p), catalogOf(usMap()))
	if !errors.Is(err, storage.ErrCorrupt) || !strings.Contains(err.Error(), "object id 0") {
		t.Fatalf("Open of a tuple carrying object id 0: %v, want ErrCorrupt naming the id", err)
	}
}

// TestScatterFanoutPruning: a clustered window must scatter to fewer
// shards than the relation holds, while the full extent reaches every
// shard — the sub-linear fan-out the Hilbert routing buys. Asserted on
// what the real scatter did: SearchArea's visit count equals the
// per-shard visits summed over only the shards whose bounds meet the
// window, strictly below the all-shards sum (a skipped shard saves at
// least its root visit).
func TestScatterFanoutPruning(t *testing.T) {
	pic := usMap()
	rel := newShardedCities(t, 8, pic)
	// Attach before inserting so routing resolves locations through the
	// picture (Hilbert placement) instead of the hash fallback — tight
	// per-shard MBRs are what make pruning possible.
	if err := rel.AttachPicture(pic, hilbertPack); err != nil {
		t.Fatal(err)
	}
	// A dense uniform grid: every shard's key range is populated and
	// shard MBRs stay tight around their Hilbert runs.
	for gy := 0; gy < 40; gy++ {
		for gx := 0; gx < 40; gx++ {
			x, y := float64(gx)*25+12, float64(gy)*25+12
			addCity(t, rel, pic, fmt.Sprintf("g%02d-%02d", gx, gy), "ST", 1, x, y)
		}
	}
	rel.WaitRepacks()
	sis := rel.Spatials("us-map")
	if len(sis) != 8 {
		t.Fatalf("relation has %d shard indexes", len(sis))
	}
	total := 0
	for s, si := range sis {
		if si.Len() == 0 {
			t.Fatalf("shard %d empty under a uniform grid", s)
		}
		total += si.Len()
	}
	if total != 1600 {
		t.Fatalf("shard items sum to %d, want 1600", total)
	}

	// visits returns what the scatter reported for window beside the
	// per-shard visit sums over the admitted shards and over all shards.
	visits := func(window geom.Rect) (got, admitted, all, hit int) {
		t.Helper()
		_, got, err := rel.SearchArea("us-map", window, geom.Overlapping)
		if err != nil {
			t.Fatal(err)
		}
		for _, si := range sis {
			_, v := si.search([]geom.Rect{window}, geom.Overlapping, nil, nil)
			all += v
			if si.Bounds().Intersects(window) {
				admitted += v
				hit++
			}
		}
		return got, admitted, all, hit
	}
	got, admitted, all, hit := visits(geom.R(10, 10, 80, 80))
	if got != admitted {
		t.Fatalf("clustered window visited %d nodes, admitted shards sum to %d", got, admitted)
	}
	if got >= all {
		t.Fatalf("clustered window visited %d nodes, all-shards sum %d — no pruning", got, all)
	}
	if hit == 0 || hit >= len(sis) {
		t.Fatalf("clustered window admitted %d/%d shards", hit, len(sis))
	}
	got, admitted, all, hit = visits(geom.R(0, 0, 1000, 1000))
	if hit != len(sis) || got != admitted || got != all {
		t.Fatalf("full-extent window: %d/%d shards, visited %d, admitted %d, all %d", hit, len(sis), got, admitted, all)
	}
}

// TestShardedConcurrentWritersReaders is the -race stress, over a
// four-store relation and a one-store one:
// writers drive concurrent inserts (placed across stores) and deletes
// while readers run window queries (single and batched), scans, point
// and batched gets and B-tree range lookups, and a CreateIndex lands
// beside the first writer's inserts. Invariants: no torn reads (every
// scanned tuple validates), queries never error, and the final state
// checks clean.
func TestShardedConcurrentWritersReaders(t *testing.T) {
	t.Run("sharded4", func(t *testing.T) {
		pic := usMap()
		concurrentWritersReaders(t, newShardedCities(t, 4, pic), pic)
	})
	t.Run("unsharded", func(t *testing.T) {
		p := pager.OpenMem(512)
		t.Cleanup(func() { p.Close() })
		pic := usMap()
		rel, err := NewSharded(p, 1, "cities", citySchema(), catalogOf(pic))
		if err != nil {
			t.Fatal(err)
		}
		concurrentWritersReaders(t, rel, pic)
	})
}

func concurrentWritersReaders(t *testing.T, rel *Relation, pic *picture.Picture) {
	// Seed enough content that readers always see data, then attach so
	// spatial writes flow through the LSM write sides.
	var seeded []storage.TupleID
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		seeded = append(seeded, addCity(t, rel, pic, fmt.Sprintf("seed%03d", i), "ST", int64(i), rng.Float64()*1000, rng.Float64()*1000))
	}
	if err := rel.AttachPicture(pic, hilbertPack); err != nil {
		t.Fatal(err)
	}
	if err := rel.CreateIndex("population"); err != nil {
		t.Fatal(err)
	}

	const writers = 4
	const perWriter = 150
	const readers = 6
	// Picture mutation is not synchronized — pre-register every object
	// so the goroutines only exercise the relation's own locking.
	oids := make([][]picture.ObjectID, writers)
	for w := 0; w < writers; w++ {
		rng := rand.New(rand.NewSource(int64(100 + w)))
		for i := 0; i < perWriter; i++ {
			name := fmt.Sprintf("w%d-%03d", w, i)
			oids[w] = append(oids[w], pic.AddPoint(name, geom.Pt(rng.Float64()*1000, rng.Float64()*1000)))
		}
	}
	var wg sync.WaitGroup
	errCh := make(chan error, writers+readers+1)
	done := make(chan struct{})

	// An index covers what its scan saw, so the writers hold their
	// deletes until the build beside them has been attached: a tuple
	// deleted between its scan and its attach would leave it an entry
	// Check reports.
	indexed := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(indexed)
		if err := rel.CreateIndex("city"); err != nil {
			errCh <- fmt.Errorf("create index: %w", err)
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var doomed []storage.TupleID
			for i := 0; i < perWriter; i++ {
				name := fmt.Sprintf("w%d-%03d", w, i)
				id, err := rel.Insert(Tuple{S(name), S("ST"), I(int64(i)), L("us-map", oids[w][i])})
				if err != nil {
					errCh <- fmt.Errorf("writer %d: %w", w, err)
					return
				}
				if i%10 == 5 {
					doomed = append(doomed, id)
				}
				select {
				case <-indexed:
				default:
					continue
				}
				for _, id := range doomed {
					if err := rel.Delete(id); err != nil {
						errCh <- fmt.Errorf("writer %d: delete: %w", w, err)
						return
					}
				}
				doomed = doomed[:0]
			}
			<-indexed
			for _, id := range doomed {
				if err := rel.Delete(id); err != nil {
					errCh <- fmt.Errorf("writer %d: delete: %w", w, err)
					return
				}
			}
		}(w)
	}
	go func() { wg.Wait(); close(done) }()

	needCity := []bool{true, false, false, false}
	var rg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rg.Add(1)
		go func(r int) {
			defer rg.Done()
			rng := rand.New(rand.NewSource(int64(200 + r)))
			ascending := func(ids []storage.TupleID) bool {
				for i := 1; i < len(ids); i++ {
					if ids[i].Int64() <= ids[i-1].Int64() {
						return false
					}
				}
				return true
			}
			for {
				select {
				case <-done:
					return
				default:
				}
				switch r {
				case 0:
					w := geom.R(rng.Float64()*800, rng.Float64()*800, 1000, 1000)
					ids, _, err := rel.SearchArea("us-map", w, geom.Overlapping)
					if err != nil {
						errCh <- fmt.Errorf("reader %d: search: %w", r, err)
						return
					}
					if !ascending(ids) {
						errCh <- fmt.Errorf("reader %d: result ids not ascending", r)
						return
					}
				case 1:
					n := 0
					err := rel.Scan(func(_ storage.TupleID, tu Tuple) bool {
						if len(tu) != 4 {
							errCh <- fmt.Errorf("reader %d: torn tuple", r)
							return false
						}
						n++
						return n < 500
					})
					if err != nil {
						errCh <- fmt.Errorf("reader %d: scan: %w", r, err)
						return
					}
				case 2:
					if _, err := rel.GetBatch(seeded, nil, 0); err != nil {
						errCh <- fmt.Errorf("reader %d: batch: %w", r, err)
						return
					}
				case 3:
					ws := []geom.Rect{geom.R(0, 0, 300, 300), geom.R(rng.Float64()*800, rng.Float64()*800, 1000, 1000)}
					res, _, err := rel.SearchAreaBatch("us-map", ws, geom.Overlapping, 0)
					if err != nil {
						errCh <- fmt.Errorf("reader %d: batch search: %w", r, err)
						return
					}
					if !ascending(res[0]) || !ascending(res[1]) {
						errCh <- fmt.Errorf("reader %d: batch result ids not ascending", r)
						return
					}
				case 4:
					id := seeded[rng.Intn(len(seeded))]
					if tu, err := rel.Get(id); err != nil || !strings.HasPrefix(tu[0].Str, "seed") {
						errCh <- fmt.Errorf("reader %d: get %v: %v, %w", r, id, tu, err)
						return
					}
					// The cities that start with "seed".
					seed := []Term{{Col: 0, Op: OpGe, Val: S("seed")}, {Col: 0, Op: OpLt, Val: S("seee")}}
					seeds := 0
					err := rel.ScanCols(nil, needCity, seed, func(_ storage.TupleID, tu Tuple) bool {
						if strings.HasPrefix(tu[0].Str, "seed") {
							seeds++
						}
						return true
					})
					if err == nil && seeds != len(seeded) {
						err = fmt.Errorf("%d seeds kept, want %d", seeds, len(seeded))
					}
					if err != nil {
						errCh <- fmt.Errorf("reader %d: scan cols: %w", r, err)
						return
					}
				default:
					// The seeds, never deleted, hold populations 0..199;
					// writers add more in 0..149.
					ids, ok := rel.Lookup(Term{Col: 2, Op: OpGe, Val: I(150)})
					if !ok || len(ids) != 50 {
						errCh <- fmt.Errorf("reader %d: range lookup: %d ids, ok=%v", r, len(ids), ok)
						return
					}
					rel.Lookup(Term{Col: 0, Op: OpGe, Val: S("")})
					rel.IndexedColumns()
					rel.Pictures()
				}
			}
		}(r)
	}
	wg.Wait()
	rg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	rel.WaitRepacks()
	if err := rel.Check(); err != nil {
		t.Fatal(err)
	}
	wantLive := 200 + writers*perWriter - writers*(perWriter/10)
	if got := rel.Len(); got != wantLive {
		t.Fatalf("Len=%d after stress, want %d", got, wantLive)
	}
}

// TestShardedCostSnapshotPrunes: the planner's merged snapshot over a
// clustered window must be cheaper than the full merge — only
// overlapping shards contribute.
func TestShardedCostSnapshotPrunes(t *testing.T) {
	pic := usMap()
	rel := newShardedCities(t, 8, pic)
	if err := rel.AttachPicture(pic, hilbertPack); err != nil {
		t.Fatal(err)
	}
	for gy := 0; gy < 30; gy++ {
		for gx := 0; gx < 30; gx++ {
			addCity(t, rel, pic, fmt.Sprintf("g%d-%d", gx, gy), "ST", 1, float64(gx)*33+5, float64(gy)*33+5)
		}
	}
	// Pack the LSM deltas so per-shard Items reflects the packed trees.
	repack(rel, "us-map")
	all, ok := rel.SpatialCostSnapshot("us-map", nil)
	if !ok {
		t.Fatal("no snapshot")
	}
	if all.Stats.Items != 900 {
		t.Fatalf("full snapshot items = %d", all.Stats.Items)
	}
	clustered, ok := rel.SpatialCostSnapshot("us-map", []geom.Rect{geom.R(5, 5, 60, 60)})
	if !ok {
		t.Fatal("no clustered snapshot")
	}
	if clustered.Stats.Items >= all.Stats.Items {
		t.Fatalf("clustered snapshot items %d not pruned below %d", clustered.Stats.Items, all.Stats.Items)
	}
}

func TestEvenKeyRangesAndShardForKey(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8} {
		ranges := evenKeyRanges(n)
		if len(ranges) != n {
			t.Fatalf("n=%d: %d ranges", n, len(ranges))
		}
		if ranges[0].Lo != 0 || ranges[n-1].Hi != 1<<geom.HilbertKeyBits {
			t.Fatalf("n=%d: ranges do not span the key space: %v", n, ranges)
		}
		for s := 1; s < n; s++ {
			if ranges[s].Lo != ranges[s-1].Hi {
				t.Fatalf("n=%d: gap between shard %d and %d: %v", n, s-1, s, ranges)
			}
		}
		// Every key routes to the shard whose range holds it.
		for s, kr := range ranges {
			if got := shardForKey(n, kr.Lo); got != s {
				t.Fatalf("n=%d: key %d -> shard %d, want %d", n, kr.Lo, got, s)
			}
			if got := shardForKey(n, kr.Hi-1); got != s {
				t.Fatalf("n=%d: key %d -> shard %d, want %d", n, kr.Hi-1, got, s)
			}
		}
	}
	// An out-of-range key (degenerate extents can quantize past the
	// top) lands on the shard owning the top of the space.
	if got := shardForKey(3, 1<<geom.HilbertKeyBits); got != 2 {
		t.Fatalf("overflow key -> shard %d, want 2", got)
	}
}

func TestShardBalance(t *testing.T) {
	pic := usMap()
	rel := newShardedCities(t, 4, pic)
	// Attach first so routing uses Hilbert keys.
	if err := rel.AttachPicture(pic, hilbertPack); err != nil {
		t.Fatal(err)
	}
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
	for s, in := range infos {
		total += in.Items
		if kr := rel.ShardKeyRanges()[s]; in.Shard != s || in.KeyLo != kr.Lo || in.KeyHi != kr.Hi {
			t.Fatalf("balance entry %d = %+v, key range %v", s, in, kr)
		}
	}
	if total != 120 {
		t.Fatalf("balance counts %d tuples, want 120", total)
	}
	if imbalance < 3.0 {
		t.Fatalf("corner cluster imbalance %.2f, want >= 3 (all on one shard)", imbalance)
	}
	// Unsharded relations report nothing.
	u, _ := newCities(t)
	if infos, f := u.ShardBalance(); infos != nil || f != 0 {
		t.Fatal("unsharded ShardBalance not empty")
	}
}
