package pictdb_test

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	pictdb "repro"
	"repro/internal/storage"
)

// FuzzQueryMatchesNaive derives one PSQL statement from its input and
// requires the planned executor to return what the naive full-scan
// executor returns, row for row, or both to fail. The database is built
// once per process: the same ~300 points and segments in a one-store
// relation (pts) and a three-store one (spts), a B-tree on pop, and 40
// regions on a second picture, with a warm write side — background
// repacks off, inserts left in the delta trees and deletes left as
// tombstones — so every statement reads packed, delta and tombstoned
// entries together.
func FuzzQueryMatchesNaive(f *testing.F) {
	db := fuzzQueryDB(f)
	// One input per statement shape: a direct search under each
	// operator, with one window and under a nested mapping, with and
	// without a where-term, an order by or a limit, and a juxtaposition
	// with either side first and a where-term on either relation; then
	// one per object read in the select list — a loc, its area, length
	// and perimeter, and all four — over the points and segments, and
	// over the regions a juxtaposition pairs them with.
	// Covering returns no points, so those inputs return no rows.
	for _, seed := range [][]byte{
		{0, 0, 0, 100, 60, 120, 50, 0, 0},
		{0, 1, 1, 30, 0, 200, 0, 1, 40, 1},
		{0, 0, 2, 128, 90, 128, 90, 2, 3, 2},
		{0, 1, 3, 200, 40, 40, 30, 3, 3, 5},
		{1, 0, 0, 120, 80, 100, 90, 0, 0},
		{1, 1, 2, 60, 40, 180, 60, 1, 20, 2},
		{1, 0, 1, 10, 200, 10, 200, 2, 0, 1},
		{1, 1, 3, 100, 100, 100, 100, 3, 3, 9},
		{2, 0, 0, 0, 0, 0},
		{2, 1, 1, 1, 0, 1},
		{2, 0, 0, 2, 2, 3, 2},
		{2, 1, 1, 1, 1, 90, 3, 5},
		{2, 0, 0, 3, 1, 200, 0},
		{0, 0, 2, 100, 60, 120, 60, 0, 0, 1},
		{0, 1, 2, 100, 60, 120, 60, 3, 1, 2},
		{0, 0, 2, 100, 60, 120, 60, 2, 2, 2, 3},
		{2, 0, 0, 2, 0, 0, 3},
		{1, 1, 2, 60, 40, 180, 60, 0, 0, 4},
		{1, 0, 2, 128, 90, 128, 90, 1, 20, 2, 5},
		{2, 0, 0, 2, 0, 0, 7},
		{2, 1, 1, 2, 0, 1, 8},
		{2, 0, 0, 2, 2, 3, 1, 9},
		{2, 1, 1, 2, 0, 0, 10},
		{2, 0, 0, 2, 1, 90, 2, 11},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		q := fuzzStatement(in)
		got, err := db.Query(q)
		want, naiveErr := db.QueryNaive(q)
		switch {
		case err != nil && naiveErr != nil:
			return
		case err != nil:
			t.Fatalf("%s\nplanned: %v; naive returned %d rows", q, err, want.Len())
		case naiveErr != nil:
			t.Fatalf("%s\nnaive: %v; planned returned %d rows", q, naiveErr, got.Len())
		}
		assertSameResult(t, q, got, want)
	})
}

// fuzzStatement renders the statement in's bytes choose. Its first byte
// picks the shape — direct search with one window, direct search under
// a nested mapping, juxtaposition — and the rest the relation, the
// operator (and a juxtaposition's side order), the windows, a
// where-term, an order by or a limit, and last what the select list
// reads of the objects: a loc, area, length or perimeter of one, or all
// four. A short input reads as zeros.
func fuzzStatement(in []byte) string {
	next := func() int {
		if len(in) == 0 {
			return 0
		}
		b := in[0]
		in = in[1:]
		return int(b)
	}
	ops := []string{"covered-by", "covering", "overlapping", "disjoined"}
	window := func() string {
		cx, dx, cy, dy := next()*4, next()*2, next()*4, next()*2
		return fmt.Sprintf("{%d±%d, %d±%d}", cx, dx, cy, dy)
	}
	// cols is the select list, b the rest of the statement, and located
	// the bindings whose objects the select list may read.
	var cols string
	var located []string
	var b strings.Builder
	rel := []string{"pts", "spts"}
	switch shape := next() % 3; shape {
	case 0, 1:
		r := rel[next()%2]
		cols, located = "select name, pop, kind", []string{r}
		fmt.Fprintf(&b, " from %s on pmap at %s.loc %s ", r, r, ops[next()%4])
		if shape == 0 {
			b.WriteString(window())
		} else {
			fmt.Fprintf(&b, "(select regions.loc from regions on rmap at regions.loc overlapping %s)", window())
		}
		switch next() % 4 {
		case 1:
			fmt.Fprintf(&b, " where pop > %d", next()*4000)
		case 2:
			fmt.Fprintf(&b, " where kind = 'seg' or pop < %d", next()*4000)
		case 3:
			b.WriteString(" where kind = 'pt'")
		}
	default:
		r := rel[next()%2]
		cols, located = "select name, zone", []string{r, "regions"}
		left, right := r+".loc", "regions.loc"
		if next()%2 == 1 {
			left, right = right, left
		}
		fmt.Fprintf(&b, " from %s, regions on pmap, rmap at %s %s %s", r, left, ops[next()%4], right)
		switch next() % 3 {
		case 1:
			fmt.Fprintf(&b, " where pop > %d", next()*4000)
		case 2:
			fmt.Fprintf(&b, " where hour < %d", next()%12)
		}
	}
	switch next() % 4 {
	case 1:
		b.WriteString(" order by name")
	case 2:
		b.WriteString(" order by pop desc")
	case 3:
		fmt.Fprintf(&b, " limit %d", next()%20)
	}
	// The object reads are chosen last, so that an input ending before
	// them reads as a statement that reads none.
	reads := []string{"", "%[1]s.loc", "area(%[1]s.loc)", "length(%[1]s.loc)", "perimeter(%[1]s.loc)",
		"%[1]s.loc, area(%[1]s.loc), length(%[1]s.loc), perimeter(%[1]s.loc)"}
	if x := next(); x%len(reads) > 0 {
		cols += ", " + fmt.Sprintf(reads[x%len(reads)], located[x/len(reads)%len(located)])
	}
	return cols + b.String()
}

// fuzzQueryDB builds FuzzQueryMatchesNaive's database and closes it when
// the fuzz target ends.
func fuzzQueryDB(f *testing.F) *pictdb.Database {
	f.Helper()
	db := pictdb.New()
	f.Cleanup(func() { db.Close() })
	must := func(err error) {
		f.Helper()
		if err != nil {
			f.Fatal(err)
		}
	}
	pmap, err := db.CreatePicture("pmap", pictdb.R(0, 0, 1000, 1000))
	must(err)
	rmap, err := db.CreatePicture("rmap", pictdb.R(0, 0, 1000, 1000))
	must(err)
	schema := pictdb.MustSchema("name:string", "pop:int", "kind:string", "loc:loc")
	one, err := db.CreateRelation("pts", schema)
	must(err)
	three, err := db.CreateShardedRelation("spts", schema, 3)
	must(err)
	regions, err := db.CreateRelation("regions", pictdb.MustSchema("zone:string", "hour:int", "loc:loc"))
	must(err)

	rng := rand.New(rand.NewSource(42))
	// addRow adds the i-th point or segment to pmap and inserts it into
	// both relations, returning its ids there.
	addRow := func(i int) [2]storage.TupleID {
		name := fmt.Sprintf("o%03d", i)
		p := pictdb.Pt(rng.Float64()*1000, rng.Float64()*1000)
		kind, oid := "pt", pmap.AddPoint(name, p)
		if i%5 == 4 {
			q := pictdb.Pt(p.X+rng.Float64()*60-30, p.Y+rng.Float64()*60-30)
			kind, oid = "seg", pmap.AddSegment(name, pictdb.Seg(p, q))
		}
		tu := pictdb.Tuple{pictdb.S(name), pictdb.I(rng.Int63n(1_000_000)), pictdb.S(kind), pictdb.L("pmap", oid)}
		var ids [2]storage.TupleID
		for k, r := range []*pictdb.Relation{one, three} {
			id, err := r.Insert(tu)
			must(err)
			ids[k] = id
			// The first insert stored the staged object; the second
			// stores the object the tuple read back carries.
			tu, err = r.Get(id)
			must(err)
		}
		return ids
	}
	addRegion := func(i int) storage.TupleID {
		name := fmt.Sprintf("z%02d", i)
		x, y := rng.Float64()*900, rng.Float64()*900
		w, h := 20+rng.Float64()*180, 20+rng.Float64()*180
		oid := rmap.AddRegion(name, pictdb.Poly(pictdb.Pt(x, y), pictdb.Pt(x+w, y), pictdb.Pt(x+w, y+h), pictdb.Pt(x, y+h)))
		id, err := regions.Insert(pictdb.Tuple{pictdb.S(name), pictdb.I(int64(i % 12)), pictdb.L("rmap", oid)})
		must(err)
		return id
	}
	var ids [][2]storage.TupleID
	for i := range 260 {
		ids = append(ids, addRow(i))
	}
	var zones []storage.TupleID
	for i := range 34 {
		zones = append(zones, addRegion(i))
	}
	for _, r := range []*pictdb.Relation{one, three} {
		must(r.CreateIndex("pop"))
	}
	attached := []struct {
		rel *pictdb.Relation
		pic *pictdb.Picture
	}{{one, pmap}, {three, pmap}, {regions, rmap}}
	for _, a := range attached {
		must(a.rel.AttachPicture(a.pic, pictdb.PackOptions{Method: pictdb.PackHilbert}))
		for _, si := range a.rel.Spatials(a.pic.Name()) {
			si.SetDeltaThreshold(math.MaxInt)
		}
	}

	// The warm write side: rows inserted after the pack stay in the
	// delta trees, and packed rows deleted stay as tombstones.
	for i := 260; i < 300; i++ {
		ids = append(ids, addRow(i))
	}
	for i := 34; i < 40; i++ {
		zones = append(zones, addRegion(i))
	}
	for i := 3; i < len(ids); i += 9 {
		must(one.Delete(ids[i][0]))
		must(three.Delete(ids[i][1]))
	}
	for i := 2; i < len(zones); i += 7 {
		must(regions.Delete(zones[i]))
	}
	for _, a := range attached {
		delta, tombs := 0, 0
		for _, si := range a.rel.Spatials(a.pic.Name()) {
			delta += si.DeltaLen()
			tombs += si.TombstoneCount()
		}
		if delta == 0 || tombs == 0 {
			f.Fatalf("%s's write side is cold: %d delta entries, %d tombstones", a.pic.Name(), delta, tombs)
		}
	}
	return db
}
