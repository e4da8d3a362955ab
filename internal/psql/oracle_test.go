package psql_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	pictdb "repro"
	"repro/internal/psql"
)

// TestRandomizedSpatialOracle cross-checks every spatial operator's
// PSQL execution path (R-tree direct search, then juxtaposition with a
// where-clause) against a brute-force scan over randomly generated
// databases. Any divergence between the
// index-accelerated answer and the scan answer is a bug somewhere in
// the R-tree, packing, executor, or geometry stack.
func TestRandomizedSpatialOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1985))
	ops := []string{"covered-by", "covering", "overlapping", "disjoined"}

	for trial := 0; trial < 8; trial++ {
		db := pictdb.New()
		pic, err := db.CreatePicture("m", pictdb.R(0, 0, 1000, 1000))
		if err != nil {
			t.Fatal(err)
		}
		rel, err := db.CreateRelation("objs", pictdb.MustSchema("n:int", "loc:loc"))
		if err != nil {
			t.Fatal(err)
		}

		// A random mix of points, segments, and small regions; remember
		// each object's MBR for the oracle.
		n := 50 + rng.Intn(250)
		mbrs := make(map[int64]pictdb.Rect, n)
		for i := 0; i < n; i++ {
			var oid pictdb.ObjectID
			switch rng.Intn(3) {
			case 0:
				p := pictdb.Pt(rng.Float64()*1000, rng.Float64()*1000)
				oid = pic.AddPoint("", p)
			case 1:
				a := pictdb.Pt(rng.Float64()*1000, rng.Float64()*1000)
				b := pictdb.Pt(a.X+rng.Float64()*60-30, a.Y+rng.Float64()*60-30)
				oid = pic.AddSegment("", pictdb.Seg(a, b))
			default:
				x, y := rng.Float64()*950, rng.Float64()*950
				oid = pic.AddRegion("", pictdb.Poly(
					pictdb.Pt(x, y), pictdb.Pt(x+rng.Float64()*50, y),
					pictdb.Pt(x+rng.Float64()*50, y+rng.Float64()*50)))
			}
			obj, _ := pic.Get(oid)
			if _, err := rel.Insert(pictdb.Tuple{pictdb.I(int64(i)), pictdb.L("m", oid)}); err != nil {
				t.Fatal(err)
			}
			mbrs[int64(i)] = obj.MBR()
		}
		if err := rel.AttachPicture(pic, pictdb.PackOptions{Method: pictdb.PackHilbert}); err != nil {
			t.Fatal(err)
		}

		for q := 0; q < 12; q++ {
			cx, cy := rng.Float64()*1000, rng.Float64()*1000
			dx, dy := rng.Float64()*200, rng.Float64()*200
			w := pictdb.WindowAt(cx, dx, cy, dy)
			op := ops[rng.Intn(len(ops))]

			query := fmt.Sprintf(`select n from objs on m at loc %s {%g±%g, %g±%g}`,
				op, cx, dx, cy, dy)
			res, err := db.Query(query)
			if err != nil {
				t.Fatalf("trial %d: %s: %v", trial, query, err)
			}
			got := map[int64]bool{}
			for _, r := range res.Rows {
				got[r[0].Int] = true
			}

			want := map[int64]bool{}
			for id, m := range mbrs {
				var hold bool
				switch op {
				case "covered-by":
					hold = w.Contains(m)
				case "covering":
					hold = m.Contains(w)
				case "overlapping":
					hold = m.Intersects(w)
				default:
					hold = !m.Intersects(w)
				}
				if hold {
					want[id] = true
				}
			}

			if len(got) != len(want) {
				t.Fatalf("trial %d %s window %v: got %d, oracle %d", trial, op, w, len(got), len(want))
			}
			for id := range want {
				if !got[id] {
					t.Fatalf("trial %d %s window %v: missing object %d (MBR %v)", trial, op, w, id, mbrs[id])
				}
			}
		}
		db.Close()
	}

	// Two relations: random points juxtaposed with random rectangles
	// under a random one-relation where-term. The data size alone
	// decides the join algorithm, and across the trials each must run.
	algorithms := map[string]int{}
	for trial := 0; trial < 6; trial++ {
		randomizedJoinTrial(t, rng, trial, ops, algorithms)
	}
	for _, alg := range []string{"batched direct search", "simultaneous R-tree traversal", "nested loop"} {
		if algorithms[alg] == 0 {
			t.Errorf("no restricted juxtaposition ran by %s (ran: %v)", alg, algorithms)
		}
	}
}

// ptsAndRects builds pts(n, loc) on pmap × rects(m, kind, loc) on rmap:
// np random points and nr random regions with a random kind below
// kinds, optionally with a B-tree on rects.kind. It returns the
// database with each object's MBR and each region's kind, by n and m.
func ptsAndRects(t *testing.T, rng *rand.Rand, np, nr, kinds int, indexKind bool) (db *pictdb.Database, pmbr, rmbr []pictdb.Rect, kind []int64) {
	t.Helper()
	db = pictdb.New()
	t.Cleanup(func() { db.Close() })
	pmap, err := db.CreatePicture("pmap", pictdb.R(0, 0, 1000, 1000))
	if err != nil {
		t.Fatal(err)
	}
	rmap, err := db.CreatePicture("rmap", pictdb.R(0, 0, 1000, 1000))
	if err != nil {
		t.Fatal(err)
	}
	pts, err := db.CreateRelation("pts", pictdb.MustSchema("n:int", "loc:loc"))
	if err != nil {
		t.Fatal(err)
	}
	rects, err := db.CreateRelation("rects", pictdb.MustSchema("m:int", "kind:int", "loc:loc"))
	if err != nil {
		t.Fatal(err)
	}
	pmbr = make([]pictdb.Rect, np)
	for i := range pmbr {
		oid := pmap.AddPoint("", pictdb.Pt(rng.Float64()*1000, rng.Float64()*1000))
		obj, _ := pmap.Get(oid)
		pmbr[i] = obj.MBR()
		if _, err := pts.Insert(pictdb.Tuple{pictdb.I(int64(i)), pictdb.L("pmap", oid)}); err != nil {
			t.Fatal(err)
		}
	}
	rmbr = make([]pictdb.Rect, nr)
	kind = make([]int64, nr)
	for i := range rmbr {
		x, y := rng.Float64()*900, rng.Float64()*900
		oid := rmap.AddRegion("", pictdb.Poly(
			pictdb.Pt(x, y), pictdb.Pt(x+20+rng.Float64()*80, y),
			pictdb.Pt(x+20+rng.Float64()*80, y+20+rng.Float64()*80)))
		obj, _ := rmap.Get(oid)
		rmbr[i], kind[i] = obj.MBR(), int64(rng.Intn(kinds))
		if _, err := rects.Insert(pictdb.Tuple{pictdb.I(int64(i)), pictdb.I(kind[i]), pictdb.L("rmap", oid)}); err != nil {
			t.Fatal(err)
		}
	}
	if indexKind {
		if err := rects.CreateIndex("kind"); err != nil {
			t.Fatal(err)
		}
	}
	if err := pts.AttachPicture(pmap, pictdb.PackOptions{Method: pictdb.PackHilbert}); err != nil {
		t.Fatal(err)
	}
	if err := rects.AttachPicture(rmap, pictdb.PackOptions{Method: pictdb.PackHilbert}); err != nil {
		t.Fatal(err)
	}
	return db, pmbr, rmbr, kind
}

// randomizedJoinTrial checks restricted juxtapositions of ptsAndRects —
// small on even trials, large on odd ones — under every operator and
// both at-clause orders against a brute-force pair enumeration and the
// naive executor. algorithms counts, per join algorithm, the statements
// whose plan restricted a side first.
func randomizedJoinTrial(t *testing.T, rng *rand.Rand, trial int, ops []string, algorithms map[string]int) {
	np, nr, kinds := 40+rng.Intn(40), 4+rng.Intn(6), 3
	if trial%2 == 1 {
		np, nr, kinds = 500+rng.Intn(200), 50+rng.Intn(30), 12
	}
	// With a B-tree on the restricted column the survivors come from
	// Relation.Lookup instead of a heap scan.
	db, pmbr, rmbr, kind := ptsAndRects(t, rng, np, nr, kinds, trial%3 == 0)

	holds := func(op string, a, b pictdb.Rect) bool {
		switch op {
		case "covered-by":
			return b.Contains(a)
		case "covering":
			return a.Contains(b)
		case "overlapping":
			return a.Intersects(b)
		default:
			return !a.Intersects(b)
		}
	}
	for q := 0; q < 10; q++ {
		op := ops[q%len(ops)]
		k := int64(rng.Intn(kinds))
		cmp, keep := "=", func(v int64) bool { return v == k }
		if rng.Intn(3) == 0 {
			cmp, keep = "<=", func(v int64) bool { return v <= k }
		}
		// Either relation may stand on the at-clause's left.
		at := fmt.Sprintf("pts.loc %s rects.loc", op)
		ptsLeft := rng.Intn(2) == 0
		if !ptsLeft {
			at = fmt.Sprintf("rects.loc %s pts.loc", op)
		}
		query := fmt.Sprintf(`select n, m from pts, rects on pmap, rmap at %s where rects.kind %s %d`, at, cmp, k)
		res, err := db.Query(query)
		if err != nil {
			t.Fatalf("trial %d: %s: %v", trial, query, err)
		}
		var want [][2]int64
		for i := range pmbr {
			for j := range rmbr {
				a, b := pmbr[i], rmbr[j]
				if !ptsLeft {
					a, b = b, a
				}
				if keep(kind[j]) && holds(op, a, b) {
					want = append(want, [2]int64{int64(i), int64(j)})
				}
			}
		}
		if len(res.Rows) != len(want) {
			t.Fatalf("trial %d: %s: got %d pairs, oracle %d\nplan: %v", trial, query, len(res.Rows), len(want), res.Plan)
		}
		// Both relations were loaded in id order, so canonical row order
		// is the enumeration order.
		for i, r := range res.Rows {
			if r[0].Int != want[i][0] || r[1].Int != want[i][1] {
				t.Fatalf("trial %d: %s: row %d = (%d, %d), oracle %v", trial, query, i, r[0].Int, r[1].Int, want[i])
			}
		}
		naive, err := db.QueryNaive(query)
		if err != nil {
			t.Fatalf("trial %d naive: %s: %v", trial, query, err)
		}
		sameRows(t, query, res, naive)
		plan := strings.Join(res.Plan.Lines(), " | ")
		if strings.Contains(plan, "juxtaposition restriction:") {
			for _, alg := range []string{"batched direct search", "simultaneous R-tree traversal", "nested loop"} {
				if strings.Contains(plan, "juxtaposition: "+alg) {
					algorithms[alg]++
				}
			}
		}
	}
}

// evaluationOrderCorpus holds window statements whose outcome depends
// on the order the planned executor evaluates things in: where-terms
// tested on the fetched tuple before it becomes a row, the rest in
// planner order afterwards, one sorted and de-duplicated candidate list
// however many windows produced it. Each runs against
// evaluationOrderDB and must leave what the naive executor leaves — the
// same rows in the same order, the same Locs, or the same error.
var evaluationOrderCorpus = []string{
	// (a) A head run of bound terms, then a term that errors on the rows
	// the run keeps: the error must surface.
	`select n from pts on m at loc covered-by {500±400, 500±400} where n > 100 and v / (n - n) > 1`,
	`select n from pts on m at loc covered-by {500±400, 500±400} where n > 100 and v < 90 and name < 5`,
	// (b) The same with the run rejecting every row: no error may.
	`select n from pts on m at loc covered-by {500±400, 500±400} where n > 100000 and v / (n - n) > 1`,
	`select n from pts on m at loc covered-by {500±400, 500±400} where n > 100 and v < 0 and name < 5`,
	// (c) A bound term behind a term that errors stays behind it (an
	// equality outranks a range, bindable or not): both error, whatever
	// the bound term would have rejected.
	`select n from pts on m at loc covered-by {500±400, 500±400} where name = 5 and n > 100`,
	`select n from pts on m at loc covered-by {500±400, 500±400} where name = 5 and n > 100000`,
	// ... and errors nowhere when the window holds no candidate.
	`select n from pts on m at loc covered-by {5000±1, 5000±1} where name = 5 and n > 100`,
	// (d) or, arithmetic and functions over loc, beside a bound term.
	`select n, v from pts on m at loc covered-by {500±300, 500±300} where n < 50 or v * 2 > 150`,
	`select n, n + v from pts on m at loc overlapping {300±300, 700±200} where n + v > 200 and v >= 10`,
	`select n, northest(loc) from pts on m at loc covered-by {500±400, 500±400} where northest(loc) > 500 and n > 10`,
	`select n, height(loc) from pts on m at loc covered-by {500±400, 500±400} where height(loc) < 300 and v <= 50`,
	`select name from pts on m at loc covered-by {500±400, 500±400} where name >= 'p0200' and v = 7`,
	// (e) select *, order by a column not selected, limit.
	`select * from pts on m at loc covered-by {400±250, 400±250} where v > 40`,
	`select name from pts on m at loc covered-by {500±400, 500±400} where n > 20 order by v desc, n limit 15`,
	`select n, loc from pts on m at loc covered-by {500±400, 500±400} where v < 30 limit 5`,
	`select count(*), max(v) from pts on m at loc covered-by {500±400, 500±400} where v < 30`,
	// A nested mapping whose windows overlap: a point inside several of
	// them is one candidate.
	`select n, loc from pts on m at loc covered-by
	   (select zones.loc from zones on zm at zones.loc overlapping {500±300, 500±300})
	 where v > 20`,
	`select n from pts on m at loc disjoined
	   (select zones.loc from zones on zm at zones.loc overlapping {500±300, 500±300})
	 where v > 20`,
}

// evaluationOrderDB builds pts(n, name, v, loc) on m — 600 scattered
// points, in one store or four — beside zones(z, loc) on zm, a dozen
// rectangles that overlap one another, and registers height(loc).
func evaluationOrderDB(t *testing.T, stores int) *pictdb.Database {
	t.Helper()
	rng := rand.New(rand.NewSource(22))
	db := pictdb.New()
	t.Cleanup(func() { db.Close() })
	m, err := db.CreatePicture("m", pictdb.R(0, 0, 1000, 1000))
	if err != nil {
		t.Fatal(err)
	}
	zm, err := db.CreatePicture("zm", pictdb.R(0, 0, 1000, 1000))
	if err != nil {
		t.Fatal(err)
	}
	schema := pictdb.MustSchema("n:int", "name:string", "v:int", "loc:loc")
	var pts *pictdb.Relation
	if stores == 1 {
		pts, err = db.CreateRelation("pts", schema)
	} else {
		pts, err = db.CreateShardedRelation("pts", schema, stores)
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := pts.AttachPicture(m, pictdb.PackOptions{Method: pictdb.PackHilbert}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 600; i++ {
		oid := m.AddPoint("", pictdb.Pt(rng.Float64()*1000, rng.Float64()*1000))
		tup := pictdb.Tuple{pictdb.I(int64(i)), pictdb.S(fmt.Sprintf("p%04d", i)), pictdb.I(int64(rng.Intn(100))), pictdb.L("m", oid)}
		if _, err := pts.Insert(tup); err != nil {
			t.Fatal(err)
		}
	}
	// Half the points packed, half in the write side.
	for _, si := range pts.Spatials("m") {
		si.RepackNow(false)
	}
	for i := 600; i < 900; i++ {
		oid := m.AddPoint("", pictdb.Pt(rng.Float64()*1000, rng.Float64()*1000))
		tup := pictdb.Tuple{pictdb.I(int64(i)), pictdb.S(fmt.Sprintf("p%04d", i)), pictdb.I(int64(rng.Intn(100))), pictdb.L("m", oid)}
		if _, err := pts.Insert(tup); err != nil {
			t.Fatal(err)
		}
	}
	zones, err := db.CreateRelation("zones", pictdb.MustSchema("z:int", "loc:loc"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		x, y := 150+rng.Float64()*500, 150+rng.Float64()*500
		oid := zm.AddRegion("", pictdb.Poly(pictdb.Pt(x, y), pictdb.Pt(x+250, y), pictdb.Pt(x+250, y+250), pictdb.Pt(x, y+250)))
		if _, err := zones.Insert(pictdb.Tuple{pictdb.I(int64(i)), pictdb.L("zm", oid)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := zones.AttachPicture(zm, pictdb.PackOptions{Method: pictdb.PackHilbert}); err != nil {
		t.Fatal(err)
	}
	db.RegisterFunc("height", func(c *psql.FuncContext) (psql.Datum, error) {
		return psql.Datum{Kind: psql.KindFloat, Float: c.Args[0].Rect.Min.Y}, nil
	})
	return db
}

// TestEvaluationOrderOracle runs evaluationOrderCorpus — each statement
// twice, the second from its cached bound statement — against the naive
// executor, with pts in one store and in four.
func TestEvaluationOrderOracle(t *testing.T) {
	for _, stores := range []int{1, 4} {
		db := evaluationOrderDB(t, stores)
		errored := 0
		for _, q := range evaluationOrderCorpus {
			label := fmt.Sprintf("stores=%d %s", stores, q)
			naive, nerr := db.QueryNaive(q)
			for run := 0; run < 2; run++ {
				planned, perr := db.Query(q)
				if (perr == nil) != (nerr == nil) || (perr != nil && perr.Error() != nerr.Error()) {
					t.Fatalf("%s (run %d):\nplanned error %v\n  naive error %v", label, run, perr, nerr)
				}
				if perr == nil {
					sameRows(t, label, planned, naive)
				}
			}
			if nerr != nil {
				errored++
			} else if len(naive.Rows) == 0 && !strings.Contains(q, "100000") && !strings.Contains(q, "v < 0") && !strings.Contains(q, "5000±1") {
				t.Errorf("%s: no rows: the statement tests nothing", label)
			}
		}
		if errored != 4 {
			t.Errorf("stores=%d: %d statements errored, the corpus has 4 that must", stores, errored)
		}
	}
}
