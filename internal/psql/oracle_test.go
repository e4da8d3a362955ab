package psql_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	pictdb "repro"
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
	methods := []pictdb.PackMethod{pictdb.PackNN, pictdb.PackLowX, pictdb.PackSTR, pictdb.PackHilbert}

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
		if err := rel.AttachPicture(pic, pictdb.PackOptions{Method: methods[trial%len(methods)]}); err != nil {
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
	if err := rects.AttachPicture(rmap, pictdb.PackOptions{}); err != nil {
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
	// LookupRange instead of a heap scan.
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
		plan := strings.Join(res.Plan, " | ")
		if strings.Contains(plan, "juxtaposition restriction:") {
			for _, alg := range []string{"batched direct search", "simultaneous R-tree traversal", "nested loop"} {
				if strings.Contains(plan, "juxtaposition: "+alg) {
					algorithms[alg]++
				}
			}
		}
	}
}
