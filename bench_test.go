package pictdb_test

// The benchmark harness: one benchmark per table and figure of the
// paper, plus the ablations DESIGN.md calls out. Run with
//
//	go test -bench=. -benchmem
//
// Benchmarks report, beyond time and allocations, the paper's own
// metrics as custom units: nodes/query (the paper's A), coverage and
// overlap, so `go test -bench` regenerates the evaluation numbers.

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	pictdb "repro"
	"repro/internal/experiments"
	"repro/internal/geom"
	"repro/internal/pack"
	"repro/internal/rtree"
	"repro/internal/workload"
)

// --- Table 1 ---------------------------------------------------------

// BenchmarkTable1Insert measures Guttman INSERT builds at each paper J
// and reports the paper's structural metrics.
func BenchmarkTable1Insert(b *testing.B) {
	for _, j := range experiments.PaperJs() {
		b.Run(fmt.Sprintf("J=%d", j), func(b *testing.B) {
			b.ReportAllocs()
			items := workload.PointItems(workload.UniformPoints(j, int64(j)))
			params := rtree.Params{Max: 4, Min: 2, Split: rtree.SplitLinear}
			var t *rtree.Tree
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t = rtree.New(params)
				for _, it := range items {
					t.InsertItem(it)
				}
			}
			b.StopTimer()
			reportTreeMetrics(b, t)
		})
	}
}

// BenchmarkTable1Pack measures PACK builds at each paper J.
func BenchmarkTable1Pack(b *testing.B) {
	for _, j := range experiments.PaperJs() {
		b.Run(fmt.Sprintf("J=%d", j), func(b *testing.B) {
			b.ReportAllocs()
			items := workload.PointItems(workload.UniformPoints(j, int64(j)))
			params := rtree.Params{Max: 4, Min: 2}
			var t *rtree.Tree
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t = pack.Tree(params, items, pack.Options{Method: pack.MethodNN})
			}
			b.StopTimer()
			reportTreeMetrics(b, t)
		})
	}
}

// BenchmarkTable1QueryInsert and ...QueryPack measure the paper's A
// column as nodes/query over random point-containment probes.
func BenchmarkTable1QueryInsert(b *testing.B) {
	benchTable1Query(b, func(items []rtree.Item) *rtree.Tree {
		t := rtree.New(rtree.Params{Max: 4, Min: 2, Split: rtree.SplitLinear})
		for _, it := range items {
			t.InsertItem(it)
		}
		return t
	})
}

func BenchmarkTable1QueryPack(b *testing.B) {
	benchTable1Query(b, func(items []rtree.Item) *rtree.Tree {
		return pack.Tree(rtree.Params{Max: 4, Min: 2}, items, pack.Options{Method: pack.MethodNN})
	})
}

func benchTable1Query(b *testing.B, build func([]rtree.Item) *rtree.Tree) {
	for _, j := range []int{100, 300, 900} {
		b.Run(fmt.Sprintf("J=%d", j), func(b *testing.B) {
			b.ReportAllocs()
			t := build(workload.PointItems(workload.UniformPoints(j, int64(j))))
			queries := workload.QueryPoints(1024, int64(j)+7919)
			visited := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, v := t.ContainsPoint(queries[i%len(queries)])
				visited += v
			}
			b.ReportMetric(float64(visited)/float64(b.N), "nodes/query")
		})
	}
}

func reportTreeMetrics(b *testing.B, t *rtree.Tree) {
	b.Helper()
	m := t.ComputeMetrics()
	b.ReportMetric(m.Coverage, "coverage")
	b.ReportMetric(m.Overlap, "overlap")
	b.ReportMetric(float64(m.Nodes), "nodes")
	b.ReportMetric(float64(m.Depth), "depth")
}

// --- Figures ---------------------------------------------------------

// BenchmarkFigure33Pruning measures the center-window query on the
// sliver-leaf pathology versus the packed tree (Figure 3.3's pruning
// failure), reporting nodes visited per query for each.
func BenchmarkFigure33Pruning(b *testing.B) {
	rep := experiments.Figure33()
	if !rep.Holds {
		b.Fatalf("figure 3.3 does not hold: %s", rep)
	}
	b.Run("report", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = experiments.Figure33()
		}
	})
}

// BenchmarkFigure34DeadSpace regenerates the 8-point dead-space demo.
func BenchmarkFigure34DeadSpace(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep := experiments.Figure34()
		if !rep.Holds {
			b.Fatalf("figure 3.4 does not hold: %s", rep)
		}
	}
}

// BenchmarkFigure37Coverage regenerates the coverage-vs-overlap demo.
func BenchmarkFigure37Coverage(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep := experiments.Figure37()
		if !rep.Holds {
			b.Fatalf("figure 3.7 does not hold: %s", rep)
		}
	}
}

// BenchmarkFigure38PackCities packs the US cities (Figure 3.8) per
// iteration.
func BenchmarkFigure38PackCities(b *testing.B) {
	b.ReportAllocs()
	cities := workload.USCities()
	items := make([]rtree.Item, len(cities))
	for i, c := range cities {
		items[i] = rtree.Item{Rect: c.Pos.Rect(), Data: int64(i)}
	}
	for i := 0; i < b.N; i++ {
		pack.Tree(rtree.Params{Max: 4, Min: 2}, items, pack.Options{Method: pack.MethodNN})
	}
}

// BenchmarkTheorem32Rotation measures the Lemma 3.1 separating-angle
// computation plus rotation packing.
func BenchmarkTheorem32Rotation(b *testing.B) {
	for _, n := range []int{64, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			items := workload.PointItems(workload.UniformPoints(n, int64(n)))
			for i := 0; i < b.N; i++ {
				pack.Tree(rtree.Params{Max: 4, Min: 2}, items, pack.Options{Method: pack.MethodRotate})
			}
		})
	}
}

// BenchmarkUpdateDrift measures the §3.4 update regime: mixed
// inserts/deletes on a packed tree.
func BenchmarkUpdateDrift(b *testing.B) {
	b.ReportAllocs()
	items := workload.PointItems(workload.UniformPoints(900, 1))
	t := pack.Tree(rtree.Params{Max: 4, Min: 2, Split: rtree.SplitLinear}, items, pack.Options{})
	extra := workload.UniformPoints(100000, 2)
	next := int64(len(items))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := extra[i%len(extra)]
		t.Insert(p.Rect(), next)
		t.Delete(p.Rect(), next)
		next++
	}
}

// --- Ablations (DESIGN.md §5) ---------------------------------------

// BenchmarkPackMethods compares the packing strategies on build time
// and structure at a fixed size.
func BenchmarkPackMethods(b *testing.B) {
	items := workload.PointItems(workload.UniformPoints(5000, 42))
	params := rtree.Params{Max: 16, Min: 8}
	for _, m := range []pack.Method{pack.MethodNN, pack.MethodNNArea, pack.MethodLowX, pack.MethodSTR, pack.MethodHilbert} {
		b.Run(m.String(), func(b *testing.B) {
			b.ReportAllocs()
			var t *rtree.Tree
			for i := 0; i < b.N; i++ {
				t = pack.Tree(params, items, pack.Options{Method: m})
			}
			b.StopTimer()
			met := t.ComputeMetrics()
			b.ReportMetric(met.Coverage, "coverage")
			b.ReportMetric(met.Overlap, "overlap")
		})
	}
}

// BenchmarkSplitKinds compares Guttman's split heuristics on insert
// throughput and resulting quality.
func BenchmarkSplitKinds(b *testing.B) {
	items := workload.PointItems(workload.UniformPoints(2000, 43))
	for _, s := range []rtree.SplitKind{rtree.SplitLinear, rtree.SplitQuadratic, rtree.SplitExhaustive} {
		b.Run(s.String(), func(b *testing.B) {
			b.ReportAllocs()
			var t *rtree.Tree
			for i := 0; i < b.N; i++ {
				t = rtree.New(rtree.Params{Max: 4, Min: 2, Split: s})
				for _, it := range items {
					t.InsertItem(it)
				}
			}
			b.StopTimer()
			met := t.ComputeMetrics()
			b.ReportMetric(met.Overlap, "overlap")
		})
	}
}

// BenchmarkBranchingFactor sweeps the fanout: the paper's 4 against
// page-filling factors.
func BenchmarkBranchingFactor(b *testing.B) {
	items := workload.PointItems(workload.UniformPoints(10000, 44))
	queries := workload.QueryWindows(512, 40, 45)
	for _, max := range []int{4, 16, 64, 256} {
		b.Run(fmt.Sprintf("M=%d", max), func(b *testing.B) {
			b.ReportAllocs()
			t := pack.Tree(rtree.Params{Max: max, Min: max / 2}, items, pack.Options{Method: pack.MethodSTR})
			visited := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, v := t.Query(queries[i%len(queries)])
				visited += v
			}
			b.ReportMetric(float64(visited)/float64(b.N), "nodes/query")
		})
	}
}

// BenchmarkJuxtaposition compares the simultaneous-traversal join with
// the index-nested-loop alternative.
func BenchmarkJuxtaposition(b *testing.B) {
	params := rtree.Params{Max: 16, Min: 8}
	a := pack.Tree(params, workload.PointItems(workload.UniformPoints(5000, 46)), pack.Options{Method: pack.MethodSTR})
	d := pack.Tree(params, workload.RectItems(workload.UniformRects(500, 25, 47)), pack.Options{Method: pack.MethodSTR})

	b.Run("simultaneous", func(b *testing.B) {
		b.ReportAllocs()
		pairs := 0
		for i := 0; i < b.N; i++ {
			pairs = 0
			rtree.JoinPairs(a, d, func(x, y geom.Rect) bool { return y.Contains(x) },
				func(_, _ rtree.Item) bool { pairs++; return true })
		}
		b.ReportMetric(float64(pairs), "pairs")
	})
	b.Run("indexNestedLoop", func(b *testing.B) {
		b.ReportAllocs()
		pairs := 0
		for i := 0; i < b.N; i++ {
			pairs = 0
			for _, it := range a.Items() {
				d.Search(it.Rect, func(dd rtree.Item) bool {
					if dd.Rect.Contains(it.Rect) {
						pairs++
					}
					return true
				})
			}
		}
		b.ReportMetric(float64(pairs), "pairs")
	})
}

// BenchmarkClusteredWorkload runs the PACK vs INSERT comparison on
// clustered (city-like) data, where the paper's magnitude of
// improvement appears.
func BenchmarkClusteredWorkload(b *testing.B) {
	pts := workload.ClusteredPoints(20000, 40, 35, 48)
	items := workload.PointItems(pts)
	params := rtree.Params{Max: 64, Min: 32, Split: rtree.SplitLinear}
	queries := workload.QueryWindows(512, 10, 49)

	run := func(b *testing.B, t *rtree.Tree) {
		visited := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, v := t.Query(queries[i%len(queries)])
			visited += v
		}
		b.ReportMetric(float64(visited)/float64(b.N), "nodes/query")
		m := t.ComputeMetrics()
		b.ReportMetric(m.Coverage, "coverage")
		b.ReportMetric(m.Overlap, "overlap")
	}
	b.Run("insert", func(b *testing.B) {
		b.ReportAllocs()
		t := rtree.New(params)
		for _, it := range items {
			t.InsertItem(it)
		}
		run(b, t)
	})
	b.Run("pack", func(b *testing.B) {
		b.ReportAllocs()
		run(b, pack.Tree(params, items, pack.Options{Method: pack.MethodNN}))
	})
}

// BenchmarkPSQLQueries measures end-to-end PSQL execution on the US
// database: the §2.2 direct search and juxtaposition, bare and with a
// where-clause that filters one relation.
func BenchmarkPSQLQueries(b *testing.B) {
	db, err := pictdb.BuildUSDatabase()
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	queries := map[string]string{
		"directSearch": `
			select city, state, population, loc from cities on us-map
			at loc covered-by {800±200, 500±500} where population > 450_000`,
		"juxtaposition": `
			select city, zone from cities, time-zones on us-map, time-zone-map
			at cities.loc covered-by time-zones.loc`,
		// The same join with one equality term on the small side, which
		// the planner restricts before joining.
		"juxtapositionFiltered": `
			select city, zone from cities, time-zones on us-map, time-zone-map
			at cities.loc covered-by time-zones.loc where time-zones.zone = 'Eastern'`,
		"nestedMapping": `
			select lake, lakes.loc from lakes on lake-map
			at lakes.loc covered-by
			select states.loc from states on state-map
			at states.loc overlapping eastern-us`,
	}
	for name, q := range queries {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := db.Query(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Parallel execution (DESIGN.md "Parallel execution") -------------

// BenchmarkJuxtapose measures the geographic join over two in-memory
// trees: 50k points against 5k small regions.
func BenchmarkJuxtapose(b *testing.B) {
	params := rtree.Params{Max: 16, Min: 8}
	points := pack.Tree(params, workload.PointItems(workload.UniformPoints(50000, 57)), pack.Options{Method: pack.MethodSTR})
	wins := workload.QueryWindows(5000, 25, 58)
	regionItems := make([]rtree.Item, len(wins))
	for i, w := range wins {
		regionItems[i] = rtree.Item{Rect: w, Data: int64(i)}
	}
	regions := pack.Tree(params, regionItems, pack.Options{Method: pack.MethodSTR})
	pred := func(a, b geom.Rect) bool { return a.Intersects(b) }
	b.ReportAllocs()
	pairs := 0
	for i := 0; i < b.N; i++ {
		out, _ := rtree.Juxtapose(points, regions, pred, 0)
		pairs = len(out)
	}
	b.ReportMetric(float64(pairs), "pairs")
}

// BenchmarkPSQLRepeatedWindow measures the repeated point-in-window
// workload the statement cache exists for: the same mapping executed
// over and over with the window moving through a fixed cycle of 64
// positions. Both modes run the identical query sequence; they differ
// only in how much work repeats. "naive" re-parses and executes the
// reference path every time, and "cached" formats the text per window
// and serves it through the statement cache (all hits after the first
// cycle).
func BenchmarkPSQLRepeatedWindow(b *testing.B) {
	const tmpl = `
		select city, state, loc from cities on us-map
		at loc covered-by {%g±%g, %g±%g} where population > 450_000`
	texts := make([]string, 0, 64)
	for _, w := range workload.QueryWindows(64, 180, 1985) {
		c := w.Center()
		texts = append(texts, fmt.Sprintf(tmpl, c.X, (w.Max.X-w.Min.X)/2, c.Y, (w.Max.Y-w.Min.Y)/2))
	}
	b.Run("naive", func(b *testing.B) {
		db, err := pictdb.BuildUSDatabase()
		if err != nil {
			b.Fatal(err)
		}
		defer db.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := db.QueryNaive(texts[i%len(texts)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		db, err := pictdb.BuildUSDatabase()
		if err != nil {
			b.Fatal(err)
		}
		defer db.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := db.Query(texts[i%len(texts)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// windowReadRelation fills db with a relation shaped like pictbench's
// window_read database: n clustered points as cities(name, pop, loc) on
// citymap, with a B-tree on pop and a Hilbert-packed R-tree.
func windowReadRelation(tb testing.TB, db *pictdb.Database, n int) *pictdb.Relation {
	tb.Helper()
	pic, err := db.CreatePicture("citymap", pictdb.R(0, 0, 1000, 1000))
	if err != nil {
		tb.Fatal(err)
	}
	rel, err := db.CreateRelation("cities", pictdb.MustSchema("name:string", "pop:int", "loc:loc"))
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1985))
	for i, pt := range workload.ClusteredPoints(n, 50, 30, 1985) {
		name := fmt.Sprintf("c%06d", i)
		if _, err := rel.Insert(pictdb.Tuple{pictdb.S(name), pictdb.I(rng.Int63n(1_000_000)), pictdb.L("citymap", pic.AddPoint(name, pt))}); err != nil {
			tb.Fatal(err)
		}
	}
	if err := rel.CreateIndex("pop"); err != nil {
		tb.Fatal(err)
	}
	if err := rel.AttachPicture(pic, pictdb.PackOptions{Method: pictdb.PackHilbert}); err != nil {
		tb.Fatal(err)
	}
	return rel
}

// windowReadFile writes the 200k-point window_read database to a file
// under b's temporary directory and returns its path.
func windowReadFile(b testing.TB) string { return windowReadFileOf(b, 200_000) }

// windowReadFileOf writes a window_read database of n points to a file
// under b's temporary directory and returns its path.
func windowReadFileOf(b testing.TB, n int) string {
	return dbFile(b, func(db *pictdb.Database) { windowReadRelation(b, db, n) })
}

// dbFile writes the database fill builds to a file under tb's temporary
// directory, checkpointed and closed, and returns its path. Opened
// again, the file is read through the mapping, as a served database is.
func dbFile(tb testing.TB, fill func(db *pictdb.Database)) string {
	path := filepath.Join(tb.TempDir(), "open.db")
	db, err := pictdb.Open(path, 4096)
	if err != nil {
		tb.Fatal(err)
	}
	fill(db)
	if err := db.Checkpoint(); err != nil {
		tb.Fatal(err)
	}
	if err := db.Close(); err != nil {
		tb.Fatal(err)
	}
	return path
}

// windowStatement renders the window_read statement over a square
// window on center sized to hold want index candidates (to within the
// points sharing its edge), keeping the tuples with pop above minPop.
func windowStatement(tb testing.TB, rel *pictdb.Relation, center pictdb.Point, want int, minPop int64) string {
	tb.Helper()
	count := func(half float64) int {
		ids, _, err := rel.SearchArea("citymap", pictdb.WindowAt(center.X, half, center.Y, half), geom.CoveredBy)
		if err != nil {
			tb.Fatal(err)
		}
		return len(ids)
	}
	lo, hi := 0.0, 1.0
	for count(hi) < want {
		hi *= 2
	}
	for i := 0; i < 40 && count(hi) != want; i++ {
		if mid := (lo + hi) / 2; count(mid) < want {
			lo = mid
		} else {
			hi = mid
		}
	}
	return fmt.Sprintf("select name, pop from cities on citymap at loc covered-by {%g±%g, %g±%g} where pop > %d",
		center.X, hi, center.Y, hi, minPop)
}

// BenchmarkWindowStatement measures one cached point-in-window
// statement — the served path of pictbench's window_read — on the
// reopened 200k-point file, at the workload's two window sizes: about
// 30 index candidates (its median statement) and about 750 (where most
// of its time goes). pop > 360000 rejects 36% of the candidates, the
// workload's share. It reports ns and allocations per statement and ns
// per candidate.
func BenchmarkWindowStatement(b *testing.B) {
	db, err := pictdb.Open(windowReadFile(b), 4096)
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	rel, _ := db.Relation("cities")
	center := workload.ClusteredPoints(200_000, 50, 30, 1985)[7]
	for _, want := range []int{30, 750} {
		b.Run(fmt.Sprintf("candidates=%d", want), func(b *testing.B) {
			q := windowStatement(b, rel, center, want, 360_000)
			if _, err := db.Query(q); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.Query(q); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(want), "ns/candidate")
		})
	}
}

// TestWindowStatementAllocs holds the allocations of a cached window
// statement to what its result needs: a constant, a few slice growths
// as the candidate list lengthens, and per returned row its one string —
// nothing per candidate the where-clause rejects.
func TestWindowStatementAllocs(t *testing.T) {
	db := pictdb.New()
	defer db.Close()
	rel := windowReadRelation(t, db, 20_000)
	center := workload.ClusteredPoints(20_000, 50, 30, 1985)[7]
	allocs := func(want int, minPop int64) (perRun float64, rows int) {
		q := windowStatement(t, rel, center, want, minPop)
		res, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := db.Query(q); err != nil {
				t.Fatal(err)
			}
		}), len(res.Rows)
	}
	few, rows := allocs(30, 1_000_000)
	many, rows2 := allocs(750, 1_000_000)
	if rows != 0 || rows2 != 0 {
		t.Fatalf("pop > 1000000 kept %d and %d rows", rows, rows2)
	}
	t.Logf("every candidate rejected: %.0f allocations at 30 candidates, %.0f at 750", few, many)
	if many > few+12 {
		t.Errorf("rejecting 750 candidates takes %.0f allocations, rejecting 30 takes %.0f: they grow with the candidates rejected", many, few)
	}
	if few > 32 {
		t.Errorf("a cached window statement returning nothing takes %.0f allocations, want at most 32", few)
	}
	all, rows := allocs(750, -1)
	t.Logf("every candidate returned: %.0f allocations for %d rows", all, rows)
	if rows < 700 {
		t.Fatalf("pop > -1 kept %d of about 750 candidates", rows)
	}
	if perRow := (all - many) / float64(rows); perRow > 1.1 {
		t.Errorf("%.2f allocations per returned row, want its name string and no more", perRow)
	}
}

// TestWindowStatementBytes is TestWindowStatementAllocs in bytes: a
// cached window statement allocates its answer — per returned row its
// Datums, its row header and its name string — its candidate ids, once,
// and a small constant besides. The tuples it decodes, its []Tuple lists
// and its rows come from the statement's pooled arena, and the index
// search collects its ids in a pooled list. Measured on 2 cores: 640 B
// with every one of 30 candidates rejected (176 B of it the two-step
// plan), 5 904 B more for 720 more rejected candidates (8 B each, the
// id), and 229 B a returned row; with the plan's lines cached as
// strings, 496 B, 5 904 B more and 229 B; with a per-statement mask of the where-terms already tested, 536 B,
// 5 904 B more and 229 B; before the pooled id list, 1 056 B, 20 368 B
// more and 229 B; before the arena, 7 968 B, 59 152 B more and 450 B.
// Each figure is the least of 51 statements (bytesPerRun).
func TestWindowStatementBytes(t *testing.T) {
	db := pictdb.New()
	defer db.Close()
	rel := windowReadRelation(t, db, 20_000)
	center := workload.ClusteredPoints(20_000, 50, 30, 1985)[7]
	bytes := func(want int, minPop int64) (perRun float64, rows int) {
		q := windowStatement(t, rel, center, want, minPop)
		res, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		return bytesPerRun(51, func() {
			if _, err := db.Query(q); err != nil {
				t.Fatal(err)
			}
		}), len(res.Rows)
	}
	few, _ := bytes(30, 1_000_000)
	many, _ := bytes(750, 1_000_000)
	all, rows := bytes(750, -1)
	perRow := (all - many) / float64(rows)
	t.Logf("every candidate rejected: %.0f B at 30 candidates, %.0f B at 750; every candidate returned: %.0f B for %d rows, %.0f B a row",
		few, many, all, rows, perRow)
	if few > 2_000 {
		t.Errorf("a cached window statement returning nothing allocates %.0f B, want at most 2000", few)
	}
	if many > few+12_000 {
		t.Errorf("rejecting 750 candidates allocates %.0f B, rejecting 30 %.0f B: want at most 12000 B more, about 8 B a candidate for its id", many, few)
	}
	if perRow > 300 {
		t.Errorf("%.0f B a returned row, want at most 300: two 96-byte Datums, a row header and a name", perRow)
	}
}

// bytesPerRun is testing.AllocsPerRun's twin in bytes: the bytes one
// call of f allocates, read from runtime.MemStats.TotalAlloc at
// GOMAXPROCS 1 around each of runs calls after one warm-up call. It is
// the least of them, not the mean or the median: a statement whose
// pooled arena or id list a collection took, or sync.Pool dropped,
// allocates it again, and under -race sync.Pool drops one Put in four
// at random, so with two pools on the path nearly half the calls do;
// nothing makes a call allocate less than its steady state.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var ms runtime.MemStats
	least := uint64(math.MaxUint64)
	for range runs {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		f()
		runtime.ReadMemStats(&ms)
		least = min(least, ms.TotalAlloc-before)
	}
	return float64(least)
}

// joinDatabase builds in memory a database shaped like pictbench's
// join_nested (joinRelations).
func joinDatabase(tb testing.TB, n, m int, kind func(i int) int64) *pictdb.Database {
	tb.Helper()
	db := pictdb.New()
	tb.Cleanup(func() { db.Close() })
	joinRelations(tb, db, n, m, kind)
	return db
}

// joinRelations fills db with relations shaped like pictbench's
// join_nested: n clustered sites(name, pop, loc) on sitemap with a
// B-tree on pop, and m regions(tag, kind, loc) on regionmap, each a
// square on a site holding the 8 sites nearest its centre (by the larger
// axis distance), region i of kind kind(i). Regions are drawn one after
// another from one seed, so at one n the first k are the same at any m.
func joinRelations(tb testing.TB, db *pictdb.Database, n, m int, kind func(i int) int64) {
	tb.Helper()
	frame := pictdb.R(0, 0, 1000, 1000)
	sitemap, err := db.CreatePicture("sitemap", frame)
	if err != nil {
		tb.Fatal(err)
	}
	regionmap, err := db.CreatePicture("regionmap", frame)
	if err != nil {
		tb.Fatal(err)
	}
	sites, err := db.CreateRelation("sites", pictdb.MustSchema("name:string", "pop:int", "loc:loc"))
	if err != nil {
		tb.Fatal(err)
	}
	regions, err := db.CreateRelation("regions", pictdb.MustSchema("tag:string", "kind:int", "loc:loc"))
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1985))
	pts := workload.ClusteredPoints(n, 50, 30, 1985)
	for i, pt := range pts {
		name := fmt.Sprintf("s%06d", i)
		if _, err := sites.Insert(pictdb.Tuple{pictdb.S(name), pictdb.I(rng.Int63n(1_000_000)), pictdb.L("sitemap", sitemap.AddPoint(name, pt))}); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < m; i++ {
		c := pts[rng.Intn(n)]
		var near [8]float64 // the 8 smallest distances, ascending
		for j := range near {
			near[j] = math.Inf(1)
		}
		for _, p := range pts {
			d := max(math.Abs(p.X-c.X), math.Abs(p.Y-c.Y))
			if d >= near[7] {
				continue
			}
			j := 7
			for ; j > 0 && near[j-1] > d; j-- {
				near[j] = near[j-1]
			}
			near[j] = d
		}
		half := near[7]
		tag := fmt.Sprintf("r%05d", i)
		oid := regionmap.AddRegion(tag, geom.RectPoly(geom.R(c.X-half, c.Y-half, c.X+half, c.Y+half)))
		if _, err := regions.Insert(pictdb.Tuple{pictdb.S(tag), pictdb.I(kind(i)), pictdb.L("regionmap", oid)}); err != nil {
			tb.Fatal(err)
		}
	}
	if err := sites.CreateIndex("pop"); err != nil {
		tb.Fatal(err)
	}
	hilbert := pictdb.PackOptions{Method: pictdb.PackHilbert}
	if err := sites.AttachPicture(sitemap, hilbert); err != nil {
		tb.Fatal(err)
	}
	if err := regions.AttachPicture(regionmap, hilbert); err != nil {
		tb.Fatal(err)
	}
}

// joinStatement is join_nested's juxtaposition: the regions of kind k
// restricted first, then joined with the sites whose pop exceeds minPop.
func joinStatement(k, minPop int64) string {
	return fmt.Sprintf("select sites.name, regions.tag from sites, regions on sitemap, regionmap "+
		"at sites.loc covered-by regions.loc where regions.kind = %d and sites.pop > %d", k, minPop)
}

// BenchmarkJuxtapositionStatement measures one cached juxtaposition
// statement — the served path of pictbench's join_nested — at a tenth of
// that workload's size (5 000 clustered sites, 200 regions) and at its
// size (50 000 sites, 2 000 regions). The regions are of 64 kinds, and
// each statement restricts them to one kind by a heap scan (about 3
// survivors of 200, 31 of 2 000) and probes sites from the survivors'
// MBRs in one batched descent. The database is written to a file and
// reopened, so its reads go through the mapping, as join_nested's do,
// not the buffer pool. The 64 texts cycle through the statement cache.
// It reports ns, allocations and nodes visited per statement.
func BenchmarkJuxtapositionStatement(b *testing.B) {
	for _, size := range []struct{ sites, regions int }{{5_000, 200}, {50_000, 2_000}} {
		b.Run(fmt.Sprintf("sites=%d", size.sites), func(b *testing.B) {
			path := dbFile(b, func(db *pictdb.Database) {
				joinRelations(b, db, size.sites, size.regions, func(i int) int64 { return int64(i % 64) })
			})
			db, err := pictdb.Open(path, 4096)
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			texts := make([]string, 64)
			for k := range texts {
				texts[k] = joinStatement(int64(k), 1000*int64(k%4))
				if _, err := db.Query(texts[k]); err != nil {
					b.Fatal(err)
				}
			}
			nodes := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := db.Query(texts[i%len(texts)])
				if err != nil {
					b.Fatal(err)
				}
				nodes += res.NodesVisited
			}
			b.ReportMetric(float64(nodes)/float64(b.N), "nodes/stmt")
		})
	}
}

// TestRestrictionScanAllocs holds the allocations of a cached
// scan-restricted juxtaposition to what its survivors need: the same 20
// regions survive among 200 and among 2 000, and the statement must not
// allocate more for the 1 800 more tuples its where-clause rejects. Nor
// must a pair the probed side's term rejects allocate: the sites of the
// 160 pairs are tested as they are fetched, before a name is decoded,
// so rejecting every pair takes at least half an allocation a pair
// fewer than returning each with its site's name.
func TestRestrictionScanAllocs(t *testing.T) {
	kind := func(i int) int64 {
		if i < 20 {
			return 0
		}
		return 1 + int64(i%63)
	}
	q := joinStatement(0, 0)
	allocs := func(db *pictdb.Database, q string) (float64, *pictdb.Result) {
		res, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		plan := strings.Join(res.Plan.Lines(), "\n")
		if !strings.Contains(plan, `"regions" reduced to 20 of`) ||
			!strings.Contains(plan, "heap scan") || !strings.Contains(plan, "batched direct search") {
			t.Fatalf("%s: not a scan-restricted probe:\n%s", q, plan)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := db.Query(q); err != nil {
				t.Fatal(err)
			}
		}), res
	}
	db := joinDatabase(t, 5_000, 200, kind)
	few, small := allocs(db, q)
	many, large := allocs(joinDatabase(t, 5_000, 2_000, kind), q)
	assertSameResult(t, q, large, small)
	t.Logf("%d rows: %.0f allocations over 200 regions, %.0f over 2000", len(small.Rows), few, many)
	if many > few+12 {
		t.Errorf("rejecting 1980 regions takes %.0f allocations, rejecting 180 takes %.0f: they grow with the tuples rejected", many, few)
	}
	none, res := allocs(db, joinStatement(0, 2_000_000))
	t.Logf("every one of the %d pairs rejected: %.0f allocations", len(small.Rows), none)
	if len(res.Rows) != 0 || len(small.Rows) < 100 {
		t.Fatalf("pop > 0 keeps %d pairs, pop > 2000000 %d: want over 100 and none", len(small.Rows), len(res.Rows))
	}
	if none > few-float64(len(small.Rows))/2 {
		t.Errorf("rejecting the %d pairs takes %.0f allocations, returning them %.0f: a rejected pair allocates", len(small.Rows), none, few)
	}
}

// TestWindowReadsBypassThePool is the property the read path rests on:
// opening the window_read file installs a constant number of pages in
// the buffer pool, not one per heap page; cached window statements then
// read their candidates through the file mapping — no pool lookup at
// all; and a write makes exactly the pages it touches resident, after
// which the next statement sees the new row through their frames.
func TestWindowReadsBypassThePool(t *testing.T) {
	db, err := pictdb.Open(windowReadFile(t), 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if !db.MmapActive() {
		t.Skip("no file mapping in this build: every read takes the pool path")
	}
	t.Logf("%d of %d pages resident after Open", db.PoolResident(), db.NumPages())
	if n := db.PoolResident(); n > 4 {
		t.Fatalf("Open of a %d-page file left %d pages resident in the pool, want the superblock's few", db.NumPages(), n)
	}
	rel, _ := db.Relation("cities")
	pic, _ := db.Picture("citymap")
	center := workload.ClusteredPoints(200_000, 50, 30, 1985)[7]
	texts := []string{windowStatement(t, rel, center, 30, 360_000), windowStatement(t, rel, center, 750, 360_000)}
	for _, q := range texts { // into the statement cache
		if _, err := db.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	before, resident := db.PoolStats(), db.PoolResident()
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if _, err := db.Query(texts[(g+i)%2]); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	after := db.PoolStats()
	if after.MmapPins <= before.MmapPins {
		t.Fatalf("200 window statements read no page through the mapping (mmap pins %d -> %d)", before.MmapPins, after.MmapPins)
	}
	if got := after.Hits + after.Misses - before.Hits - before.Misses; got != 0 || db.PoolResident() != resident {
		t.Fatalf("200 window statements made %d pool lookups and moved residency %d -> %d, want none",
			got, resident, db.PoolResident())
	}

	err = db.Write(func() error {
		_, err := rel.Insert(pictdb.Tuple{pictdb.S("znew"), pictdb.I(999_999), pictdb.L("citymap", pic.AddPoint("znew", center))})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	// The heap's last page, and the page chained after it if it was full.
	if grown := db.PoolResident() - resident; grown < 1 || grown > 2 {
		t.Fatalf("one Write made %d pages resident, want the one or two it touched", grown)
	}
	for _, q := range texts {
		got, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := db.QueryNaive(q)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, q, got, want)
		found := false
		for _, row := range got.Rows {
			found = found || row[0].Str == "znew"
		}
		if !found {
			t.Fatalf("%s: the row written into the window is missing", q)
		}
	}
}

// TestJoinReadsBypassThePool is TestWindowReadsBypassThePool for
// join_nested's shapes: on a reopened file of two relations,
// juxtapositions whose restricted side probes the other's R-tree and
// nested mappings, run from two goroutines, read through the file
// mapping — no pool lookup, and residency unchanged.
func TestJoinReadsBypassThePool(t *testing.T) {
	const sites = 20_000
	path := filepath.Join(t.TempDir(), "join.db")
	db, err := pictdb.Open(path, 4096)
	if err != nil {
		t.Fatal(err)
	}
	joinRelations(t, db, sites, 800, func(i int) int64 { return int64(i % 64) })
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = pictdb.Open(path, 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if !db.MmapActive() {
		t.Skip("no file mapping in this build: every read takes the pool path")
	}
	var texts []string
	for k := int64(0); k < 4; k++ {
		texts = append(texts, joinStatement(k, 100_000*k))
	}
	pts := workload.ClusteredPoints(sites, 50, 30, 1985)
	for _, c := range pts[:4] {
		texts = append(texts, fmt.Sprintf("select name from sites on sitemap at loc covered-by "+
			"(select loc from regions on regionmap at loc overlapping {%g±30, %g±30} where kind < 48)", c.X, c.Y))
	}
	for _, q := range texts { // into the statement cache
		res, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) == 0 {
			t.Fatalf("%s: no rows", q)
		}
	}
	before, resident := db.PoolStats(), db.PoolResident()
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if _, err := db.Query(texts[(g+i)%len(texts)]); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	after := db.PoolStats()
	t.Logf("200 join statements: %d mapped page reads, %d page(s) resident", after.MmapPins-before.MmapPins, resident)
	if after.MmapPins <= before.MmapPins {
		t.Fatalf("200 join statements read no page through the mapping (mmap pins %d -> %d)", before.MmapPins, after.MmapPins)
	}
	if got := after.Hits + after.Misses - before.Hits - before.Misses; got != 0 || db.PoolResident() != resident {
		t.Fatalf("200 join statements made %d pool lookups and moved residency %d -> %d, want none",
			got, resident, db.PoolResident())
	}
}

// BenchmarkOpenWindowRead measures pictdb.Open of a file shaped like
// pictbench's window_read database: 200k clustered points with a B-tree
// on pop and a Hilbert-packed R-tree, built once. Each iteration is one
// catalog reload; Close is outside the timer. live-MB is the heap one
// open database holds, read after a collection.
func BenchmarkOpenWindowRead(b *testing.B) {
	path := windowReadFile(b)
	// Phase times come from inside the reload (its own clock seam) and
	// add up goroutine time, so on several cores they exceed ns/op.
	var phases [4]time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db, err := pictdb.Open(path, 4096)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		t := db.LoadTimes()
		for j, d := range [4]time.Duration{t.Decode, t.Scan, t.BTree, t.Pack} {
			phases[j] += d
		}
		if err := db.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	for j, name := range [4]string{"catalog-decode", "scan", "btree", "pack"} {
		b.ReportMetric(float64(phases[j].Microseconds())/1e3/float64(b.N), name+"-ms")
	}
	b.StopTimer()
	before := liveHeap()
	db, err := pictdb.Open(path, 4096)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(liveHeap()-before)/(1<<20), "live-MB")
	if err := db.Close(); err != nil {
		b.Fatal(err)
	}
}

// liveHeap is the heap in use after a collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// openLiveBytesPerPoint bounds TestOpenLiveHeapPerPoint. On 2 cores
// with go1.24 the open file held 129 bytes a point (209 without the
// mmap, whose pool keeps the pages the reload read), and 334 (414) while
// every picture kept a second copy of its objects.
const openLiveBytesPerPoint = 250

// TestOpenLiveHeapPerPoint is the known-small gate: a reopened
// 20 000-point window_read file holds at most openLiveBytesPerPoint
// bytes of live heap per indexed point, read after a collection with
// the database open. Each tuple carries its object, so the heap holds
// the indexes and no second copy of the objects.
func TestOpenLiveHeapPerPoint(t *testing.T) {
	const n = 20_000
	path := windowReadFileOf(t, n)
	before := liveHeap()
	db, err := pictdb.Open(path, 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	perPoint := float64(liveHeap()-before) / n
	t.Logf("%.0f live bytes per point", perPoint)
	if perPoint > openLiveBytesPerPoint {
		t.Errorf("an open %d-point file holds %.0f live bytes per point, want at most %d", n, perPoint, openLiveBytesPerPoint)
	}
}

// BenchmarkDefineThenWrite times one definition and one acknowledged
// Write made durable in a database holding a 200 000-object picture
// (windowReadFile): a DefineLocation, then a Write inserting one tuple
// on that picture. The Write's group commit carries the changed
// definitions with it (DESIGN.md §13), so an iteration is one commit of
// a few pages, whatever the picture holds. When definitions and picture
// objects reached the file only through Checkpoint's rewrite of the
// catalog, the same durability cost a re-encoding of every object
// (EXPERIMENTS.md has both).
func BenchmarkDefineThenWrite(b *testing.B) {
	db, err := pictdb.Open(windowReadFile(b), 4096)
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	rel, _ := db.Relation("cities")
	pic, _ := db.Picture("citymap")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.DefineLocation(fmt.Sprintf("spot%d", i), pictdb.R(0, 0, 1, 1)); err != nil {
			b.Fatal(err)
		}
		if err := db.Write(func() error {
			name := fmt.Sprintf("w%d", i)
			_, err := rel.Insert(pictdb.Tuple{pictdb.S(name), pictdb.I(int64(i)), pictdb.L("citymap", pic.AddPoint(name, pictdb.Pt(500, 500)))})
			return err
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreIngest loads storeIngestRows points into a relation of
// 1, 2, 4 and 8 stores (CreateShardedRelation) in 32-row Writes while
// one reader answers small window statements beside it, and reports the
// writer's rows/s and the reader's median statement latency. durable
// runs over a page file (one fsync per acknowledged Write), mem over
// pictdb.New(); uniform spreads the points over the frame, hot puts 9 in
// 10 in one sixteenth of it. One iteration is one whole load: run with
// -benchtime 1x. It is the measurement behind DESIGN.md §15's
// write-bandwidth paragraph.
func BenchmarkStoreIngest(b *testing.B) {
	for _, durable := range []bool{false, true} {
		for _, hot := range []bool{false, true} {
			for _, stores := range []int{1, 2, 4, 8} {
				name := fmt.Sprintf("%s/%s/stores=%d", map[bool]string{false: "mem", true: "durable"}[durable], map[bool]string{false: "uniform", true: "hot"}[hot], stores)
				b.Run(name, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						storeIngest(b, durable, hot, stores)
					}
				})
			}
		}
	}
}

const storeIngestRows = 200_000

func storeIngest(b *testing.B, durable, hot bool, stores int) {
	db := pictdb.New()
	if durable {
		var err error
		if db, err = pictdb.Open(filepath.Join(b.TempDir(), "ingest.db"), 1024); err != nil {
			b.Fatal(err)
		}
	}
	defer db.Close()
	pic, err := db.CreatePicture("citymap", pictdb.R(0, 0, 1000, 1000))
	if err != nil {
		b.Fatal(err)
	}
	rel, err := db.CreateShardedRelation("cities", pictdb.MustSchema("name:string", "pop:int", "loc:loc"), stores)
	if err != nil {
		b.Fatal(err)
	}
	if err := rel.AttachPicture(pic, pictdb.PackOptions{Method: pictdb.PackHilbert}); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(stores)))
	point := func(i int) pictdb.Point {
		if hot && i%10 != 0 {
			return pictdb.Pt(rng.Float64()*250, rng.Float64()*250)
		}
		return pictdb.Pt(rng.Float64()*1000, rng.Float64()*1000)
	}

	done := make(chan struct{})
	var lat []time.Duration
	var readErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		qrng := rand.New(rand.NewSource(1985))
		for {
			select {
			case <-done:
				return
			default:
			}
			x, y := qrng.Float64()*1000, qrng.Float64()*1000
			t0 := time.Now()
			if _, err := db.Query(fmt.Sprintf("select pop from cities on citymap at loc covered-by {%.1f±10, %.1f±10}", x, y)); err != nil {
				readErr = err
				return
			}
			lat = append(lat, time.Since(t0))
		}
	}()

	b.ResetTimer()
	t0 := time.Now()
	for i := 0; i < storeIngestRows; i += 32 {
		if err := db.Write(func() error {
			for j := i; j < i+32 && j < storeIngestRows; j++ {
				name := fmt.Sprintf("c%06d", j)
				if _, err := rel.Insert(pictdb.Tuple{pictdb.S(name), pictdb.I(int64(j)), pictdb.L("citymap", pic.AddPoint(name, point(j)))}); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			b.Fatal(err)
		}
	}
	elapsed := time.Since(t0)
	b.StopTimer()
	close(done)
	wg.Wait()
	if readErr != nil {
		b.Fatal(readErr)
	}
	b.ReportMetric(float64(storeIngestRows)/elapsed.Seconds(), "rows/s")
	if len(lat) > 0 {
		slices.Sort(lat)
		b.ReportMetric(float64(lat[len(lat)/2].Nanoseconds())/1e3, "read-p50-us")
	}
	db.WaitRepacks()
}
