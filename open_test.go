package pictdb

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/btree"
	"repro/internal/pager"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// buildOpenFixture fills db with two pictorial relations — sites,
// sharded three ways when shards is set, with a B-tree on pop; roads,
// unsharded, with B-trees on name and lanes — deletes a share of each so
// the heaps have holes, and checkpoints.
func buildOpenFixture(t *testing.T, db *Database, shards bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(1985))
	sitemap, err := db.CreatePicture("sitemap", R(0, 0, 1000, 1000))
	if err != nil {
		t.Fatal(err)
	}
	siteSchema := MustSchema("name:string", "pop:int", "loc:loc")
	var sites *Relation
	if shards {
		sites, err = db.CreateShardedRelation("sites", siteSchema, 3)
	} else {
		sites, err = db.CreateRelation("sites", siteSchema)
	}
	if err != nil {
		t.Fatal(err)
	}
	roadmap, err := db.CreatePicture("roadmap", R(0, 0, 1000, 1000))
	if err != nil {
		t.Fatal(err)
	}
	roads, err := db.CreateRelation("roads", MustSchema("name:string", "lanes:int", "loc:loc"))
	if err != nil {
		t.Fatal(err)
	}
	hilbert := PackOptions{Method: PackHilbert}
	if err := sites.AttachPicture(sitemap, hilbert); err != nil {
		t.Fatal(err)
	}
	var siteIDs, roadIDs []storage.TupleID
	for i := 0; i < 3000; i++ {
		name := fmt.Sprintf("s%04d", i)
		x, y := 500+150*rng.NormFloat64(), 500+150*rng.NormFloat64()
		id, err := sites.Insert(Tuple{S(name), I(int64(rng.Intn(40))), L("sitemap", sitemap.AddPoint(name, Pt(x, y)))})
		if err != nil {
			t.Fatal(err)
		}
		siteIDs = append(siteIDs, id)
	}
	for i := 0; i < 800; i++ {
		name := fmt.Sprintf("r%03d", i%300)
		x, y := rng.Float64()*950, rng.Float64()*950
		oid := roadmap.AddSegment(name, Seg(Pt(x, y), Pt(x+rng.Float64()*50, y+rng.Float64()*50)))
		id, err := roads.Insert(Tuple{S(name), I(int64(1 + rng.Intn(4))), L("roadmap", oid)})
		if err != nil {
			t.Fatal(err)
		}
		roadIDs = append(roadIDs, id)
	}
	for i := 0; i < len(siteIDs); i += 9 {
		if err := sites.Delete(siteIDs[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < len(roadIDs); i += 5 {
		if err := roads.Delete(roadIDs[i]); err != nil {
			t.Fatal(err)
		}
	}
	for _, ix := range []struct {
		rel *Relation
		col string
	}{{sites, "pop"}, {roads, "name"}, {roads, "lanes"}} {
		if err := ix.rel.CreateIndex(ix.col); err != nil {
			t.Fatal(err)
		}
	}
	if err := roads.AttachPicture(roadmap, hilbert); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
}

// openState is everything of a reopened database that must not depend
// on how many cores rebuilt it.
type openState struct {
	Metrics map[string][]rtree.Metrics
	Items   map[string][][]rtree.Item
	Indexes map[string][]btree.Entry
	Rows    [][][]string
	Nodes   []int
	Plans   [][]string
}

var openStatements = []string{
	`select name, pop from sites on sitemap at loc covered-by {500±120, 500±90}`,
	`select name from sites on sitemap at loc covered-by {400±300, 600±300} where pop = 7`,
	`select name from sites on sitemap at loc covered-by {500±40, 500±40} where pop < 3`,
	`select name, lanes from roads on roadmap at loc overlapping {300±200, 300±200} where lanes > 2`,
	`select name from roads where name = 'r017'`,
	`select sites.name, roads.name from sites, roads on sitemap, roadmap at sites.loc covered-by roads.loc where roads.lanes = 4`,
	`select name from sites on sitemap at loc disjoined {500±400, 500±400}`,
}

func captureOpenState(t *testing.T, db *Database) openState {
	t.Helper()
	if report := db.Check(); !report.OK() {
		t.Fatalf("Check: %v", report.Err())
	}
	st := openState{
		Metrics: map[string][]rtree.Metrics{},
		Items:   map[string][][]rtree.Item{},
		Indexes: map[string][]btree.Entry{},
	}
	for _, rp := range [][2]string{{"sites", "sitemap"}, {"roads", "roadmap"}} {
		rel, _ := db.Relation(rp[0])
		for _, si := range rel.Spatials(rp[1]) {
			m := si.PackedTree().ComputeMetrics()
			if got, want := si.CostSnapshot().Stats, si.PackedTree().SearchMetrics(); got != want {
				t.Fatalf("%s: priced %+v, SearchMetrics %+v", rp[0], got, want)
			}
			st.Metrics[rp[0]] = append(st.Metrics[rp[0]], m)
			st.Items[rp[0]] = append(st.Items[rp[0]], si.PackedTree().Items())
		}
	}
	for _, rc := range [][2]string{{"sites", "pop"}, {"roads", "name"}, {"roads", "lanes"}} {
		rel, _ := db.Relation(rc[0])
		idx := rel.Index(rc[1])
		if idx == nil {
			t.Fatalf("%s.%s: index not rebuilt", rc[0], rc[1])
		}
		var run []btree.Entry
		idx.Ascend(func(k []byte, v btree.Value) bool {
			run = append(run, btree.Entry{Key: k, Value: v})
			return true
		})
		st.Indexes[rc[0]+"."+rc[1]] = run
	}
	for _, src := range openStatements {
		res, err := db.Query(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		rows := make([][]string, len(res.Rows))
		for i, r := range res.Rows {
			for _, d := range r {
				rows[i] = append(rows[i], d.String())
			}
		}
		st.Rows = append(st.Rows, rows)
		st.Nodes = append(st.Nodes, res.NodesVisited)
		st.Plans = append(st.Plans, res.Plan)
	}
	return st
}

// TestOpenSameAtAnyParallelism reopens one checkpointed file with the
// reload allowed 1, 2 and 8 cores: the packed trees (their metrics and
// their items in tree order), every B-tree's Ascend stream, Check, and
// a fixed statement list's rows, node visits and plans — estimates
// included — are the same each time.
func TestOpenSameAtAnyParallelism(t *testing.T) {
	path := filepath.Join(t.TempDir(), "open.db")
	db, err := Open(path, 256)
	if err != nil {
		t.Fatal(err)
	}
	buildOpenFixture(t, db, true)
	// As built, sites still has most of its tuples on the write side of
	// its index; the statements' rows are all a reopen must share with it.
	want := captureOpenState(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for i, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		db, err := Open(path, 256)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		got := captureOpenState(t, db)
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			if !reflect.DeepEqual(got.Rows, want.Rows) {
				t.Fatal("rows differ from the database as built")
			}
			want = got
		}
		for name, f := range map[string]func(openState) any{
			"metrics": func(s openState) any { return s.Metrics },
			"items":   func(s openState) any { return s.Items },
			"indexes": func(s openState) any { return s.Indexes },
			"rows":    func(s openState) any { return s.Rows },
			"nodes":   func(s openState) any { return s.Nodes },
			"plans":   func(s openState) any { return s.Plans },
		} {
			if !reflect.DeepEqual(f(got), f(want)) {
				t.Errorf("GOMAXPROCS=%d: %s differ from the reopen on one core", procs, name)
			}
		}
	}
}

// settleGoroutines waits for the goroutine count to come back to base.
func settleGoroutines(t *testing.T, base int, what string) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, %d before", what, runtime.NumGoroutine(), base)
		}
	}
}

// memFixture builds the fixture, sites unsharded, over an in-memory
// backend and returns the page file's bytes after a clean close, which
// folds the log into them.
func memFixture(t *testing.T, mutate func(db *Database)) []byte {
	t.Helper()
	mem := pager.NewMemBackend(nil)
	p, err := pager.OpenBackend(mem, 256)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.EnableWALBackend(pager.NewMemBackend(nil)); err != nil {
		t.Fatal(err)
	}
	db, err := OpenWithPager(p)
	if err != nil {
		t.Fatal(err)
	}
	buildOpenFixture(t, db, false)
	if mutate != nil {
		mutate(db)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	return mem.Bytes()
}

// A tuple whose inline object does not decode — a bad kind byte, in
// the middle of roads' heap — fails Open with a typed corruption error
// while the other relation's rebuild runs beside it; none of their
// goroutines outlives the failed Open, at any core count.
func TestOpenCorruptObjectRecord(t *testing.T) {
	image := memFixture(t, func(db *Database) {
		roads, _ := db.Relation("roads")
		heap, err := storage.Open(db.pager, roads.HeapFirstPage())
		if err != nil {
			t.Fatal(err)
		}
		var lids []storage.TupleID
		var recs [][]byte
		if err := heap.Scan(func(lid storage.TupleID, rec []byte) bool {
			lids, recs = append(lids, lid), append(recs, bytes.Clone(rec))
			return true
		}); err != nil {
			t.Fatal(err)
		}
		lid, rec := lids[len(lids)/2], recs[len(recs)/2]
		pg, err := db.pager.Fetch(lid.Page)
		if err != nil {
			t.Fatal(err)
		}
		at := bytes.Index(pg.Data[:], rec)
		pic := bytes.Index(rec, []byte("roadmap"))
		if at < 0 || pic < 0 {
			t.Fatal("record not found on its page")
		}
		pg.Data[at+pic+len("roadmap")+8] = 99 // the object's kind, after its id
		pg.MarkDirty()
		db.pager.Unpin(pg)
	})
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		base := runtime.NumGoroutine()
		p, err := pager.OpenBackend(pager.NewMemBackend(append([]byte(nil), image...)), 256)
		if err != nil {
			t.Fatal(err)
		}
		db, err := OpenWithPager(p)
		if err == nil {
			db.Close()
			t.Fatalf("GOMAXPROCS=%d: a tuple with a corrupt object opened", procs)
		}
		if !IsCorruption(err) || !strings.Contains(err.Error(), "unknown object kind") {
			t.Fatalf("GOMAXPROCS=%d: err = %v, want a typed corrupt-object error", procs, err)
		}
		settleGoroutines(t, base, fmt.Sprintf("GOMAXPROCS=%d, after the failed open", procs))
	}
}

// A read error anywhere in the reload — the definitions, the relation
// heap scans running beside each other — fails Open with the injected I/O error and
// leaves no goroutine behind. Every read of a clean open is failed in
// turn.
func TestOpenReadFaultSweep(t *testing.T) {
	image := memFixture(t, nil)
	open := func(cfg pager.FaultConfig) (*pager.FaultBackend, *Database, error) {
		fb := pager.NewFaultBackend(pager.NewMemBackend(append([]byte(nil), image...)), cfg)
		p, err := pager.OpenBackend(fb, 256)
		if err != nil {
			return fb, nil, err
		}
		db, err := OpenWithPager(p)
		return fb, db, err
	}
	fb, db, err := open(pager.FaultConfig{})
	if err != nil {
		t.Fatal(err)
	}
	reads, _, _ := fb.Ops()
	if rel, _ := db.Relation("roads"); rel.Len() != 640 || reads < 20 {
		t.Fatalf("clean open: %d roads, %d reads", rel.Len(), reads)
	}
	db.Close()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		base := runtime.NumGoroutine()
		for n := 1; n <= reads; n++ {
			_, db, err := open(pager.FaultConfig{FailRead: n})
			if err == nil {
				db.Close()
				t.Fatalf("GOMAXPROCS=%d: open succeeded with read %d of %d failing", procs, n, reads)
			}
			if !errors.Is(err, pager.ErrInjected) {
				t.Fatalf("GOMAXPROCS=%d, read %d: err = %v, want ErrInjected", procs, n, err)
			}
		}
		settleGoroutines(t, base, fmt.Sprintf("GOMAXPROCS=%d, after %d failed opens", procs, reads))
	}
}
