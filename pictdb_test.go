package pictdb_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	pictdb "repro"
	"repro/internal/pager"
	"repro/internal/storage"
)

func TestDatabaseLifecycle(t *testing.T) {
	db := pictdb.New()
	defer db.Close()

	pic, err := db.CreatePicture("map", pictdb.R(0, 0, 100, 100))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreatePicture("map", pictdb.R(0, 0, 1, 1)); err == nil {
		t.Fatal("duplicate picture accepted")
	}
	rel, err := db.CreateRelation("things", pictdb.MustSchema("name:string", "loc:loc"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateRelation("things", pictdb.MustSchema("x:int")); err == nil {
		t.Fatal("duplicate relation accepted")
	}

	oid := pic.AddPoint("A", pictdb.Pt(10, 10))
	if _, err := rel.Insert(pictdb.Tuple{pictdb.S("A"), pictdb.L("map", oid)}); err != nil {
		t.Fatal(err)
	}
	if err := rel.AttachPicture(pic, pictdb.PackOptions{Method: pictdb.PackHilbert}); err != nil {
		t.Fatal(err)
	}

	res, err := db.Query(`select name, loc from things on map at loc covered-by {10±5, 10±5}`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("rows = %d", res.Len())
	}
}

func TestOpenFileBacked(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pict.db")
	db, err := pictdb.Open(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := db.CreateRelation("r", pictdb.MustSchema("v:int"))
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 1000; i++ {
		if _, err := rel.Insert(pictdb.Tuple{pictdb.I(i)}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := db.Query(`select v from r where v >= 990`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 10 {
		t.Fatalf("rows = %d", res.Len())
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDefineLocation(t *testing.T) {
	db := pictdb.New()
	defer db.Close()
	if err := db.DefineLocation("zone-a", pictdb.R(0, 0, 10, 10)); err != nil {
		t.Fatal(err)
	}
	if r, ok := db.Location("zone-a"); !ok || r.Area() != 100 {
		t.Fatalf("location = %v %v", r, ok)
	}
	if _, ok := db.Location("zone-b"); ok {
		t.Fatal("undefined location resolved")
	}
}

// A read-only database refuses a location as it refuses every other
// definition: one it took could never reach the file.
func TestDefineLocationReadOnly(t *testing.T) {
	db := pictdb.New()
	defer db.Close()
	db.SetReadOnly(true)
	if err := db.DefineLocation("zone-a", pictdb.R(0, 0, 10, 10)); !errors.Is(err, pager.ErrReadOnly) {
		t.Fatalf("DefineLocation on a read-only database = %v, want ErrReadOnly", err)
	}
	if _, ok := db.Location("zone-a"); ok {
		t.Fatal("a refused location was defined")
	}
}

// An in-memory database commits as a file does: through its log, one
// group commit per Write.
func TestNewCommitsThroughTheLog(t *testing.T) {
	db := pictdb.New()
	defer db.Close()
	rel, err := db.CreateRelation("r", pictdb.MustSchema("v:int"))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Write(func() error {
		_, err := rel.Insert(pictdb.Tuple{pictdb.I(1)})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if s := db.WALStats(); s.Commits != 1 || s.Frames == 0 {
		t.Fatalf("WALStats after one Write = %+v, want 1 commit carrying its pages", s)
	}
}

func TestBuildUSDatabaseInventory(t *testing.T) {
	db, err := pictdb.BuildUSDatabase()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	wantRel := map[string]int{
		"cities": 48, "states": 20, "time-zones": 4, "lakes": 6, "highways": 15,
	}
	for name, count := range wantRel {
		rel, ok := db.Relation(name)
		if !ok {
			t.Fatalf("missing relation %q", name)
		}
		if rel.Len() != count {
			t.Errorf("%s has %d tuples, want %d", name, rel.Len(), count)
		}
		if len(rel.Pictures()) != 1 {
			t.Errorf("%s attached to %v pictures", name, rel.Pictures())
		}
	}
	for _, pic := range []string{"us-map", "state-map", "time-zone-map", "lake-map", "highway-map"} {
		if _, ok := db.Picture(pic); !ok {
			t.Errorf("missing picture %q", pic)
		}
	}
}

func TestPublicIndexAPI(t *testing.T) {
	items := make([]pictdb.IndexItem, 100)
	for i := range items {
		p := pictdb.Pt(float64(i%10)*10, float64(i/10)*10)
		items[i] = pictdb.IndexItem{Rect: p.Rect(), Data: int64(i)}
	}
	packed := pictdb.PackIndex(pictdb.DefaultRTreeParams(), items, pictdb.PackOptions{Method: pictdb.PackSTR})
	if packed.Len() != 100 {
		t.Fatalf("Len = %d", packed.Len())
	}
	found, visited := packed.Query(pictdb.R(0, 0, 30, 30))
	if len(found) != 16 {
		t.Fatalf("found %d in 4x4 corner, want 16", len(found))
	}
	if visited >= packed.NodeCount() {
		t.Error("no pruning on corner query")
	}

	dyn := pictdb.NewIndex(pictdb.RTreeParams{Max: 8, Min: 4, Split: pictdb.SplitQuadratic})
	for _, it := range items {
		dyn.InsertItem(it)
	}
	if dyn.Len() != 100 {
		t.Fatalf("dynamic Len = %d", dyn.Len())
	}
	pairs := 0
	pictdb.JoinIndexes(packed, dyn, func(a, b pictdb.Rect) bool { return a.Eq(b) },
		func(_, _ pictdb.IndexItem) bool { pairs++; return true })
	if pairs != 100 {
		t.Fatalf("self-join pairs = %d, want 100", pairs)
	}
}

func TestRenderSkipsForeignLocs(t *testing.T) {
	db, err := pictdb.BuildUSDatabase()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	res, err := db.Query(`select city, loc from cities where population > 3_000_000`)
	if err != nil {
		t.Fatal(err)
	}
	// Rendering against a picture none of the locs reference yields an
	// empty (but valid) drawing.
	out, err := db.Render(res, "lake-map", pictdb.R(0, 0, 1000, 1000))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "*") {
		t.Error("foreign locs were rendered")
	}
}

// TestStoresLiveInTheMainFile: a relation of four stores keeps every
// store in the database's one page file. After Checkpoint and Close its
// directory holds exactly that file and its log, and one durable 32-row
// Write, its rows spread over several stores, costs one fsync of the one
// log.
func TestStoresLiveInTheMainFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "stores.db")
	db, err := pictdb.Open(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	pic, err := db.CreatePicture("map", pictdb.R(0, 0, 100, 100))
	if err != nil {
		t.Fatal(err)
	}
	rel, err := db.CreateShardedRelation("pts", pictdb.MustSchema("name:string", "n:int", "loc:loc"), 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := rel.AttachPicture(pic, pictdb.PackOptions{Method: pictdb.PackHilbert}); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	before := db.WALStats().Syncs
	if err := db.Write(func() error {
		for i := 0; i < 32; i++ {
			name := fmt.Sprintf("p%d", i)
			oid := pic.AddPoint(name, pictdb.Pt(float64(3*i+1), float64(97-3*i)))
			if _, err := rel.Insert(pictdb.Tuple{pictdb.S(name), pictdb.I(int64(i)), pictdb.L("map", oid)}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := db.WALStats().Syncs - before; got != 1 {
		t.Fatalf("one durable Write issued %d log fsyncs, want 1", got)
	}
	infos, _ := rel.ShardBalance()
	used := 0
	for _, in := range infos {
		if in.Items > 0 {
			used++
		}
	}
	if used < 2 {
		t.Fatalf("the Write's rows landed in %d of 4 stores, want several: %+v", used, infos)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if want := []string{"stores.db", "stores.db.wal"}; !slices.Equal(names, want) {
		t.Fatalf("database directory holds %v, want %v", names, want)
	}

	db, err = pictdb.Open(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rel, _ = db.Relation("pts")
	if rel.Len() != 32 || rel.ShardCount() != 4 {
		t.Fatalf("reopened relation: %d rows in %d stores, want 32 in 4", rel.Len(), rel.ShardCount())
	}
	if report := db.Check(); !report.OK() {
		t.Fatal(report.Err())
	}
}

// TestWriteBesideShardedDefinitions: Write and Checkpoint run beside
// CreateShardedRelation defining more relations. They read the
// published catalog, which a definition replaces and never writes, so
// under -race this fails if a definition ever writes a catalog in place.
func TestWriteBesideShardedDefinitions(t *testing.T) {
	db := pictdb.New()
	defer db.Close()
	schema := pictdb.MustSchema("n:int")
	rel, err := db.CreateShardedRelation("pts", schema, 2)
	if err != nil {
		t.Fatal(err)
	}
	const defs = 6
	defined := make(chan error, 1)
	go func() {
		for i := 0; i < defs; i++ {
			if _, err := db.CreateShardedRelation(fmt.Sprintf("r%d", i), schema, 2); err != nil {
				defined <- err
				return
			}
		}
		defined <- nil
	}()
	for n := 0; ; n++ {
		select {
		case err := <-defined:
			if err != nil {
				t.Fatal(err)
			}
			if got := rel.Len(); got != n {
				t.Fatalf("relation holds %d rows, want %d", got, n)
			}
			return
		default:
		}
		if err := db.Write(func() error {
			_, err := rel.Insert(pictdb.Tuple{pictdb.I(int64(n))})
			return err
		}); err != nil {
			t.Fatal(err)
		}
		if n%8 == 7 {
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		if db.ReadOnly() {
			t.Fatal("ReadOnly is true with the pager healthy")
		}
	}
}

// TestDefinitionsTouchNoPage: every kind of definition — a relation of
// one store and of eight, a picture, a location, a B-tree index, an
// attached picture — is a catalog edit that allocates and dirties no
// page (the commit after them logs no page); a store's heap takes its
// first page with its first tuple.
func TestDefinitionsTouchNoPage(t *testing.T) {
	db := pictdb.New()
	defer db.Close()
	schema := pictdb.MustSchema("name:string", "loc:loc")
	pic, err := db.CreatePicture("map", pictdb.R(0, 0, 100, 100))
	if err != nil {
		t.Fatal(err)
	}
	pts, err := db.CreateRelation("pts", schema)
	if err != nil {
		t.Fatal(err)
	}
	insert := func(rel *pictdb.Relation, i int) {
		t.Helper()
		name := fmt.Sprintf("p%d", i)
		oid := pic.AddPoint(name, pictdb.Pt(float64(i%100), float64(i*7%100)))
		if _, err := rel.Insert(pictdb.Tuple{pictdb.S(name), pictdb.L("map", oid)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		insert(pts, i)
	}
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	pages, allocs, frames := db.NumPages(), db.PoolStats().Allocs, db.WALStats().Frames

	one, err := db.CreateRelation("one", schema)
	if err != nil {
		t.Fatal(err)
	}
	eight, err := db.CreateShardedRelation("eight", schema, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreatePicture("other", pictdb.R(0, 0, 10, 10)); err != nil {
		t.Fatal(err)
	}
	if err := db.DefineLocation("east", pictdb.R(50, 0, 100, 100)); err != nil {
		t.Fatal(err)
	}
	if err := pts.CreateIndex("name"); err != nil {
		t.Fatal(err)
	}
	for _, rel := range []*pictdb.Relation{pts, eight} {
		if err := rel.AttachPicture(pic, pictdb.PackOptions{Method: pictdb.PackHilbert}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CommitPages(); err != nil {
		t.Fatal(err)
	}
	if db.NumPages() != pages || db.PoolStats().Allocs != allocs || db.WALStats().Frames != frames {
		t.Fatalf("definitions: pages %d -> %d, allocations %d -> %d, logged pages %d -> %d; want none",
			pages, db.NumPages(), allocs, db.PoolStats().Allocs, frames, db.WALStats().Frames)
	}

	for _, rel := range []*pictdb.Relation{one, eight} {
		heldPage := func() int {
			n := 0
			for _, first := range rel.ShardHeapFirstPages() {
				if first != pager.InvalidPage {
					n++
				}
			}
			return n
		}
		if n := heldPage(); n != 0 {
			t.Fatalf("relation %q: %d stores hold a page before any tuple", rel.Name(), n)
		}
		before := db.PoolStats().Allocs
		insert(rel, 100)
		if got := db.PoolStats().Allocs - before; got != 1 {
			t.Fatalf("relation %q: the first tuple allocated %d pages, want 1", rel.Name(), got)
		}
		if n := heldPage(); n != 1 {
			t.Fatalf("relation %q: %d stores hold a page after one tuple, want 1", rel.Name(), n)
		}
	}
}

// TestDefineInsideWrite: a Write's fn defines a relation of two stores
// and loads it while another goroutine commits in a loop. A definition
// takes no lock a Write holds, so nothing deadlocks, and under -race
// nothing races; after a reopen Check is clean and every row is there.
func TestDefineInsideWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "define.db")
	db, err := pictdb.Open(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	schema := pictdb.MustSchema("n:int")
	stop := make(chan struct{})
	committed := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				committed <- nil
				return
			default:
			}
			if err := db.Commit(); err != nil {
				committed <- err
				return
			}
		}
	}()
	const rels, rows = 4, 8
	var werr error
	for i := 0; i < rels && werr == nil; i++ {
		werr = db.Write(func() error {
			rel, err := db.CreateShardedRelation(fmt.Sprintf("r%d", i), schema, 2)
			if err != nil {
				return err
			}
			for n := 0; n < rows; n++ {
				if _, err := rel.Insert(pictdb.Tuple{pictdb.I(int64(n))}); err != nil {
					return err
				}
			}
			return nil
		})
	}
	close(stop)
	if err := <-committed; err != nil {
		t.Fatal(err)
	}
	if werr != nil {
		t.Fatal(werr)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db, err = pictdb.Open(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if report := db.Check(); !report.OK() {
		t.Fatal(report.Err())
	}
	for i := 0; i < rels; i++ {
		rel, ok := db.Relation(fmt.Sprintf("r%d", i))
		if !ok {
			t.Fatalf("relation r%d lost", i)
		}
		var got []int64
		if err := rel.Scan(func(_ storage.TupleID, tu pictdb.Tuple) bool {
			got = append(got, tu[0].Int)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		slices.Sort(got)
		if want := []int64{0, 1, 2, 3, 4, 5, 6, 7}; !slices.Equal(got, want) {
			t.Fatalf("relation r%d holds %v after reopen, want %v", i, got, want)
		}
	}
}

// TestEmptyStoresSurviveReopen: relations of one store and of eight,
// defined and committed with no row, reopen empty and Check-clean —
// their catalog record names no page for a store that never held a
// row — and take rows that survive the next reopen.
func TestEmptyStoresSurviveReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.db")
	schema := pictdb.MustSchema("n:int")
	reopen := func(db *pictdb.Database) *pictdb.Database {
		t.Helper()
		if err := db.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		db, err := pictdb.Open(path, 64)
		if err != nil {
			t.Fatal(err)
		}
		if report := db.Check(); !report.OK() {
			db.Close()
			t.Fatal(report.Err())
		}
		return db
	}
	db, err := pictdb.Open(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	counts := []int{1, 8}
	for _, n := range counts {
		if _, err := db.CreateShardedRelation(fmt.Sprintf("s%d", n), schema, n); err != nil {
			t.Fatal(err)
		}
	}
	db = reopen(db)
	for _, n := range counts {
		rel, ok := db.Relation(fmt.Sprintf("s%d", n))
		if !ok || rel.Len() != 0 || rel.ShardCount() != n {
			t.Fatalf("relation s%d after reopen: present %v, want it empty in %d stores", n, ok, n)
		}
		if _, err := rel.Insert(pictdb.Tuple{pictdb.I(int64(n))}); err != nil {
			t.Fatal(err)
		}
	}
	db = reopen(db)
	defer db.Close()
	for _, n := range counts {
		rel, _ := db.Relation(fmt.Sprintf("s%d", n))
		var got []int64
		if err := rel.Scan(func(_ storage.TupleID, tu pictdb.Tuple) bool {
			got = append(got, tu[0].Int)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, []int64{int64(n)}) {
			t.Fatalf("relation s%d holds %v after the second reopen, want [%d]", n, got, n)
		}
	}
}
