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
