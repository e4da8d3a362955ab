package pictdb_test

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	pictdb "repro"
	"repro/internal/pager"
	"repro/internal/storage"
	"repro/internal/workload"
)

// openPairDB opens the full database stack over a CrashPair's two
// halves (page file + WAL), running WAL recovery first. The pair is the
// whole database: every store of every relation lives in the page file.
func openPairDB(mainB, walB pager.Backend, pool int) (*pictdb.Database, error) {
	p, err := pager.OpenBackend(mainB, pool)
	if err != nil {
		return nil, err
	}
	if err := p.EnableWALBackend(walB); err != nil {
		p.Close()
		return nil, err
	}
	return pictdb.OpenWithPager(p)
}

// TestWALCrashPointsWithRecovery is the WAL-mode crash sweep: a writer
// inserts and checkpoints over a CrashPair that captures a coordinated
// (page file, WAL) image at every sync barrier — the states a crash
// could leave behind — while recording how many checkpoints had been
// acknowledged when each image was taken. Every image must recover to
// a Database.Check-clean state holding AT LEAST every acknowledged
// checkpoint's rows (no acked commit lost) and EXACTLY some committed
// row count (no half states). Beside it, a pictorial relation of four
// stores takes the same rows in the same commits; at every image its
// recovered rows hold the invariants of storeRowsRecovered. Then a
// pictorial relation is defined after the last Checkpoint and written
// one acknowledged Write at a time, with no Checkpoint after: at every
// image, every acknowledged tuple of it answers a window over the frame.
func TestWALCrashPointsWithRecovery(t *testing.T) {
	pair := pager.NewCrashPair()
	var ackedRows, ackedLate atomic.Int64
	ackedAt := make(map[int]int64)
	lateAt := make(map[int]int64)
	pair.OnSync = func(i int, _ pager.CrashImage) {
		ackedAt[i] = ackedRows.Load() // OnSync is serialized by the pair
		lateAt[i] = ackedLate.Load()
	}

	db, err := openPairDB(pair.Main(), pair.WAL(), 64)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := db.CreateRelation("pts", pictdb.MustSchema("name:string", "n:int"))
	if err != nil {
		t.Fatal(err)
	}
	insertStoreRow := createStoreRelation(t, db, 4)
	committed := map[int]bool{0: true}
	n := 0
	for round := 0; round < 4; round++ {
		for i := 0; i < 25; i++ {
			if _, err := rel.Insert(pictdb.Tuple{pictdb.S(fmt.Sprintf("p%d", n)), pictdb.I(int64(n))}); err != nil {
				t.Fatal(err)
			}
			if err := insertStoreRow(n); err != nil {
				t.Fatal(err)
			}
			n++
		}
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		committed[n] = true
		ackedRows.Store(int64(n))
		if round == 2 {
			// Exercise recovery across a WAL checkpoint boundary too.
			if err := db.CheckpointWAL(); err != nil {
				t.Fatal(err)
			}
		}
	}
	pic, err := db.CreatePicture("plan", pictdb.R(0, 0, 100, 100))
	if err != nil {
		t.Fatal(err)
	}
	late, err := db.CreateRelation("late", pictdb.MustSchema("name:string", "n:int", "loc:loc"))
	if err != nil {
		t.Fatal(err)
	}
	if err := late.AttachPicture(pic, pictdb.PackOptions{Method: pictdb.PackHilbert}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := db.Write(func() error {
			name := fmt.Sprintf("l%d", i)
			_, err := late.Insert(pictdb.Tuple{pictdb.S(name), pictdb.I(int64(i)), pictdb.L("plan", pic.AddPoint(name, pictdb.Pt(float64(5+15*i), 40)))})
			return err
		}); err != nil {
			t.Fatal(err)
		}
		ackedLate.Store(int64(i + 1))
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	images := pair.Images()
	if len(images) < 8 {
		t.Fatalf("only %d crash images captured", len(images))
	}
	for i, img := range images {
		db2, err := openPairDB(pager.NewMemBackend(img.Main), pager.NewMemBackend(img.WAL), 64)
		if err != nil {
			t.Fatalf("image %d: recovery failed: %v", i, err)
		}
		report := db2.Check()
		if !report.OK() {
			t.Fatalf("image %d: not Check-clean after recovery: %v", i, report.Err())
		}
		rows := 0
		if rel2, ok := db2.Relation("pts"); ok {
			rows = rel2.Len()
		}
		if !committed[rows] {
			t.Fatalf("image %d: recovered %d rows, not a committed state %v", i, rows, committed)
		}
		if int64(rows) < ackedAt[i] {
			t.Fatalf("image %d: recovered %d rows < %d acknowledged — acked commit lost", i, rows, ackedAt[i])
		}
		storeRowsRecovered(t, i, db2, ackedAt[i], int64(n))
		if lateAt[i] > 0 {
			answered := windowAnswers(t, db2, `select n from late on plan at loc covered-by {50±50, 50±50}`)
			for v := int64(0); v < lateAt[i]; v++ {
				if !answered[v] {
					t.Fatalf("image %d: acknowledged row %d of the relation defined after the last Checkpoint does not answer (%d rows did)", i, v, len(answered))
				}
			}
		}
		if err := db2.Close(); err != nil {
			t.Fatalf("image %d: close: %v", i, err)
		}
	}
	t.Logf("replayed %d coordinated crash images clean", len(images))
}

// TestWALCrashPointsTornAppends repeats the sweep with a lying medium:
// the Nth append-region write to the WAL persists only a prefix while
// reporting success. An acknowledged commit may then genuinely be
// gone, but never silently: every crash image must either recover to a
// Check-clean database at some committed row count, or refuse/degrade
// with a typed corruption error. A pictorial relation of four stores
// takes the same rows in the same commits, so a clean image holds as
// many of its rows, with storeRowsRecovered's invariants.
func TestWALCrashPointsTornAppends(t *testing.T) {
	for _, tornAt := range []int{1, 2, 3, 4, 5, 7, 8, 12} {
		tornAt := tornAt
		t.Run(fmt.Sprintf("tornAppend=%d", tornAt), func(t *testing.T) {
			pair := pager.NewCrashPair()
			fb := pager.NewFaultBackend(pair.WAL(), pager.FaultConfig{TornAppend: tornAt})
			db, err := openPairDB(pair.Main(), fb, 64)
			if err != nil {
				if !pictdb.IsCorruption(err) {
					t.Fatalf("open failed untyped: %v", err)
				}
				return
			}
			rel, err := db.CreateRelation("pts", pictdb.MustSchema("name:string", "n:int"))
			if err != nil {
				t.Fatal(err)
			}
			insertStoreRow := createStoreRelation(t, db, 4)
			committed := map[int]bool{0: true}
			n := 0
		workload:
			for round := 0; round < 5; round++ {
				for i := 0; i < 10; i++ {
					_, err := rel.Insert(pictdb.Tuple{pictdb.S(fmt.Sprintf("p%d", n)), pictdb.I(int64(n))})
					if err == nil {
						err = insertStoreRow(n)
					}
					if err != nil {
						// A torn record read back mid-run surfaces as typed
						// corruption; the workload stops there.
						if !pictdb.IsCorruption(err) {
							t.Fatalf("insert failed untyped: %v", err)
						}
						break workload
					}
					n++
				}
				// Checkpoint's two halves apart: a commit acknowledged before
				// the WAL checkpoint reads back a torn record is a committed
				// state.
				if err := db.Commit(); err != nil {
					if !pictdb.IsCorruption(err) {
						t.Fatalf("commit failed untyped: %v", err)
					}
					break workload
				}
				committed[n] = true
				if err := db.CheckpointWAL(); err != nil {
					if !pictdb.IsCorruption(err) {
						t.Fatalf("checkpoint failed untyped: %v", err)
					}
					break workload
				}
			}
			_ = db.Close() // may fail over the damaged log; the images matter

			for i, img := range pair.Images() {
				db2, err := openPairDB(pager.NewMemBackend(img.Main), pager.NewMemBackend(img.WAL), 64)
				if err != nil {
					if !pictdb.IsCorruption(err) {
						t.Fatalf("image %d: recovery failed untyped: %v", i, err)
					}
					continue // refused, typed: detected
				}
				report := db2.Check()
				if !report.OK() {
					if !pictdb.IsCorruption(report.Err()) {
						t.Fatalf("image %d: degraded untyped: %v", i, report.Err())
					}
					db2.Close()
					continue // degraded, typed: detected
				}
				rows := 0
				if rel2, ok := db2.Relation("pts"); ok {
					rows = rel2.Len()
				}
				if !committed[rows] {
					t.Fatalf("image %d: clean with %d rows, not a committed state %v — silent damage", i, rows, committed)
				}
				if got := storeRowsRecovered(t, i, db2, 0, int64(n)); got != rows {
					t.Fatalf("image %d: the four-store relation recovered %d rows beside %d committed with them", i, got, rows)
				}
				db2.Close()
			}
		})
	}
}

// createStoreRelation defines picture "map" and relation spts(name, n,
// loc) of the given number of stores with the picture attached, and
// returns an insert of row n: a point of a fixed uniform set, placed by
// its Hilbert key.
func createStoreRelation(t *testing.T, db *pictdb.Database, stores int) func(n int) error {
	t.Helper()
	pic, err := db.CreatePicture("map", workload.Frame)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := db.CreateShardedRelation("spts", pictdb.MustSchema("name:string", "n:int", "loc:loc"), stores)
	if err != nil {
		t.Fatal(err)
	}
	if err := rel.AttachPicture(pic, pictdb.PackOptions{Method: pictdb.PackHilbert}); err != nil {
		t.Fatal(err)
	}
	pts := workload.UniformPoints(200, 13)
	return func(n int) error {
		name := fmt.Sprintf("s%d", n)
		_, err := rel.Insert(pictdb.Tuple{pictdb.S(name), pictdb.I(int64(n)), pictdb.L("map", pic.AddPoint(name, pts[n]))})
		return err
	}
}

// storeRowsRecovered holds relation spts (createStoreRelation) of crash
// image i, recovered as db, to the crash invariants and returns its row
// count: every recovered row carries its picture object, no row is
// recovered twice or was never inserted (n < inserted), and each of the
// first acked rows is present and answers a window over the frame.
func storeRowsRecovered(t *testing.T, i int, db *pictdb.Database, acked, inserted int64) int {
	t.Helper()
	rel, ok := db.Relation("spts")
	if !ok {
		if acked > 0 {
			t.Fatalf("image %d: relation spts lost with %d rows acknowledged", i, acked)
		}
		return 0
	}
	pic, _ := db.Picture("map")
	seen := make(map[int64]bool)
	err := rel.Scan(func(_ storage.TupleID, tup pictdb.Tuple) bool {
		v := tup[1].Int
		if seen[v] || v < 0 || v >= inserted {
			t.Fatalf("image %d: spts row %d recovered twice or never inserted", i, v)
		}
		seen[v] = true
		if _, live := pic.Get(tup[2].Loc.Object); !live {
			t.Fatalf("image %d: spts row %d recovered without its picture object", i, v)
		}
		return true
	})
	if err != nil {
		t.Fatalf("image %d: scan spts: %v", i, err)
	}
	answered := windowAnswers(t, db, `select n from spts on map at loc covered-by {500±500, 500±500}`)
	for v := int64(0); v < acked; v++ {
		if !seen[v] || !answered[v] {
			t.Fatalf("image %d: acknowledged spts row %d recovered %v, answers the frame %v", i, v, seen[v], answered[v])
		}
	}
	return len(seen)
}

// windowAnswers runs a statement whose first column is an int and
// returns the values it answered.
func windowAnswers(t *testing.T, db *pictdb.Database, src string) map[int64]bool {
	t.Helper()
	res, err := db.Query(src)
	if err != nil {
		t.Fatal(err)
	}
	answered := make(map[int64]bool)
	for _, row := range res.Rows {
		answered[row[0].Int] = true
	}
	return answered
}

// pictorialWrites defines picture "plan" and relation pts(name, n, loc)
// with the picture attached, and inserts rows p0…p(n-1) at
// (10+15i, 50), each in a Write of its own — no Checkpoint anywhere. It
// returns the relation, the picture and the rows' ids.
func pictorialWrites(t *testing.T, db *pictdb.Database, n int) (*pictdb.Relation, *pictdb.Picture, []storage.TupleID) {
	t.Helper()
	pic, err := db.CreatePicture("plan", pictdb.R(0, 0, 100, 100))
	if err != nil {
		t.Fatal(err)
	}
	rel, err := db.CreateRelation("pts", pictdb.MustSchema("name:string", "n:int", "loc:loc"))
	if err != nil {
		t.Fatal(err)
	}
	if err := rel.AttachPicture(pic, pictdb.PackOptions{Method: pictdb.PackHilbert}); err != nil {
		t.Fatal(err)
	}
	ids := make([]storage.TupleID, n)
	for i := range ids {
		err := db.Write(func() (err error) {
			name := fmt.Sprintf("p%d", i)
			oid := pic.AddPoint(name, pictdb.Pt(float64(10+15*i), 50))
			ids[i], err = rel.Insert(pictdb.Tuple{pictdb.S(name), pictdb.I(int64(i)), pictdb.L("plan", oid)})
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return rel, pic, ids
}

// TestWALCrashPictorialWritesKeepGeometry: a durable Write commits a
// pictorial tuple with the object its loc names inside the record, and
// the picture and relation definitions with it. A crash after five
// acknowledged Writes, with no Checkpoint ever taken, recovers five
// rows that answer a window over the frame, their objects back in the
// picture, and a clean Check.
func TestWALCrashPictorialWritesKeepGeometry(t *testing.T) {
	pair := pager.NewCrashPair()
	db, err := openPairDB(pair.Main(), pair.WAL(), 64)
	if err != nil {
		t.Fatal(err)
	}
	pictorialWrites(t, db, 5)
	// The crash: the last image is what the medium held when the fifth
	// write was acknowledged.
	images := pair.Images()
	img := images[len(images)-1]
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := openPairDB(pager.NewMemBackend(img.Main), pager.NewMemBackend(img.WAL), 64)
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer db2.Close()
	rel2, ok := db2.Relation("pts")
	if !ok || rel2.Len() != 5 {
		t.Fatalf("recovered relation %v, want the 5 acknowledged rows", ok)
	}
	if got := windowAnswers(t, db2, `select n from pts on plan at loc covered-by {50±50, 50±50}`); len(got) != 5 {
		t.Fatalf("%d spatial answers, want 5", len(got))
	}
	pic2, _ := db2.Picture("plan")
	if pic2.Len() != 5 {
		t.Fatalf("picture holds %d objects, want the 5 the rows carry", pic2.Len())
	}
	if report := db2.Check(); !report.OK() {
		t.Fatalf("Check: %v", report.Err())
	}
}

// TestWALCrashUnacknowledgedDeleteUndone is the mirror case: a Write
// that deletes a pictorial tuple is undone by a crash before its commit.
// The tuple comes back with its geometry: it answers a window over the
// frame, its object is in the picture, and Check is clean.
func TestWALCrashUnacknowledgedDeleteUndone(t *testing.T) {
	pair := pager.NewCrashPair()
	db, err := openPairDB(pair.Main(), pair.WAL(), 64)
	if err != nil {
		t.Fatal(err)
	}
	rel, _, ids := pictorialWrites(t, db, 5)
	acked := len(pair.Images())
	victim, err := rel.Get(ids[2])
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Write(func() error { return rel.Delete(ids[2]) }); err != nil {
		t.Fatal(err)
	}
	images := pair.Images()
	if len(images) == acked {
		t.Fatal("the delete's commit captured no image")
	}
	// The crash: the medium as it was when the fifth insert was
	// acknowledged — the delete's commit never reached it.
	img := images[acked-1]
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := openPairDB(pager.NewMemBackend(img.Main), pager.NewMemBackend(img.WAL), 64)
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer db2.Close()
	if rel2, ok := db2.Relation("pts"); !ok || rel2.Len() != 5 {
		t.Fatalf("recovered relation %v, want it with 5 rows", ok)
	}
	if got := windowAnswers(t, db2, `select n from pts on plan at loc covered-by {50±50, 50±50}`); !got[2] || len(got) != 5 {
		t.Fatalf("spatial answers %v, want all 5 with the undeleted row 2", got)
	}
	pic2, _ := db2.Picture("plan")
	if obj, ok := pic2.Get(victim[2].Loc.Object); !ok || obj.Point != pictdb.Pt(40, 50) {
		t.Fatalf("the undeleted row's object = %+v, %v; want the point at (40, 50)", obj, ok)
	}
	if report := db2.Check(); !report.OK() {
		t.Fatalf("Check: %v", report.Err())
	}
}

// TestWALCrashDefinitionAfterCheckpoint: a definition is committed with
// the writes that need it. A relation created after the last Checkpoint
// and written with five acknowledged Writes survives a crash after the
// fifth, with its five rows and a clean Check.
func TestWALCrashDefinitionAfterCheckpoint(t *testing.T) {
	pair := pager.NewCrashPair()
	db, err := openPairDB(pair.Main(), pair.WAL(), 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	rel, err := db.CreateRelation("late", pictdb.MustSchema("name:string", "n:int"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		err := db.Write(func() error {
			_, err := rel.Insert(pictdb.Tuple{pictdb.S(fmt.Sprintf("p%d", i)), pictdb.I(int64(i))})
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// The crash: the last image is what the medium held when the fifth
	// write was acknowledged.
	images := pair.Images()
	img := images[len(images)-1]
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := openPairDB(pager.NewMemBackend(img.Main), pager.NewMemBackend(img.WAL), 64)
	if err != nil {
		t.Fatalf("recovery from image %d of %d failed: %v", len(images)-1, len(images), err)
	}
	defer db2.Close()
	rel2, ok := db2.Relation("late")
	if !ok || rel2.Len() != 5 {
		t.Fatalf("crash image holds relation %q: %v; want it with its 5 acknowledged rows", "late", ok)
	}
	if report := db2.Check(); !report.OK() {
		t.Fatalf("Check: %v", report.Err())
	}
}

// syncSwitch is a backend whose Sync fails with pager.ErrInjected while
// failing is set.
type syncSwitch struct {
	pager.Backend
	failing atomic.Bool
}

func (s *syncSwitch) Sync() error {
	if s.failing.Load() {
		return fmt.Errorf("sync: %w", pager.ErrInjected)
	}
	return s.Backend.Sync()
}

// TestWALWriteFailedSyncIsFailStop: a Write whose WAL fsync fails
// returns the error, and the database takes no write after it, even
// once the medium works again: its pages are already marked clean, so
// a later commit would acknowledge them without making them durable.
// Reopening holds every acknowledged row, whether or not the medium
// kept the failed batch.
func TestWALWriteFailedSyncIsFailStop(t *testing.T) {
	main, walMem := pager.NewMemBackend(nil), pager.NewMemBackend(nil)
	wal := &syncSwitch{Backend: walMem}
	db, err := openPairDB(main, wal, 64)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := db.CreateRelation("pts", pictdb.MustSchema("name:string", "n:int"))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	insert := func(n int) error {
		return db.Write(func() error {
			_, err := rel.Insert(pictdb.Tuple{pictdb.S(fmt.Sprintf("p%d", n)), pictdb.I(int64(n))})
			return err
		})
	}
	const acked = 5
	for n := 0; n < acked; n++ {
		if err := insert(n); err != nil {
			t.Fatal(err)
		}
	}
	ackedWAL := walMem.Bytes()
	wal.failing.Store(true)
	if err := insert(acked); !errors.Is(err, pager.ErrInjected) {
		t.Fatalf("Write over a failing fsync = %v, want ErrInjected", err)
	}
	wal.failing.Store(false)
	if err := insert(acked + 1); !errors.Is(err, pager.ErrReadOnly) {
		t.Fatalf("Write after a failed fsync = %v, want ErrReadOnly", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close after a failed fsync: %v", err)
	}

	for _, tc := range []struct {
		name    string
		wal     []byte
		maxRows int
	}{
		{"failed batch kept", walMem.Bytes(), acked + 1},
		{"failed batch lost", ackedWAL, acked},
	} {
		db2, err := openPairDB(pager.NewMemBackend(main.Bytes()), pager.NewMemBackend(tc.wal), 64)
		if err != nil {
			t.Fatalf("%s: reopen: %v", tc.name, err)
		}
		rel2, _ := db2.Relation("pts")
		if rows := rel2.Len(); rows < acked || rows > tc.maxRows {
			t.Errorf("%s: reopened with %d rows, want the %d acknowledged (at most %d)", tc.name, rows, acked, tc.maxRows)
		}
		if report := db2.Check(); !report.OK() {
			t.Errorf("%s: reopened file not clean: %v", tc.name, report.Err())
		}
		if err := db2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestShardedWALFailedSyncStopsTheDatabase: a failed fsync of the log
// under a Write into a relation of two stores is fail-stop for the whole
// database. The Write whose commit it fails returns the error; from then
// on ReadOnly reports true, and a Write, a Checkpoint and a definition
// are refused before they run anything — a Write's fn would otherwise
// put its row in memory and in the index of a store whose commits are
// refused.
func TestShardedWALFailedSyncStopsTheDatabase(t *testing.T) {
	wal := &syncSwitch{Backend: pager.NewMemBackend(nil)}
	db, err := openPairDB(pager.NewMemBackend(nil), wal, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rel, err := db.CreateShardedRelation("pts", pictdb.MustSchema("name:string", "n:int"), 2)
	if err != nil {
		t.Fatal(err)
	}
	insert := func(n int) func() error {
		return func() error {
			_, err := rel.Insert(pictdb.Tuple{pictdb.S(fmt.Sprintf("p%d", n)), pictdb.I(int64(n))})
			return err
		}
	}
	wal.failing.Store(true)
	if err := db.Write(insert(0)); !errors.Is(err, pager.ErrInjected) {
		t.Fatalf("Write over a failing fsync = %v, want ErrInjected", err)
	}
	wal.failing.Store(false)
	if !db.ReadOnly() {
		t.Fatal("ReadOnly is false after the log's fsync failed")
	}
	ran := false
	err = db.Write(func() error { ran = true; return insert(1)() })
	if !errors.Is(err, pager.ErrReadOnly) || ran {
		t.Fatalf("Write after the failed fsync = %v (fn ran: %v), want ErrReadOnly before fn", err, ran)
	}
	if err := db.Checkpoint(); !errors.Is(err, pager.ErrReadOnly) {
		t.Fatalf("Checkpoint after the failed fsync = %v, want ErrReadOnly", err)
	}
	if _, err := db.CreateRelation("more", pictdb.MustSchema("a:int")); !errors.Is(err, pager.ErrReadOnly) {
		t.Fatalf("CreateRelation after the failed fsync = %v, want ErrReadOnly", err)
	}
	if got := rel.Len(); got != 1 {
		t.Fatalf("relation holds %d rows, want only the failed Write's 1", got)
	}
}

// TestWALSnapshotPSQLStress runs N concurrent Write transactions — WAL
// group commits — beside concurrent db.Query readers (run under -race
// by make walfaults). Writers insert rows stamped with a serialized
// sequence number; every live result must hold EXACTLY the first K
// inserts for some K, never a torn or interleaved subset: a heap only
// grows at its tail and a scan reads each page under the store's lock,
// so a scan that saw insert k saw every insert before it (DESIGN.md
// §15). The name is the one the test floor lists; the reads have been
// live ones since snapshot reads were removed.
func TestWALSnapshotPSQLStress(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stress.db")
	db, err := pictdb.Open(path, 256)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rel, err := db.CreateRelation("events", pictdb.MustSchema("seq:int", "writer:int", "pad:string"))
	if err != nil {
		t.Fatal(err)
	}
	// Wide rows, so the heap chains pages while the readers scan it.
	pad := pictdb.S(strings.Repeat("x", 300))

	const writers = 4
	const perWriter = 25
	const readers = 3
	var seq int64 // guarded by Write's serialization
	var wg sync.WaitGroup
	errCh := make(chan error, writers+readers)

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				err := db.Write(func() error {
					seq++
					_, err := rel.Insert(pictdb.Tuple{pictdb.I(seq), pictdb.I(int64(w)), pad})
					return err
				})
				if err != nil {
					errCh <- fmt.Errorf("writer %d: %w", w, err)
					return
				}
			}
		}(w)
	}

	var reads atomic.Int64
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	var rg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rg.Add(1)
		go func(r int) {
			defer rg.Done()
			// Each reader completes at least one read, so a scheduler
			// that runs every writer first (GOMAXPROCS 1) still leaves
			// the stress something to check.
			for first := true; ; first = false {
				if !first {
					select {
					case <-done:
						return
					default:
					}
				}
				res, err := db.Query(`select seq from events`)
				if err != nil {
					errCh <- fmt.Errorf("reader %d: %w", r, err)
					return
				}
				vals := make([]int64, 0, len(res.Rows))
				for _, row := range res.Rows {
					vals = append(vals, row[0].Int)
				}
				sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
				for k, v := range vals {
					if v != int64(k+1) {
						errCh <- fmt.Errorf("reader %d: read %v — not the exact prefix 1..%d of the commit order", r, vals, len(vals))
						return
					}
				}
				reads.Add(1)
			}
		}(r)
	}
	wg.Wait()
	rg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if reads.Load() == 0 {
		t.Fatal("no reads completed; the stress proved nothing")
	}

	// Quiesced: all rows present exactly once.
	res, err := db.Query(`select seq from events`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != writers*perWriter {
		t.Fatalf("final read has %d rows, want %d", len(res.Rows), writers*perWriter)
	}
	t.Logf("%d live reads verified against %d serialized commits", reads.Load(), writers*perWriter)
}
