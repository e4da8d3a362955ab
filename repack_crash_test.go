package pictdb_test

import (
	"fmt"
	"sort"
	"sync/atomic"
	"testing"

	pictdb "repro"
	"repro/internal/pager"
	"repro/internal/storage"
)

// spatialCrashWorkload drives a spatially indexed relation through
// insert/delete bursts sized to keep background repacks in flight
// (delta threshold 32, bursts of ~100), checkpointing after each burst
// and storing the tuple count of each acknowledged checkpoint in acked.
// It returns the tuple counts a recovered image may legitimately show:
// none (a crash before the first commit), every state a checkpoint
// attempted — under fault injection a checkpoint that errors may still
// have committed — and the state the workload stopped in, which Close
// commits.
func spatialCrashWorkload(t *testing.T, db *pictdb.Database, acked *atomic.Int64) map[int]bool {
	t.Helper()
	pic, err := db.CreatePicture("map", pictdb.R(0, 0, 1000, 1000))
	if err != nil {
		t.Fatal(err)
	}
	rel, err := db.CreateRelation("cities", pictdb.MustSchema("name:string", "loc:loc"))
	if err != nil {
		t.Fatal(err)
	}
	allowed := map[int]bool{0: true}
	n := 0
	var ids []storage.TupleID
	add := func() error {
		oid := pic.AddPoint(fmt.Sprintf("c%d", n), pictdb.Pt(float64(n%997), float64((n*37)%991)))
		id, err := rel.Insert(pictdb.Tuple{pictdb.S(fmt.Sprintf("c%d", n)), pictdb.L("map", oid)})
		if err != nil {
			return err
		}
		ids = append(ids, id)
		n++
		return nil
	}
	checkpoint := func() error {
		allowed[rel.Len()] = true // attempted
		if err := db.Checkpoint(); err != nil {
			return err
		}
		acked.Store(int64(rel.Len()))
		return nil
	}
	bail := func() map[int]bool {
		allowed[rel.Len()] = true // the tail state, which Close commits
		return allowed
	}
	for i := 0; i < 150; i++ {
		if err := add(); err != nil {
			return bail()
		}
	}
	if err := rel.AttachPicture(pic, pictdb.PackOptions{Method: pictdb.PackHilbert}); err != nil {
		t.Fatal(err)
	}
	// Small threshold: every burst below crosses it several times, so
	// checkpoints run with repacks in flight or freshly swapped.
	rel.Spatial("map").SetDeltaThreshold(32)
	if err := checkpoint(); err != nil {
		return allowed
	}
	for round := 0; round < 3; round++ {
		for i := 0; i < 100; i++ {
			if err := add(); err != nil {
				return bail()
			}
		}
		// A few deletes so tombstones cross repacks too.
		for i := 0; i < 10 && len(ids) > 0; i++ {
			id := ids[0]
			ids = ids[1:]
			if err := rel.Delete(id); err != nil {
				return bail()
			}
		}
		if err := checkpoint(); err != nil {
			return allowed
		}
	}
	return allowed
}

// spatialRun is what one spatialCrashWorkload over a CrashPair left.
type spatialRun struct {
	pair    *pager.CrashPair
	fault   *pager.FaultBackend // the faulted half, nil without faults
	allowed map[int]bool
	ackedAt map[int]int64 // tuples acknowledged when image i was taken
	repacks int
}

// spatialCrashRun opens a database over a CrashPair, with one write of
// the page file (or, onWAL, of the log) failing as cfg says when cfg is
// not nil, runs spatialCrashWorkload on it and closes it. ok is false
// when the open itself failed.
func spatialCrashRun(t *testing.T, cfg *pager.FaultConfig, onWAL bool) (run spatialRun, ok bool) {
	t.Helper()
	run.pair = pager.NewCrashPair()
	var acked atomic.Int64
	run.ackedAt = make(map[int]int64)
	run.pair.OnSync = func(i int, _ pager.CrashImage) { run.ackedAt[i] = acked.Load() } // serialized by the pair
	main, wal := run.pair.Main(), run.pair.WAL()
	switch {
	case cfg == nil:
	case onWAL:
		run.fault = pager.NewFaultBackend(wal, *cfg)
		wal = run.fault
	default:
		run.fault = pager.NewFaultBackend(main, *cfg)
		main = run.fault
	}
	db, err := openPairDB(main, wal, 128)
	if err != nil {
		return run, false
	}
	run.allowed = spatialCrashWorkload(t, db, &acked)
	db.WaitRepacks()
	if rel, ok := db.Relation("cities"); ok && rel.Spatial("map") != nil {
		run.repacks = rel.Spatial("map").Repacks()
	}
	db.Close() // may fail under injected faults; the images are what a crash leaves
	return run, true
}

// verifySpatialRecovery recovers one crash image and requires a clean
// Check at an allowed tuple count no smaller than floor, the count
// acknowledged when the image was taken, and a rebuilt spatial index
// that agrees exactly with the committed heap: a full-window direct
// search returns every live tuple in canonical order — the recovered
// root is the old or the new tree, never a torn one.
func verifySpatialRecovery(t *testing.T, img pager.CrashImage, allowed map[int]bool, floor int64, label string) {
	t.Helper()
	db, err := openPairDB(pager.NewMemBackend(img.Main), pager.NewMemBackend(img.WAL), 128)
	if err != nil {
		t.Fatalf("%s: recovery failed: %v", label, err)
	}
	defer db.Close()
	if report := db.Check(); !report.OK() {
		t.Fatalf("%s: not Check-clean after recovery: %v", label, report.Err())
	}
	rel, ok := db.Relation("cities")
	rows := 0
	if ok {
		rows = rel.Len()
	}
	if !allowed[rows] {
		t.Fatalf("%s: recovered %d tuples, not a committed state %v", label, rows, allowed)
	}
	if int64(rows) < floor {
		t.Fatalf("%s: recovered %d tuples < %d acknowledged — acked commit lost", label, rows, floor)
	}
	if !ok || rel.Spatial("map") == nil {
		return
	}
	gotIDs, _, err := rel.SearchArea("map", pictdb.R(0, 0, 1000, 1000), func(obj, win pictdb.Rect) bool { return true })
	if err != nil {
		t.Fatalf("%s: search on recovered index: %v", label, err)
	}
	var wantIDs []storage.TupleID
	if err := rel.Scan(func(id storage.TupleID, _ pictdb.Tuple) bool {
		wantIDs = append(wantIDs, id)
		return true
	}); err != nil {
		t.Fatalf("%s: scan: %v", label, err)
	}
	// Heap chain order can deviate from (page, slot) order once freed
	// catalog pages are reused; the index contract is canonical id
	// order, so sort the oracle the same way.
	sort.Slice(wantIDs, func(i, j int) bool {
		if wantIDs[i].Page != wantIDs[j].Page {
			return wantIDs[i].Page < wantIDs[j].Page
		}
		return wantIDs[i].Slot < wantIDs[j].Slot
	})
	if len(gotIDs) != len(wantIDs) {
		t.Fatalf("%s: recovered index has %d entries, heap %d", label, len(gotIDs), len(wantIDs))
	}
	for i := range gotIDs {
		if gotIDs[i] != wantIDs[i] {
			t.Fatalf("%s: recovered index order diverges at %d: %v vs %v", label, i, gotIDs[i], wantIDs[i])
		}
	}
}

// TestCrashMidRepackRecovers captures the page file and its log at
// every sync while background repacks churn against the ingest
// workload, and recovers each capture. A crash mid-repack must recover
// Check-clean at a committed state with no acknowledged checkpoint lost,
// and with the index rebuilt from the committed heap — never a torn tree.
func TestCrashMidRepackRecovers(t *testing.T) {
	run, ok := spatialCrashRun(t, nil, false)
	if !ok {
		t.Fatal("open over a fault-free pair failed")
	}
	if len(run.allowed) < 4 {
		t.Fatalf("workload committed only %d states", len(run.allowed))
	}
	if run.repacks == 0 {
		t.Fatal("workload triggered no background repacks; crash points miss the repack window")
	}
	images := run.pair.Images()
	for i, img := range images {
		verifySpatialRecovery(t, img, run.allowed, run.ackedAt[i], fmt.Sprintf("image %d", i))
	}
	t.Logf("recovered %d crash images clean", len(images))
}

// TestFaultMidRepackCommit fails one write at a sweep of ordinals, on
// the page file and on the log in turn, across the same repack-heavy
// workload, and recovers every capture of each run: each must be
// Check-clean at a committed state with no acknowledged checkpoint
// lost, and its index must agree with its heap.
func TestFaultMidRepackCommit(t *testing.T) {
	for _, onWAL := range []bool{false, true} {
		t.Run(map[bool]string{false: "main", true: "wal"}[onWAL], func(t *testing.T) {
			// Dry run to size the ordinal sweep.
			dry, ok := spatialCrashRun(t, &pager.FaultConfig{}, onWAL)
			if !ok {
				t.Fatal("fault-free dry run failed to open")
			}
			_, writes, _ := dry.fault.Ops()
			if writes < 8 {
				t.Fatalf("dry run performed only %d writes", writes)
			}
			step := max(writes/12, 1)
			images := 0
			for k := 1; k <= writes; k += step {
				run, ok := spatialCrashRun(t, &pager.FaultConfig{FailWrite: k}, onWAL)
				if !ok {
					continue // injected before the store was usable
				}
				for i, img := range run.pair.Images() {
					verifySpatialRecovery(t, img, run.allowed, run.ackedAt[i], fmt.Sprintf("fail-write %d, image %d", k, i))
					images++
				}
			}
			t.Logf("%d writes swept in steps of %d: %d crash images recovered clean", writes, step, images)
		})
	}
}
