package pictdb_test

import (
	"fmt"
	"sort"
	"testing"

	pictdb "repro"
	"repro/internal/pager"
	"repro/internal/storage"
)

// spatialCrashWorkload drives a spatially indexed relation through
// insert/delete bursts sized to keep background repacks in flight
// (delta threshold 32, bursts of ~100), checkpointing after each burst.
// It returns the tuple counts a recovered image may legitimately show:
// every successfully checkpointed state, plus every state a checkpoint
// or close *attempted* — under fault injection a barrier that errors
// may still have landed (fail-stop leaves it indeterminate), and a
// successful Close persists heap pages of the tail state.
func spatialCrashWorkload(t *testing.T, db *pictdb.Database) map[int]bool {
	t.Helper()
	pic, err := db.CreatePicture("map", pictdb.R(0, 0, 1000, 1000))
	if err != nil {
		t.Fatal(err)
	}
	rel, err := db.CreateRelation("cities", pictdb.MustSchema("name:string", "loc:loc"))
	if err != nil {
		t.Fatal(err)
	}
	allowed := map[int]bool{}
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
	bail := func() map[int]bool {
		// The tail state may still reach disk through Close.
		allowed[rel.Len()] = true
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
	allowed[rel.Len()] = true // attempted
	if err := db.Checkpoint(); err != nil {
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
		allowed[rel.Len()] = true // attempted
		if err := db.Checkpoint(); err != nil {
			return allowed
		}
	}
	return allowed
}

// verifySpatialRecovery opens a crash image and, when it verifies
// clean, requires the rebuilt spatial index to agree exactly with the
// committed heap: a full-window direct search returns every live tuple
// in canonical order — the recovered root is the old or the new tree,
// never a torn one. Returns the recovery outcome.
func verifySpatialRecovery(t *testing.T, img []byte, committed map[int]bool, label string) (clean, degraded, refused bool) {
	t.Helper()
	p, err := pager.OpenBackend(pager.NewMemBackend(img), 128)
	if err != nil {
		if !pictdb.IsCorruption(err) {
			t.Fatalf("%s: pager open failed untyped: %v", label, err)
		}
		return false, false, true
	}
	db, err := pictdb.OpenWithPager(p)
	if err != nil {
		if !pictdb.IsCorruption(err) {
			t.Fatalf("%s: open failed untyped: %v", label, err)
		}
		return false, false, true
	}
	defer db.Close()
	report := db.Check()
	if !report.OK() {
		if !pictdb.IsCorruption(report.Err()) {
			t.Fatalf("%s: report error not typed: %v", label, report.Err())
		}
		return false, true, false
	}
	rel, ok := db.Relation("cities")
	if !ok {
		// Crash before the first catalog checkpoint: an empty database
		// is the committed state 0.
		return true, false, false
	}
	if len(committed) > 0 && !committed[rel.Len()] {
		t.Fatalf("%s: clean open with %d tuples, not a committed state %v", label, rel.Len(), committed)
	}
	if rel.Spatial("map") == nil {
		// Committed before AttachPicture was checkpointed.
		return true, false, false
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
	return true, false, false
}

// TestCrashMidRepackRecovers captures the byte image at every sync
// while background repacks churn against the ingest workload, and
// reopens each image. A crash mid-repack must recover to a consistent
// index — the one rebuilt from the committed heap — never a torn tree.
func TestCrashMidRepackRecovers(t *testing.T) {
	snap := pager.NewSnapshotBackend()
	p, err := pager.OpenBackend(snap, 128)
	if err != nil {
		t.Fatal(err)
	}
	db, err := pictdb.OpenWithPager(p)
	if err != nil {
		t.Fatal(err)
	}
	committed := spatialCrashWorkload(t, db)
	if len(committed) < 3 {
		t.Fatalf("workload committed only %d states", len(committed))
	}
	rel, _ := db.Relation("cities")
	rel.WaitRepacks()
	if rel.Spatial("map").Repacks() == 0 {
		t.Fatal("workload triggered no background repacks; crash points miss the repack window")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	var clean, degraded, refused int
	for i, img := range snap.Snapshots() {
		c, d, r := verifySpatialRecovery(t, img, committed, fmt.Sprintf("snapshot %d", i))
		if c {
			clean++
		}
		if d {
			degraded++
		}
		if r {
			refused++
		}
	}
	if clean == 0 {
		t.Fatal("no snapshot recovered clean")
	}
	t.Logf("spatial crash points: %d clean, %d degraded, %d refused", clean, degraded, refused)
}

// TestFaultMidRepackCommit injects write failures at a sweep of
// ordinals across the same repack-heavy workload, then reopens the
// surviving byte image: every outcome must be clean-with-committed-
// state, degraded-with-typed-report, or refused-with-typed-error, and
// clean opens must pass the index/heap agreement check.
func TestFaultMidRepackCommit(t *testing.T) {
	// Dry run to size the ordinal sweep.
	probe := pager.NewFaultBackend(pager.NewMemBackend(nil), pager.FaultConfig{})
	p, err := pager.OpenBackend(probe, 128)
	if err != nil {
		t.Fatal(err)
	}
	db, err := pictdb.OpenWithPager(p)
	if err != nil {
		t.Fatal(err)
	}
	spatialCrashWorkload(t, db)
	db.Close()
	_, writes, _ := probe.Ops()
	if writes < 20 {
		t.Fatalf("dry run performed only %d writes", writes)
	}
	step := writes / 12
	if step == 0 {
		step = 1
	}
	for k := 1; k <= writes; k += step {
		mem := pager.NewMemBackend(nil)
		fb := pager.NewFaultBackend(mem, pager.FaultConfig{FailWrite: k})
		p, err := pager.OpenBackend(fb, 128)
		if err != nil {
			continue // injected before the file header existed
		}
		db, err := pictdb.OpenWithPager(p)
		if err != nil {
			p.Close()
			continue
		}
		committed := spatialCrashWorkload(t, db)
		db.Close() // may fail; the image below is what a crash leaves
		verifySpatialRecovery(t, mem.Bytes(), committed, fmt.Sprintf("fail-write %d", k))
	}
}
