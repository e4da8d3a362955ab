package pictdb_test

import (
	"fmt"
	"sync/atomic"
	"testing"

	pictdb "repro"
	"repro/internal/pager"
)

// Crash coverage for a relation of several stores. Every store's heap
// lives in the page file, so a Write that touches every store commits
// as one record of the one log: no crash image holds the Write on some
// stores and not on others. Both sweeps run durable Writes, whose rows
// are spread over the stores by Hilbert placement, over a CrashPair.

// TestShardedCrashPointsWithRecovery sweeps every crash image of a
// pictorial workload on a relation of three stores, one 25-row Write
// per round, with a Checkpoint after round 1 and a WAL checkpoint after
// round 2. From every image: recovery succeeds and Check is clean; the
// recovered row count is a committed one (a Write is whole on every
// store or on none); and storeRowsRecovered's invariants hold — every
// recovered row carries its picture object, no row is recovered twice
// or was never inserted, and every acknowledged row is present and
// answers a window over the frame.
func TestShardedCrashPointsWithRecovery(t *testing.T) {
	const stores = 3
	pair := pager.NewCrashPair()
	var ackedRows atomic.Int64
	ackedAt := make(map[int]int64)
	pair.OnSync = func(i int, _ pager.CrashImage) {
		ackedAt[i] = ackedRows.Load() // OnSync is serialized by the pair
	}

	db, err := openPairDB(pair.Main(), pair.WAL(), 64)
	if err != nil {
		t.Fatal(err)
	}
	insertStoreRow := createStoreRelation(t, db, stores)
	committed := map[int]bool{0: true}
	n := 0
	for round := 0; round < 4; round++ {
		if err := db.Write(func() error {
			for i := 0; i < 25; i++ {
				if err := insertStoreRow(n + i); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		n += 25
		committed[n] = true
		ackedRows.Store(int64(n))
		switch round {
		case 1:
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		case 2:
			if err := db.CheckpointWAL(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	images := pair.Images()
	if len(images) < 4 {
		t.Fatalf("only %d crash images captured", len(images))
	}
	for i, img := range images {
		db2, err := openPairDB(pager.NewMemBackend(img.Main), pager.NewMemBackend(img.WAL), 64)
		if err != nil {
			t.Fatalf("image %d: recovery failed: %v", i, err)
		}
		if report := db2.Check(); !report.OK() {
			t.Fatalf("image %d: not Check-clean after recovery: %v", i, report.Err())
		}
		rows := storeRowsRecovered(t, i, db2, ackedAt[i], int64(n))
		if !committed[rows] {
			t.Fatalf("image %d: recovered %d rows, not a committed state %v", i, rows, committed)
		}
		if err := db2.Close(); err != nil {
			t.Fatalf("image %d: close: %v", i, err)
		}
	}
	t.Logf("replayed %d crash images clean (%d stores)", len(images), stores)
}

// TestShardedCrashTornShardWAL repeats the sweep on a relation of two
// stores with a lying medium under the log: its Nth append-region write
// persists only a prefix while reporting success, and a WAL checkpoint
// after every Write writes the log back into the page file, where a
// torn frame must stop it before any page is written. The damage is never
// silent: every crash image either recovers Check-clean at a committed
// row count with storeRowsRecovered's invariants holding, or refuses or
// degrades with a typed corruption error.
func TestShardedCrashTornShardWAL(t *testing.T) {
	const stores = 2
	for _, tornAt := range []int{1, 2, 4, 7} {
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
			insertStoreRow := createStoreRelation(t, db, stores)
			committed := map[int]bool{0: true}
			n := 0
			for round := 0; round < 5; round++ {
				if err := db.Write(func() error {
					for i := 0; i < 10; i++ {
						if err := insertStoreRow(n + i); err != nil {
							return err
						}
					}
					return nil
				}); err != nil {
					// A torn record read back mid-run surfaces as typed
					// corruption; the workload stops there.
					if !pictdb.IsCorruption(err) {
						t.Fatalf("write failed untyped: %v", err)
					}
					break
				}
				n += 10
				committed[n] = true
				if err := db.CheckpointWAL(); err != nil {
					if !pictdb.IsCorruption(err) {
						t.Fatalf("checkpoint failed untyped: %v", err)
					}
					break
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
				if rows := storeRowsRecovered(t, i, db2, 0, int64(n)); !committed[rows] {
					t.Fatalf("image %d: clean with %d rows, not a committed state %v — silent damage", i, rows, committed)
				}
				db2.Close()
			}
		})
	}
}
