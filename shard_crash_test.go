package pictdb_test

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	pictdb "repro"
	"repro/internal/pager"
	"repro/internal/storage"
	"repro/internal/workload"
)

// Crash coverage for Hilbert-range sharding: a sharded commit fans out
// over independent per-shard WALs before the main file (which holds
// the catalog) commits. A CrashCluster captures a globally consistent
// byte image of every member file at every sync barrier — including
// the windows between two shards' commits — and each image must
// recover with every shard replayed independently, no acknowledged
// commit lost, and Database.Check clean.

// openClusterDB opens the full sharded database stack over one
// backend per member: member 0 is the main file, members i+1 the
// shards of the single sharded relation. walFault, when non-nil, wraps
// the given shard's WAL backend (fault injection on one shard's log).
func openClusterDB(t *testing.T, mains, wals []pager.Backend, pool int) (*pictdb.Database, error) {
	t.Helper()
	p, err := pager.OpenBackend(mains[0], pool)
	if err != nil {
		return nil, err
	}
	if err := p.EnableWALBackend(wals[0]); err != nil {
		p.Close()
		return nil, err
	}
	factory := func(rel string, shard int, mustExist bool) (*pager.Pager, error) {
		if shard+1 >= len(mains) {
			return nil, fmt.Errorf("no backend for relation %q shard %d", rel, shard)
		}
		sp, err := pager.OpenBackend(mains[shard+1], pool)
		if err != nil {
			return nil, err
		}
		if err := sp.EnableWALBackend(wals[shard+1]); err != nil {
			sp.Close()
			return nil, err
		}
		return sp, nil
	}
	return pictdb.OpenWithPagerShards(p, factory)
}

func clusterBackends(cluster *pager.CrashCluster) (mains, wals []pager.Backend) {
	for i := 0; i < cluster.Members(); i++ {
		mains = append(mains, cluster.Main(i))
		wals = append(wals, cluster.WAL(i))
	}
	return
}

func imageBackends(img pager.ClusterImage) (mains, wals []pager.Backend) {
	for _, m := range img.Members {
		mains = append(mains, pager.NewMemBackend(m.Main))
		wals = append(wals, pager.NewMemBackend(m.WAL))
	}
	return
}

// TestShardedCrashPointsWithRecovery sweeps every coordinated crash
// image of a sharded pictorial workload. Because shards commit
// independently, a crash mid-commit may persist the in-flight
// transaction on some shards and not others — that partial state is
// legal for un-acked rows. The invariants are: (1) recovery succeeds and
// Check is clean from every image, (2) every recovered row carries its
// picture object, and every acknowledged row is present and answers a
// window over the frame (no acked commit lost), (3) recovered rows are
// a duplicate-free subset of the rows ever inserted.
func TestShardedCrashPointsWithRecovery(t *testing.T) {
	const shards = 3
	cluster := pager.NewCrashCluster(1 + shards)
	var ackedRows atomic.Int64
	ackedAt := make(map[int]int64)
	cluster.OnSync = func(i int, _ pager.ClusterImage) {
		ackedAt[i] = ackedRows.Load() // OnSync is serialized by the cluster
	}

	mains, wals := clusterBackends(cluster)
	db, err := openClusterDB(t, mains, wals, 64)
	if err != nil {
		t.Fatal(err)
	}
	pic, err := db.CreatePicture("map", workload.Frame)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := db.CreateShardedRelation("pts", pictdb.MustSchema("name:string", "n:int", "loc:loc"), shards)
	if err != nil {
		t.Fatal(err)
	}
	if err := rel.AttachPicture(pic, pictdb.PackOptions{Method: pictdb.PackHilbert}); err != nil {
		t.Fatal(err)
	}
	pts := workload.UniformPoints(100, 13)
	n := 0
	for round := 0; round < 4; round++ {
		for i := 0; i < 25; i++ {
			name := fmt.Sprintf("p%d", n)
			oid := pic.AddPoint(name, pts[n])
			if _, err := rel.Insert(pictdb.Tuple{pictdb.S(name), pictdb.I(int64(n)), pictdb.L("map", oid)}); err != nil {
				t.Fatal(err)
			}
			n++
		}
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := db.Commit(); err != nil { // shards first, then main
			t.Fatal(err)
		}
		ackedRows.Store(int64(n))
		if round == 2 {
			// Exercise recovery across per-shard WAL checkpoint
			// boundaries too.
			if err := db.CheckpointWAL(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	images := cluster.Images()
	if len(images) < 3*shards {
		t.Fatalf("only %d crash images captured", len(images))
	}
	for i, img := range images {
		mains, wals := imageBackends(img)
		db2, err := openClusterDB(t, mains, wals, 64)
		if err != nil {
			t.Fatalf("image %d: recovery failed: %v", i, err)
		}
		if report := db2.Check(); !report.OK() {
			t.Fatalf("image %d: not Check-clean after recovery: %v", i, report.Err())
		}
		pic2, _ := db2.Picture("map")
		seen := make(map[int64]bool)
		if rel2, ok := db2.Relation("pts"); ok {
			err := rel2.Scan(func(_ storage.TupleID, tup pictdb.Tuple) bool {
				v := tup[1].Int
				if seen[v] {
					t.Fatalf("image %d: row %d recovered twice", i, v)
				}
				seen[v] = true
				if _, live := pic2.Get(tup[2].Loc.Object); !live {
					t.Fatalf("image %d: row %d recovered without its picture object", i, v)
				}
				return true
			})
			if err != nil {
				t.Fatalf("image %d: scan: %v", i, err)
			}
			// Every acknowledged row answers a window over the frame.
			res, err := db2.Query("select n from pts on map at loc covered-by {500±500, 500±500}")
			if err != nil {
				t.Fatalf("image %d: window query: %v", i, err)
			}
			answered := make(map[int64]bool)
			for _, row := range res.Rows {
				answered[row[0].Int] = true
			}
			for v := int64(0); v < ackedAt[i]; v++ {
				if !answered[v] {
					t.Fatalf("image %d: acked row %d does not answer a window over the frame (%d rows did)", i, v, len(answered))
				}
			}
		}
		for v := int64(0); v < ackedAt[i]; v++ {
			if !seen[v] {
				t.Fatalf("image %d: acked row %d lost (recovered %d rows, %d acked)", i, v, len(seen), ackedAt[i])
			}
		}
		for v := range seen {
			if v < 0 || v >= int64(n) {
				t.Fatalf("image %d: recovered row %d was never inserted", i, v)
			}
		}
		if err := db2.Close(); err != nil {
			t.Fatalf("image %d: close: %v", i, err)
		}
	}
	t.Logf("replayed %d coordinated cluster crash images clean (%d shards)", len(images), shards)
}

// TestShardedCrashTornShardWAL repeats the sweep with a lying medium
// under ONE shard's WAL: its Nth append-region write persists only a
// prefix while reporting success. Damage must stay contained to that
// shard and never be silent: every crash image either recovers
// Check-clean with the subset/no-dup invariants holding, or refuses or
// degrades with a typed corruption error.
func TestShardedCrashTornShardWAL(t *testing.T) {
	const shards = 2
	for _, tornAt := range []int{1, 2, 4, 7} {
		tornAt := tornAt
		t.Run(fmt.Sprintf("tornAppend=%d", tornAt), func(t *testing.T) {
			cluster := pager.NewCrashCluster(1 + shards)
			mains, wals := clusterBackends(cluster)
			// Fault the last shard's WAL.
			wals[shards] = pager.NewFaultBackend(wals[shards], pager.FaultConfig{TornAppend: tornAt})
			db, err := openClusterDB(t, mains, wals, 64)
			if err != nil {
				if !pictdb.IsCorruption(err) {
					t.Fatalf("open failed untyped: %v", err)
				}
				return
			}
			rel, err := db.CreateShardedRelation("pts", pictdb.MustSchema("name:string", "n:int"), shards)
			if err != nil {
				t.Fatal(err)
			}
			n := 0
		workload:
			for round := 0; round < 5; round++ {
				for i := 0; i < 10; i++ {
					if _, err := rel.Insert(pictdb.Tuple{pictdb.S(fmt.Sprintf("p%d", n)), pictdb.I(int64(n))}); err != nil {
						if !pictdb.IsCorruption(err) {
							t.Fatalf("insert failed untyped: %v", err)
						}
						break workload
					}
					n++
				}
				if err := db.Checkpoint(); err != nil {
					if !pictdb.IsCorruption(err) {
						t.Fatalf("checkpoint failed untyped: %v", err)
					}
					break workload
				}
				if err := db.Commit(); err != nil {
					// A torn append surfaces at the commit fsync of the
					// damaged shard; any error here ends the workload.
					break workload
				}
			}
			_ = db.Close() // may fail over the damaged log; the images matter

			for i, img := range cluster.Images() {
				mains, wals := imageBackends(img)
				db2, err := openClusterDB(t, mains, wals, 64)
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
				seen := make(map[int64]bool)
				if rel2, ok := db2.Relation("pts"); ok {
					err := rel2.Scan(func(_ storage.TupleID, tup pictdb.Tuple) bool {
						v := tup[1].Int
						if seen[v] {
							t.Fatalf("image %d: row %d recovered twice", i, v)
						}
						seen[v] = true
						return true
					})
					if err != nil && !pictdb.IsCorruption(err) {
						t.Fatalf("image %d: scan failed untyped: %v", i, err)
					}
				}
				for v := range seen {
					if v < 0 || v >= int64(n) {
						t.Fatalf("image %d: recovered row %d was never inserted — silent damage", i, v)
					}
				}
				db2.Close()
			}
		})
	}
}

// TestShardedWALFailedSyncStopsTheDatabase: a failed fsync of one
// shard's log is fail-stop for the whole database, not only for that
// shard's pager. The Write whose commit it fails returns the error;
// from then on ReadOnly reports true, and a Write, a Checkpoint and a
// definition are refused before they run anything — a Write's fn would
// otherwise put its row in memory and in the index of a store whose
// commits are refused.
func TestShardedWALFailedSyncStopsTheDatabase(t *testing.T) {
	const shards = 2
	var mains, wals []pager.Backend
	for i := 0; i <= shards; i++ {
		mains = append(mains, pager.NewMemBackend(nil))
		wals = append(wals, pager.NewMemBackend(nil))
	}
	// Shard 0's log: sync 1 is its header, at open; sync 2 is its first
	// commit.
	wals[1] = pager.NewFaultBackend(wals[1], pager.FaultConfig{FailSync: 2})
	db, err := openClusterDB(t, mains, wals, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rel, err := db.CreateShardedRelation("pts", pictdb.MustSchema("name:string", "n:int"), shards)
	if err != nil {
		t.Fatal(err)
	}
	insert := func(n int) func() error {
		return func() error {
			_, err := rel.Insert(pictdb.Tuple{pictdb.S(fmt.Sprintf("p%d", n)), pictdb.I(int64(n))})
			return err
		}
	}
	if err := db.Write(insert(0)); !errors.Is(err, pager.ErrInjected) {
		t.Fatalf("Write over a failing shard fsync = %v, want ErrInjected", err)
	}
	if !db.ReadOnly() {
		t.Fatal("ReadOnly is false after a shard's fsync failed")
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

// TestWriteBesideShardedDefinitions: Write, Checkpoint and ReadOnly visit
// every shard pager while CreateShardedRelation adds more. They read the
// published catalog, which a definition replaces and never writes, so
// under -race this fails if a shard list is ever written in place; and a
// Write releases exactly the shard pagers it entered, or the release of
// one defined in between panics.
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
			t.Fatal("ReadOnly is true with every pager healthy")
		}
	}
}
