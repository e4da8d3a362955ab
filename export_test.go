package pictdb

import "repro/internal/pager"

// LoadTimes lets the external benchmarks read where the catalog reload
// that opened db spent its time.
func (db *Database) LoadTimes() loadTimes { return db.loadTimes }

// PoolStats, PoolResident and MmapActive let the external tests watch
// the main file's buffer pool: what a statement reads through it and
// what it leaves in it.
func (db *Database) PoolStats() pager.Stats { return db.pager.Stats() }
func (db *Database) PoolResident() int      { return db.pager.Resident() }
func (db *Database) MmapActive() bool       { return db.pager.MmapActive() }

// CommitPages commits the page file alone, without rewriting the
// definitions: the page frames it logs are the pages dirtied since the
// last commit.
func (db *Database) CommitPages() error { return db.pager.Commit() }
