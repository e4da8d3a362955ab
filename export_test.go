package pictdb

// LoadTimes lets the external benchmarks read where the catalog reload
// that opened db spent its time.
func (db *Database) LoadTimes() loadTimes { return db.loadTimes }
