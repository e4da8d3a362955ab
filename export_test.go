package pictdb

import (
	"errors"
	"maps"

	"repro/internal/pager"
	"repro/internal/relation"
	"repro/internal/storage"
)

// LoadTimes lets the external benchmarks read where the catalog reload
// that opened db spent its time.
func (db *Database) LoadTimes() loadTimes { return db.loadTimes }

// PoolStats, PoolResident and MmapActive let the external tests watch
// the main file's buffer pool: what a statement reads through it and
// what it leaves in it.
func (db *Database) PoolStats() pager.Stats { return db.pager.Stats() }
func (db *Database) PoolResident() int      { return db.pager.Resident() }
func (db *Database) MmapActive() bool       { return db.pager.MmapActive() }

// DefinitionsPage returns the first page of the definitions heap the
// superblock names: the heap the next commit that changes a definition
// frees.
func (db *Database) DefinitionsPage() (pager.PageID, error) { return db.definitionsPage() }

// CommitPages commits the page file alone, without rewriting the
// definitions: the page frames it logs are the pages dirtied since the
// last commit.
func (db *Database) CommitPages() error { return db.pager.Commit() }

// Rechain reopens every relation of db over a heap of n chains holding
// its records, the k-th of its heap's scan in chain k mod n: the layout
// a file written when its relations had n stores reopens to. The old
// heaps' pages stay behind, owned by no structure.
func (db *Database) Rechain(n int) error {
	return db.define("rechain", func(c *catalog) error {
		rels := maps.Clone(c.relations)
		for name, rel := range c.relations {
			old, err := storage.OpenChains(db.pager, rel.HeapChains())
			if err != nil {
				return err
			}
			heaps := make([]*storage.Heap, n)
			for i := range heaps {
				heaps[i], _, _ = storage.Create(db.pager)
			}
			k := 0
			var writeErr error
			err = old.Scan(func(_ storage.TupleID, rec []byte) bool {
				_, writeErr = heaps[k%n].Insert(rec)
				k++
				return writeErr == nil
			})
			if err = errors.Join(err, writeErr); err != nil {
				return err
			}
			def := relation.Def{Name: name, Schema: rel.Schema(), Pager: db.pager, Columns: rel.IndexedColumns()}
			for _, h := range heaps {
				def.Heaps = append(def.Heaps, h.FirstPage())
			}
			for _, pn := range rel.Pictures() {
				def.Attach = append(def.Attach, c.pictures[pn])
			}
			if rels[name], _, err = relation.Open(def, db); err != nil {
				return err
			}
		}
		c.relations = rels
		return nil
	})
}
