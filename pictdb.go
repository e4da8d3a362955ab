// Package pictdb is a pictorial database engine with direct spatial
// search over packed R-trees, reproducing Roussopoulos & Leifker,
// "Direct Spatial Search on Pictorial Databases Using Packed R-trees"
// (SIGMOD 1985).
//
// A Database holds relations (tables over alphanumeric and pictorial
// domains), pictures (named maps of point/segment/region objects), and
// named locations. Relations associate with pictures through loc
// columns; each association is indexed by an R-tree packed bottom-up
// as the paper's PACK algorithm does, in Hilbert order (AttachPicture
// refuses any other method; PackIndex builds a stand-alone index with
// any of them: nearest-neighbour, lowx, STR, Hilbert, rotation
// packing). Queries are written in PSQL, the paper's pictorial query
// language:
//
//	db := pictdb.New()
//	... define pictures and relations ...
//	res, err := db.Query(`
//	    select city, state, population, loc
//	    from   cities
//	    on     us-map
//	    at     loc covered-by {750±250, 500±500}
//	    where  population > 450000`)
//
// The packages under internal/ expose the individual systems: the
// R-tree and PACK, the B-tree and slotted-page storage substrates, the
// geometry kernel, and the experiment harness that regenerates the
// paper's Table 1 and figures.
package pictdb

import (
	"fmt"
	"maps"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/geom"
	"repro/internal/pack"
	"repro/internal/pager"
	"repro/internal/picture"
	"repro/internal/psql"
	"repro/internal/relation"
	"repro/internal/rtree"
)

// Re-exported geometry aliases so applications can use the public API
// without importing internal packages.
type (
	// Point is a planar location.
	Point = geom.Point
	// Rect is an axis-aligned rectangle (MBR).
	Rect = geom.Rect
	// Segment is a line segment.
	Segment = geom.Segment
	// Polygon is a polygonal region.
	Polygon = geom.Polygon
	// Picture is a named map of spatial objects.
	Picture = picture.Picture
	// ObjectID identifies an object within a picture.
	ObjectID = picture.ObjectID
	// Relation is a table with alphanumeric and spatial indexes.
	Relation = relation.Relation
	// Schema describes relation columns.
	Schema = relation.Schema
	// Tuple is one relation row.
	Tuple = relation.Tuple
	// Value is one column value.
	Value = relation.Value
	// Column is one schema column.
	Column = relation.Column
	// ColumnType enumerates the column domains.
	ColumnType = relation.Type
	// Result is a PSQL query result.
	Result = psql.Result
	// CacheStats reports PSQL statement-cache counters.
	CacheStats = psql.CacheStats
	// PackOptions configures spatial index packing.
	PackOptions = pack.Options
	// RTreeParams configures R-tree branching.
	RTreeParams = rtree.Params
	// SpatialCostSnapshot is the planner's consistent view of a spatial
	// index.
	SpatialCostSnapshot = relation.CostSnapshot
)

// Value constructors, re-exported.
var (
	// Pt builds a Point.
	Pt = geom.Pt
	// R builds a Rect from two corners.
	R = geom.R
	// WindowAt builds a Rect from the PSQL {cx±dx, cy±dy} form.
	WindowAt = geom.WindowAt
	// Seg builds a Segment.
	Seg = geom.Seg
	// Poly builds a Polygon.
	Poly = geom.Poly
	// I, F, S, L build int, float, string and loc values.
	I = relation.I
	F = relation.F
	S = relation.S
	L = relation.L
)

// Packing method re-exports.
const (
	// PackNN is the paper's nearest-neighbor PACK.
	PackNN = pack.MethodNN
	// PackLowX is plain ascending-x packing.
	PackLowX = pack.MethodLowX
	// PackSTR is Sort-Tile-Recursive packing.
	PackSTR = pack.MethodSTR
	// PackHilbert is Hilbert-curve packing.
	PackHilbert = pack.MethodHilbert
	// PackRotate is the Theorem 3.2 rotation packing.
	PackRotate = pack.MethodRotate
	// PackNNArea is PACK with greedy least-enlargement grouping.
	PackNNArea = pack.MethodNNArea
)

// MustSchema builds a schema from "name:type" specs, panicking on
// malformed specs.
var MustSchema = relation.MustSchema

// NewSchema builds a schema from "name:type" specs.
var NewSchema = relation.NewSchema

// Database is an integrated pictorial/alphanumeric database: the
// catalog PSQL queries run against.
type Database struct {
	pager *pager.Pager
	// cat is what the names in a query denote. Definitions are rare and
	// every statement resolves names, so the maps are published
	// copy-on-write: a definition (serialized by defMu) copies the map it
	// changes and stores a new catalog; a reader takes no lock and never
	// sees a map that is being written.
	cat   atomic.Pointer[catalog]
	defMu sync.Mutex
	exec  *psql.Executor

	// loadTimes is where the catalog reload that opened this database
	// spent its time.
	loadTimes loadTimes

	// defsWritten is the encoding of the definitions the superblock
	// names, what writeDefinitions compares against; the pager's write
	// gate guards it with their rewrite.
	defsWritten [][]byte
}

// catalog is one published state of the definitions. Its maps are never
// written once the database is shared (loadCatalog fills the first one
// before that).
type catalog struct {
	relations map[string]*relation.Relation
	pictures  map[string]*picture.Picture
	locations map[string]geom.Rect
}

func (db *Database) catalog() *catalog { return db.cat.Load() }

// define applies one definition, what names it in errors: change
// receives a copy of the current catalog, replaces (never writes) the
// map it adds to — see defined — and the copy is published unless
// change fails. A read-only database refuses before change runs.
func (db *Database) define(what string, change func(c *catalog) error) error {
	db.defMu.Lock()
	defer db.defMu.Unlock()
	if db.ReadOnly() {
		return fmt.Errorf("pictdb: %s: %w", what, pager.ErrReadOnly)
	}
	next := *db.catalog()
	if err := change(&next); err != nil {
		return err
	}
	db.cat.Store(&next)
	return nil
}

// sortedNames returns m's keys in order.
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// defined returns a copy of m with name defined as v.
func defined[V any](m map[string]V, name string, v V) map[string]V {
	m = maps.Clone(m)
	m[name] = v
	return m
}

func newDatabase(p *pager.Pager) *Database {
	db := &Database{pager: p}
	db.cat.Store(&catalog{
		relations: make(map[string]*relation.Relation),
		pictures:  make(map[string]*picture.Picture),
		locations: make(map[string]geom.Rect),
	})
	db.exec = psql.NewExecutor(db)
	return db
}

// New creates an in-memory database. Its pager keeps its log in memory:
// a Write commits as it does on a file.
func New() *Database {
	db := newDatabase(pager.OpenMem(1024))
	if err := db.ensureSuperblock(); err != nil {
		// The in-memory pager cannot fail to allocate its first page.
		panic(err)
	}
	return db
}

// Open creates a database whose tuple heaps — every store of every
// relation — persist in one page file at path, with one buffer pool of
// poolPages pages for the whole database. A write-ahead log at
// path+".wal" is enabled (and recovered, if a previous process crashed
// mid-commit) before any other access: commits group into single
// fsyncs.
func Open(path string, poolPages int) (*Database, error) {
	p, err := pager.Open(path, poolPages)
	if err != nil {
		return nil, err
	}
	// Recover + attach the WAL first so the page file reflects every
	// durable commit before the catalog is read or the file is mapped.
	if err := p.EnableWAL(); err != nil {
		p.Close()
		return nil, err
	}
	// Best-effort zero-copy reads: map the file so clean pages are
	// served straight from the mapping instead of copied into pool
	// frames. Unsupported platforms/builds just keep the pool path.
	_ = p.EnableMmap()
	return OpenWithPager(p)
}

// OpenWithPager builds a database over an already-open pager — the
// seam the fault-injection and crash-point suites use to run the full
// stack over torn, failing, or captured backends. The pager is closed
// if the catalog cannot be loaded. A pager without a log serves reads
// only: every write through it fails with pager.ErrNoWAL, and so does
// the open of an empty store, whose superblock it cannot write. The
// pager holds the whole database: every store of every relation.
func OpenWithPager(p *pager.Pager) (*Database, error) {
	db := newDatabase(p)
	err := db.ensureSuperblock()
	if err == nil {
		err = db.loadCatalog()
	}
	if err != nil {
		// Close without the final commit and checkpoint: a file whose
		// catalog cannot be read is not ours to rewrite.
		p.SetReadOnly(true)
		p.Close()
		return nil, fmt.Errorf("pictdb: loading catalog: %w", err)
	}
	db.defsWritten = db.encodeDefinitions()
	return db, nil
}

// OpenWithPagerShards is OpenWithPager; factory is never asked for a
// pager, because every store lives in p. It is kept only for the
// benchmark harness, which compiles against it.
func OpenWithPagerShards(p *pager.Pager, factory func(rel string, shard int, mustExist bool) (*pager.Pager, error)) (*Database, error) {
	return OpenWithPager(p)
}

// ShardPath returns path.rel.s<shard>, the name an earlier format gave
// the page file of store shard of relation rel. The engine writes no
// such file; it is kept only for the benchmark harness, which compiles
// against it.
func ShardPath(path, rel string, shard int) string {
	return fmt.Sprintf("%s.%s.s%d", path, rel, shard)
}

// OpenChecked opens the database at path and runs a full verification
// pass (Database.Check). When verification finds problems the database
// is degraded to read-only — it keeps serving queries over whatever
// loaded cleanly but refuses writes — and the report says why. The
// error is non-nil only when the file cannot be opened at all (bad
// magic, corrupt header or catalog).
func OpenChecked(path string, poolPages int) (*Database, *CheckReport, error) {
	db, err := Open(path, poolPages)
	if err != nil {
		return nil, nil, err
	}
	report := db.Check()
	if !report.OK() {
		db.SetReadOnly(true)
	}
	return db, report, nil
}

// Close drains in-flight background spatial repacks, then commits the
// definitions as they stand and closes the page file.
func (db *Database) Close() error {
	var err error
	db.WaitRepacks()
	if !db.pager.ReadOnly() {
		db.pager.BeginWrite()
		err = db.writeDefinitions()
		db.pager.EndWrite()
	}
	if cerr := db.pager.Close(); err == nil {
		err = cerr
	}
	return err
}

// WaitRepacks blocks until no spatial index in any relation has a
// background repack in flight — the quiesce point tests and
// checkpoints use before inspecting index structure.
func (db *Database) WaitRepacks() {
	for _, rel := range db.catalog().relations {
		rel.WaitRepacks()
	}
}

// Commit is the durability barrier: everything written before it — tuples
// with the geometry their locs carry, and every definition — survives a
// crash once it returns. It is a Write with nothing to apply: one group
// fsync of the one log, the page file catching up at the next checkpoint.
func (db *Database) Commit() error {
	return db.Write(func() error { return nil })
}

// Checkpoint is Commit followed by CheckpointWAL: what Commit made
// durable is folded into the page files and the logs are emptied. It
// makes nothing durable that Commit did not, and costs what the log
// holds, not what the database holds.
func (db *Database) Checkpoint() error {
	if db.ReadOnly() {
		return fmt.Errorf("pictdb: checkpoint: %w", pager.ErrReadOnly)
	}
	if err := db.Commit(); err != nil {
		return err
	}
	return db.CheckpointWAL()
}

// Write applies fn as one serialized, durably committed transaction:
// fn and the rewrite of any changed definitions run holding the pager's
// write gate, the one writer lock, so writers take turns (a relation's
// own locks keep readers safe beside each mutation; taking turns keeps
// one writer's fn whole and two writers off one tuple id, DESIGN.md
// §15) and a commit batch, whose capture takes the gate too, never
// holds half of one. The commit is acknowledged only once its log
// records are fsynced: the tuples fn wrote carry their locs' objects,
// and every definition made before the Write or in fn (a relation,
// picture, location, index or attached picture: a catalog edit that
// touches no page and takes no gate) is durable with them. Concurrent
// Write calls group-commit: their batches share fsyncs. When fn returns
// an error nothing is committed and the error is returned (already
// applied mutations are not rolled back in memory; callers treat a
// failed Write as fatal for the handle). A failed fsync makes the pager
// read-only (fail-stop), and with it the database: every later Write is
// refused with ErrReadOnly before fn runs.
func (db *Database) Write(fn func() error) error {
	if db.ReadOnly() {
		return fmt.Errorf("pictdb: write: %w", pager.ErrReadOnly)
	}
	db.pager.BeginWrite()
	err := fn()
	if err == nil {
		err = db.writeDefinitions()
	}
	db.pager.EndWrite()
	if err != nil {
		return err
	}
	return db.pager.Commit()
}

// WALStats reports the database's write-ahead log activity.
func (db *Database) WALStats() pager.WALStats { return db.pager.WALStats() }

// CheckpointWAL forces the WAL's committed page images into the page
// file and truncates the log. Fails while zero-copy page views are
// pinned.
func (db *Database) CheckpointWAL() error { return db.pager.CheckpointWAL() }

// SetReadOnly degrades the database to read-only: relation and picture
// definition, checkpointing, and all pager writes fail, while queries
// keep running. OpenChecked applies it automatically when verification
// fails.
func (db *Database) SetReadOnly(ro bool) { db.pager.SetReadOnly(ro) }

// ReadOnly reports whether the database refuses writes: true once its
// pager is read-only — by SetReadOnly, or because a failed fsync stopped
// it.
func (db *Database) ReadOnly() bool { return db.pager.ReadOnly() }

// NumPages reports the size of the underlying page file in pages.
func (db *Database) NumPages() int { return db.pager.NumPages() }

// CreateRelation defines a new relation of one store.
func (db *Database) CreateRelation(name string, schema Schema) (*Relation, error) {
	return db.CreateShardedRelation(name, schema, 1)
}

// CreateShardedRelation defines a relation of `shards` stores, each a
// heap in the database's page file with its own lock and its own LSM
// spatial index per attached picture, tuples routed by Hilbert key
// range. The relation behaves as one logical table: queries scatter to
// the stores whose indexes overlap and gather the rows a one-store
// relation gives, in its order under an order by (DESIGN.md §15).
func (db *Database) CreateShardedRelation(name string, schema Schema, shards int) (*Relation, error) {
	if shards < 1 || shards > relation.MaxShards {
		return nil, fmt.Errorf("pictdb: create relation %q: shard count %d out of range [1, %d]", name, shards, relation.MaxShards)
	}
	var rel *Relation
	err := db.define(fmt.Sprintf("create relation %q", name), func(c *catalog) (err error) {
		if _, dup := c.relations[name]; dup {
			return fmt.Errorf("pictdb: relation %q already exists", name)
		}
		if rel, err = relation.NewSharded(db.pager, shards, name, schema, db); err == nil {
			c.relations = defined(c.relations, name, rel)
		}
		return err
	})
	return rel, err
}

// CreatePicture defines a new picture covering extent.
func (db *Database) CreatePicture(name string, extent Rect) (*Picture, error) {
	p := picture.New(name, extent)
	err := db.define(fmt.Sprintf("create picture %q", name), func(c *catalog) error {
		if _, dup := c.pictures[name]; dup {
			return fmt.Errorf("pictdb: picture %q already exists", name)
		}
		c.pictures = defined(c.pictures, name, p)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// DefineLocation names a constant area usable in at-clauses — the
// paper's locations "predefined outside the retrieve mapping". A name
// already defined is redefined.
func (db *Database) DefineLocation(name string, area Rect) error {
	return db.define(fmt.Sprintf("define location %q", name), func(c *catalog) error {
		c.locations = defined(c.locations, name, area)
		return nil
	})
}

// Relation implements psql.Catalog.
func (db *Database) Relation(name string) (*relation.Relation, bool) {
	r, ok := db.catalog().relations[name]
	return r, ok
}

// RelationNames returns every relation name in sorted order — the
// enumeration the checker uses to report per-relation shard balance.
func (db *Database) RelationNames() []string {
	return sortedNames(db.catalog().relations)
}

// Picture implements psql.Catalog.
func (db *Database) Picture(name string) (*picture.Picture, bool) {
	p, ok := db.catalog().pictures[name]
	return p, ok
}

// Location implements psql.Catalog.
func (db *Database) Location(name string) (geom.Rect, bool) {
	r, ok := db.catalog().locations[name]
	return r, ok
}

// Query parses and executes a PSQL mapping, serving repeated query
// text through the executor's statement cache.
func (db *Database) Query(src string) (*Result, error) {
	return db.exec.Run(src)
}

// QueryNaive executes a PSQL mapping through the naive reference path:
// full scans and nested loops, no planner, cache, or batching. Rows
// are identical to Query's; it exists as the oracle the planned
// executor is tested against.
func (db *Database) QueryNaive(src string) (*Result, error) {
	return db.exec.RunNaive(src)
}

// CacheStats reports the PSQL statement cache's counters.
func (db *Database) CacheStats() psql.CacheStats {
	return db.exec.CacheStats()
}

// RegisterFunc installs an application-defined PSQL function.
func (db *Database) RegisterFunc(name string, f psql.Func) {
	db.exec.RegisterFunc(name, f)
}

// Render draws the objects the result's rows locate on their picture,
// clipped to window — the graphical half of the paper's two output
// devices. Each object is the one its row's tuple carries. All locs must
// reference the same picture; locs referencing other pictures are
// skipped.
func (db *Database) Render(res *Result, pictureName string, window Rect) (string, error) {
	if _, ok := db.catalog().pictures[pictureName]; !ok {
		return "", fmt.Errorf("pictdb: unknown picture %q", pictureName)
	}
	var objs []picture.Object
	seen := map[picture.ObjectID]bool{}
	for _, row := range res.Rows {
		for _, d := range row {
			if d.Kind != psql.KindLoc || d.Loc.Picture != pictureName || seen[d.Loc.Object] {
				continue
			}
			seen[d.Loc.Object] = true
			if o, ok := d.LocObject(); ok {
				objs = append(objs, o)
			}
		}
	}
	return picture.DefaultRenderer().Render(window, objs), nil
}
