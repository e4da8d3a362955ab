package pictdb

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/geom"
	"repro/internal/pack"
	"repro/internal/pager"
	"repro/internal/par"
	"repro/internal/picture"
	"repro/internal/relation"
	"repro/internal/storage"
)

// Catalog persistence. A file-backed database reserves its first
// allocated page as the superblock:
//
//	bytes 0..7  magic "PICTCAT1"
//	bytes 8..11 PageID of the current catalog snapshot heap (0 = none)
//
// Checkpoint serializes the catalog — named locations, pictures with
// their objects, and relation definitions (schema, tuple-heap handle,
// indexed columns, picture associations with pack options) — into a
// fresh heap, atomically points the superblock at it, and frees the
// previous snapshot. Open replays the snapshot: heaps are reopened in
// place; B-tree and R-tree indexes are rebuilt from the persisted
// definitions (the paper's databases are static, so a one-time rebuild
// on open mirrors the one-time initial PACK) — one heap scan per
// relation feeding all of its indexes, relations side by side and
// beside the decoding of the picture objects (loadCatalog).
var catMagic = [8]byte{'P', 'I', 'C', 'T', 'C', 'A', 'T', '1'}

// superblockID is the well-known page of the superblock: the first
// page ever allocated in a database file.
const superblockID pager.PageID = 1

// Catalog record type tags.
const (
	catLocation = 'L'
	catPicture  = 'P'
	catObject   = 'O'
	catRelation = 'R'
	// catSharded is a sharded relation: one heap handle and one Hilbert
	// key range per shard, so a non-even layout (an earlier build
	// split shards online) survives reopen.
	catSharded = 'T'
	// catShardedV1 is the retired record without key ranges; the loader
	// recognises the tag only to refuse it by name.
	catShardedV1 = 'S'
)

// ensureSuperblock creates or validates the superblock page.
func (db *Database) ensureSuperblock() error {
	if db.pager.NumPages() <= int(superblockID) {
		pg, err := db.pager.Allocate()
		if err != nil {
			return err
		}
		if pg.ID != superblockID {
			db.pager.Unpin(pg)
			return fmt.Errorf("pictdb: superblock landed on page %d", pg.ID)
		}
		copy(pg.Data[:8], catMagic[:])
		binary.LittleEndian.PutUint32(pg.Data[8:12], 0)
		pg.MarkDirty()
		db.pager.Unpin(pg)
		return nil
	}
	pg, err := db.pager.Fetch(superblockID)
	if err != nil {
		return err
	}
	defer db.pager.Unpin(pg)
	if [8]byte(pg.Data[:8]) != catMagic {
		return fmt.Errorf("pictdb: page %d is not a catalog superblock", superblockID)
	}
	return nil
}

func (db *Database) readSnapshotPage() (pager.PageID, error) {
	pg, err := db.pager.Fetch(superblockID)
	if err != nil {
		return pager.InvalidPage, err
	}
	defer db.pager.Unpin(pg)
	return pager.PageID(binary.LittleEndian.Uint32(pg.Data[8:12])), nil
}

func (db *Database) writeSnapshotPage(id pager.PageID) error {
	pg, err := db.pager.Fetch(superblockID)
	if err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(pg.Data[8:12], uint32(id))
	pg.MarkDirty()
	db.pager.Unpin(pg)
	return db.pager.Flush()
}

// --- encoding helpers -------------------------------------------------

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// errCatalog wraps ErrCorrupt for a catalog record that does not
// decode.
func errCatalog(format string, args ...any) error {
	return fmt.Errorf("%w: catalog record: %w", ErrCorrupt, fmt.Errorf(format, args...))
}

func readString(rec []byte, pos int) (string, int, error) {
	l, w := binary.Uvarint(rec[pos:])
	if w <= 0 || l > uint64(len(rec)-pos-w) {
		return "", 0, errCatalog("truncated string")
	}
	pos += w
	return string(rec[pos : pos+int(l)]), pos + int(l), nil
}

func appendRect(buf []byte, r geom.Rect) []byte {
	for _, v := range [4]float64{r.Min.X, r.Min.Y, r.Max.X, r.Max.Y} {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}

func readRect(rec []byte, pos int) (geom.Rect, int, error) {
	if pos+32 > len(rec) {
		return geom.Rect{}, 0, errCatalog("truncated rect")
	}
	var v [4]float64
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(rec[pos:]))
		pos += 8
	}
	return geom.Rect{Min: Pt(v[0], v[1]), Max: Pt(v[2], v[3])}, pos, nil
}

// --- checkpoint -------------------------------------------------------

// Checkpoint persists the catalog to the page file, replacing any
// previous snapshot. Tuple data is already on disk (heaps write
// through the pager); the checkpoint records everything needed to
// rebuild the in-memory structures on Open.
func (db *Database) Checkpoint() error {
	if db.readOnly {
		return fmt.Errorf("pictdb: checkpoint: %w", pager.ErrReadOnly)
	}
	// Shard files first: the snapshot written below names shard heap
	// pages, and the main file's Flush is itself a durable commit in
	// WAL mode — committing every shard now guarantees the catalog
	// never names a shard page that is not yet durable.
	if err := db.commitShards(); err != nil {
		return err
	}
	old, err := db.readSnapshotPage()
	if err != nil {
		return err
	}
	snap, _, err := storage.Create(db.pager)
	if err != nil {
		return err
	}

	// Named locations.
	cat := db.catalog()
	locNames := make([]string, 0, len(cat.locations))
	for name := range cat.locations {
		locNames = append(locNames, name)
	}
	sort.Strings(locNames)
	for _, name := range locNames {
		rec := []byte{catLocation}
		rec = appendString(rec, name)
		rec = appendRect(rec, cat.locations[name])
		if _, err := snap.Insert(rec); err != nil {
			return err
		}
	}

	// Pictures and their objects.
	picNames := make([]string, 0, len(cat.pictures))
	for name := range cat.pictures {
		picNames = append(picNames, name)
	}
	sort.Strings(picNames)
	for _, name := range picNames {
		pic := cat.pictures[name]
		rec := []byte{catPicture}
		rec = appendString(rec, name)
		rec = appendRect(rec, pic.Extent())
		if _, err := snap.Insert(rec); err != nil {
			return err
		}
		for _, obj := range pic.Objects() {
			orec := []byte{catObject}
			orec = appendString(orec, name)
			orec = append(orec, picture.EncodeObject(obj)...)
			if _, err := snap.Insert(orec); err != nil {
				return err
			}
		}
	}

	// Relations.
	relNames := make([]string, 0, len(cat.relations))
	for name := range cat.relations {
		relNames = append(relNames, name)
	}
	sort.Strings(relNames)
	for _, name := range relNames {
		rel := cat.relations[name]
		var rec []byte
		if rel.Sharded() {
			// Sharded relations persist one heap handle per shard plus
			// each shard's Hilbert key range; the shard count is implied
			// by the handle count. The shard pages themselves become
			// durable at Commit — shards commit before the main file, so
			// this record never names a shard page that is not yet
			// durable.
			rec = []byte{catSharded}
			rec = appendString(rec, name)
			firsts := rel.ShardHeapFirstPages()
			rec = binary.AppendUvarint(rec, uint64(len(firsts)))
			for _, f := range firsts {
				rec = binary.LittleEndian.AppendUint32(rec, uint32(f))
			}
			for _, kr := range rel.ShardKeyRanges() {
				rec = binary.LittleEndian.AppendUint64(rec, kr.Lo)
				rec = binary.LittleEndian.AppendUint64(rec, kr.Hi)
			}
		} else {
			rec = []byte{catRelation}
			rec = appendString(rec, name)
			rec = binary.LittleEndian.AppendUint32(rec, uint32(rel.HeapFirstPage()))
		}
		schema := rel.Schema()
		rec = binary.AppendUvarint(rec, uint64(schema.Arity()))
		for _, col := range schema.Columns {
			rec = appendString(rec, col.Name)
			rec = append(rec, byte(col.Type))
		}
		indexed := rel.IndexedColumns()
		sort.Strings(indexed)
		rec = binary.AppendUvarint(rec, uint64(len(indexed)))
		for _, col := range indexed {
			rec = appendString(rec, col)
		}
		pics := rel.Pictures()
		sort.Strings(pics)
		rec = binary.AppendUvarint(rec, uint64(len(pics)))
		for _, pn := range pics {
			// SpatialOpts is the mode-agnostic accessor: a sharded
			// relation has one index per shard (all built with the same
			// options), an unsharded one exactly one.
			opts, _ := rel.SpatialOpts(pn)
			rec = appendString(rec, pn)
			rec = append(rec, byte(opts.Method))
			if opts.TrimToMultiple {
				rec = append(rec, 1)
			} else {
				rec = append(rec, 0)
			}
		}
		if _, err := snap.Insert(rec); err != nil {
			return err
		}
	}

	if err := db.writeSnapshotPage(snap.FirstPage()); err != nil {
		return err
	}
	// Free the superseded snapshot only after the superblock points at
	// the new one.
	if old != pager.InvalidPage {
		oldHeap, err := storage.Open(db.pager, old)
		if err != nil {
			return err
		}
		if err := oldHeap.Free(); err != nil {
			return err
		}
	}
	return db.pager.Flush()
}

// --- load -------------------------------------------------------------

// nowFn is the clock the reload's phases are timed with; tests replace
// it.
var nowFn = time.Now

// loadTimes is where a catalog reload spent its time: decoding the
// snapshot's records, and the relations' index builds summed.
type loadTimes struct {
	Decode time.Duration
	relation.BuildTimes
}

// scanRecords hands every record of the snapshot to fn; the first error
// stops the scan.
func scanRecords(snap *storage.Heap, fn func(raw []byte) error) error {
	var fnErr error
	err := snap.Scan(func(_ storage.TupleID, raw []byte) bool {
		fnErr = fn(raw)
		return fnErr == nil
	})
	if err != nil {
		return err
	}
	return fnErr
}

// objectRecordName returns the picture name of a catObject record,
// still inside raw, and the offset of the encoded object after it.
func objectRecordName(raw []byte) (name []byte, pos int, err error) {
	l, w := binary.Uvarint(raw[1:])
	if w <= 0 || l > uint64(len(raw)-1-w) {
		return nil, 0, errCatalog("truncated string")
	}
	pos = 1 + w + int(l)
	return raw[1+w : pos], pos, nil
}

// decodeObjectRecord decodes a catObject record: the name of its
// picture, still inside raw (a reload decodes one record per object and
// looks the picture up without copying the name), and the object.
func decodeObjectRecord(raw []byte) (pic []byte, obj picture.Object, err error) {
	pic, pos, err := objectRecordName(raw)
	if err != nil {
		return nil, obj, err
	}
	if obj, err = picture.DecodeObject(raw[pos:]); err != nil {
		return nil, obj, errCatalog("%w", err)
	}
	return pic, obj, nil
}

// loadedRel is what reloading one relation produced. pagers is set as
// soon as a sharded relation's files are open, rel only once its
// indexes are built.
type loadedRel struct {
	rel    *Relation
	pagers []*pager.Pager
	times  relation.BuildTimes
}

// loadCatalog replays the current snapshot, if any. The definitions —
// locations, picture headers, relations — are read first; they are few.
// Then the bulk runs as one task list on up to GOMAXPROCS goroutines:
// task 0 decodes the picture objects, and one task per relation reopens
// its heap (or shard files), scans it once for every index it had, and,
// once the objects are in, resolves the loc pointers and builds the
// indexes. On one core the tasks run in that order, one after another.
// The error reported is the first in task order whatever the core
// count, and every task has returned before loadCatalog does.
func (db *Database) loadCatalog() error {
	snapID, err := db.readSnapshotPage()
	if err != nil {
		return err
	}
	if snapID == pager.InvalidPage {
		return nil
	}
	snap, err := storage.Open(db.pager, snapID)
	if err != nil {
		return err
	}

	// The database is not shared yet: the reload fills its first catalog
	// in place.
	cat := db.catalog()

	// The definitions, and how many objects each picture has.
	t0 := nowFn()
	var rels []decodedRel
	objectCounts := make(map[string]*int)
	err = scanRecords(snap, func(raw []byte) error {
		if len(raw) > 0 && raw[0] == catObject {
			name, _, err := objectRecordName(raw)
			if err != nil {
				return err
			}
			// A counter behind a pointer: the lookup takes the name's
			// bytes as they lie, where a store would copy them per record.
			n := objectCounts[string(name)]
			if n == nil {
				n = new(int)
				objectCounts[string(name)] = n
			}
			*n++
			return nil
		}
		rec, err := decodeCatalogRecord(raw)
		if err != nil {
			return err
		}
		switch rec.tag {
		case catLocation:
			cat.locations[rec.name] = rec.rect
		case catPicture:
			cat.pictures[rec.name] = picture.New(rec.name, rec.rect)
		default:
			rels = append(rels, rec.rel)
		}
		return nil
	})
	if err != nil {
		return err
	}
	db.loadTimes.Decode = nowFn().Sub(t0)

	loaded := make([]loadedRel, len(rels))
	objectsIn := make(chan struct{})
	var objectsErr error // written by task 0 before it closes objectsIn
	err = par.Do(1+len(rels), 0, func(i int) error {
		if i > 0 {
			return db.loadRelation(rels[i-1], &loaded[i-1], func() error {
				<-objectsIn
				return objectsErr
			})
		}
		defer close(objectsIn)
		t0 := nowFn()
		objectsErr = db.loadObjects(snap, objectCounts)
		db.loadTimes.Decode += nowFn().Sub(t0)
		return objectsErr
	})
	// Shard files opened by a relation that then failed are registered
	// too: the caller closes every registered pager when the load fails.
	for i, l := range loaded {
		if l.pagers != nil {
			db.shardPagers[rels[i].name] = l.pagers
		}
		if l.rel != nil {
			cat.relations[rels[i].name] = l.rel
			db.loadTimes.BuildTimes.Add(l.times)
		}
	}
	return err
}

// loadObjects decodes every picture object of the snapshot and restores
// each picture's in one batch; counts says how many each picture has.
func (db *Database) loadObjects(snap *storage.Heap, counts map[string]*int) error {
	names := make([]string, 0, len(counts))
	for name := range counts {
		names = append(names, name)
	}
	sort.Strings(names)
	objs := make(map[string]*[]picture.Object, len(names))
	for _, name := range names {
		if db.catalog().pictures[name] == nil {
			return errCatalog("object for unknown picture %q", name)
		}
		batch := make([]picture.Object, 0, *counts[name])
		objs[name] = &batch
	}
	err := scanRecords(snap, func(raw []byte) error {
		if raw[0] != catObject {
			return nil
		}
		name, obj, err := decodeObjectRecord(raw)
		if err != nil {
			return err
		}
		batch := objs[string(name)]
		*batch = append(*batch, obj)
		return nil
	})
	if err != nil {
		return err
	}
	for _, name := range names {
		if err := db.catalog().pictures[name].Restore(*objs[name]...); err != nil {
			return errCatalog("%w", err)
		}
	}
	return nil
}

// loadRelation reopens one persisted relation into out and rebuilds its
// indexes with one scan of its heap. objectsIn blocks until the picture
// objects are decoded and returns the error decoding them met: the heap
// scan and the B-trees run before it is asked, the resolution of loc
// pointers after.
func (db *Database) loadRelation(def decodedRel, out *loadedRel, objectsIn func() error) error {
	var rel *Relation
	var err error
	if len(def.shardFirsts) > 0 {
		rel, out.pagers, err = db.openShardedRelation(def.name, def.schema, def.shardFirsts, def.shardRanges)
	} else {
		rel, err = relation.Open(db.pager, def.name, def.schema, def.heapFirst)
	}
	if err != nil {
		return err
	}
	pics := make([]relation.PictureSpec, len(def.assocs))
	for i, a := range def.assocs {
		pic := db.catalog().pictures[a.pic]
		if pic == nil {
			return fmt.Errorf("pictdb: relation %q associated with unknown picture %q", def.name, a.pic)
		}
		pics[i] = relation.PictureSpec{Picture: pic, Opts: a.opts}
	}
	if out.times, err = rel.BuildIndexes(def.indexed, pics, objectsIn); err != nil {
		return err
	}
	out.rel = rel
	return nil
}

// catalogRecord is one decoded snapshot record; tag says which of the
// other fields it carries.
type catalogRecord struct {
	tag  byte
	name string     // location, picture, or an object's picture
	rect geom.Rect  // location rectangle or picture extent
	rel  decodedRel // catRelation, catSharded
}

// decodeCatalogRecord decodes one snapshot record. Every failure wraps
// ErrCorrupt, except a record in a retired layout, which wraps
// ErrUnsupportedFormat.
func decodeCatalogRecord(raw []byte) (catalogRecord, error) {
	if len(raw) == 0 {
		return catalogRecord{}, errCatalog("empty")
	}
	rec := catalogRecord{tag: raw[0]}
	name, pos, err := readString(raw, 1)
	if err != nil {
		return rec, err
	}
	rec.name = name
	switch rec.tag {
	case catLocation, catPicture:
		rec.rect, _, err = readRect(raw, pos)
	case catObject:
		// The reload calls decodeObjectRecord itself, once per object and
		// without the name copy above.
		_, _, err = decodeObjectRecord(raw)
	case catRelation, catSharded:
		rec.rel, err = decodeRelDef(raw, name, pos)
	case catShardedV1:
		err = fmt.Errorf("pictdb: relation %q: %w: V1 sharded-relation catalog record", name, ErrUnsupportedFormat)
	default:
		err = errCatalog("unknown tag %q", rec.tag)
	}
	return rec, err
}

// decodedRel mirrors the persisted relation definition. Exactly one of
// heapFirst (unsharded) and shardFirsts (sharded, one heap handle and
// one Hilbert key range per shard) is meaningful.
type decodedRel struct {
	name        string
	heapFirst   pager.PageID
	shardFirsts []pager.PageID
	shardRanges []relation.KeyRange
	schema      Schema
	indexed     []string
	assocs      []struct {
		pic  string
		opts pack.Options
	}
}

// decodeRelDef decodes the body of a relation record whose name ended
// at pos.
func decodeRelDef(rec []byte, name string, pos int) (decodedRel, error) {
	def := decodedRel{name: name}
	if rec[0] == catSharded {
		n, w := binary.Uvarint(rec[pos:])
		if w <= 0 || n == 0 || n > 1<<16 {
			return def, errCatalog("bad shard count")
		}
		pos += w
		if pos+(4+16)*int(n) > len(rec) {
			return def, errCatalog("truncated shard heap pages or key ranges")
		}
		def.shardFirsts = make([]pager.PageID, n)
		for i := range def.shardFirsts {
			def.shardFirsts[i] = pager.PageID(binary.LittleEndian.Uint32(rec[pos:]))
			pos += 4
		}
		def.shardRanges = make([]relation.KeyRange, n)
		for i := range def.shardRanges {
			def.shardRanges[i].Lo = binary.LittleEndian.Uint64(rec[pos:])
			def.shardRanges[i].Hi = binary.LittleEndian.Uint64(rec[pos+8:])
			pos += 16
		}
	} else {
		if pos+4 > len(rec) {
			return def, errCatalog("truncated relation heap page")
		}
		def.heapFirst = pager.PageID(binary.LittleEndian.Uint32(rec[pos:]))
		pos += 4
	}

	arity, w := binary.Uvarint(rec[pos:])
	if w <= 0 {
		return def, errCatalog("truncated relation arity")
	}
	pos += w
	for i := uint64(0); i < arity; i++ {
		colName, np, err := readString(rec, pos)
		if err != nil {
			return def, err
		}
		pos = np
		if pos >= len(rec) {
			return def, errCatalog("truncated column type")
		}
		def.schema.Columns = append(def.schema.Columns, Column{Name: colName, Type: ColumnType(rec[pos])})
		pos++
	}

	nIdx, w := binary.Uvarint(rec[pos:])
	if w <= 0 {
		return def, errCatalog("truncated index list")
	}
	pos += w
	for i := uint64(0); i < nIdx; i++ {
		col, np, err := readString(rec, pos)
		if err != nil {
			return def, err
		}
		def.indexed = append(def.indexed, col)
		pos = np
	}

	nAssoc, w := binary.Uvarint(rec[pos:])
	if w <= 0 {
		return def, errCatalog("truncated association list")
	}
	pos += w
	for i := uint64(0); i < nAssoc; i++ {
		pn, np, err := readString(rec, pos)
		if err != nil {
			return def, err
		}
		pos = np
		if pos+2 > len(rec) {
			return def, errCatalog("truncated association options")
		}
		opts := pack.Options{Method: pack.Method(rec[pos]), TrimToMultiple: rec[pos+1] == 1}
		pos += 2
		def.assocs = append(def.assocs, struct {
			pic  string
			opts pack.Options
		}{pic: pn, opts: opts})
	}
	return def, nil
}
