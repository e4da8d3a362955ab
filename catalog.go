package pictdb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"repro/internal/geom"
	"repro/internal/pack"
	"repro/internal/pager"
	"repro/internal/picture"
	"repro/internal/relation"
	"repro/internal/storage"
)

// Catalog persistence. A file-backed database reserves its first
// allocated page as the superblock:
//
//	bytes 0..7  magic "PICTCAT2"
//	bytes 8..11 PageID of the definitions heap (0 = none)
//
// The definitions are a handful of records: named locations, pictures
// (name and extent), and relations (schema, the first page of each of
// the heap's chains, indexed columns, and attached pictures).
// They are all the catalog holds:
// a tuple carries the object its loc names, so a picture's objects are
// data in its relations' heaps. Commit re-encodes the definitions and,
// when they differ from the ones the superblock names, writes them into
// a fresh heap, points the superblock at it and frees the old one, all
// under the write gate, so they are durable in the same group commit as
// the writes that need them (writeDefinitions). Open reads them and then
// rebuilds every relation from one scan of its heap — its B-trees,
// its packed R-trees and its pictures' next object ids — one relation
// after another, in name order (loadCatalog, relation.Open).
var catMagic = [8]byte{'P', 'I', 'C', 'T', 'C', 'A', 'T', '2'}

// catMagicV1 is the superblock of the format before tuples carried their
// geometry, when picture objects lived in a catalog snapshot. Open
// refuses it with ErrUnsupportedFormat and leaves the file as it is.
var catMagicV1 = [8]byte{'P', 'I', 'C', 'T', 'C', 'A', 'T', '1'}

// superblockID is the well-known page of the superblock: the first
// page ever allocated in a database file.
const superblockID pager.PageID = 1

// Catalog record type tags. A relation record holds the name, the count
// of the heap's chains and each one's first page, the schema, the
// indexed columns, the attached pictures. A relation this engine creates
// has one chain; a file written when a relation could have several
// stores holds one chain per store, and is read as one heap of them.
// Each attached picture's name is followed by two bytes that once chose
// its packing: every index is Hilbert-packed now,
// so they are written as (pack.MethodHilbert, 0) and read past whatever
// they hold. Every heap page is a page of the main file.
const (
	catLocation = 'L'
	catPicture  = 'P'
	catRelation = 'R' // a heap of one or more chains, ids heap addresses
	// catSeqPrefix and catShardFiles are relation records of earlier
	// formats: stores in the main file whose records carried an 8-byte
	// sequence id, and stores in page files of their own beside the main
	// file, each with its own log. Open refuses either with
	// ErrUnsupportedFormat and leaves every file of the set as it is.
	catSeqPrefix  = 'M'
	catShardFiles = 'T'
)

// maxHeapChains bounds a relation record's chain count: the most stores
// a relation could have when each tuple id held its store in a byte.
const maxHeapChains = 255

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
	_, err := db.definitionsPage()
	return err
}

// definitionsPage validates the superblock — the one reader of its bytes,
// for Open and Check alike — and returns the first page of the
// definitions heap it names, InvalidPage when there is none yet.
func (db *Database) definitionsPage() (pager.PageID, error) {
	pg, err := db.pager.Fetch(superblockID)
	if err != nil {
		return pager.InvalidPage, err
	}
	defer db.pager.Unpin(pg)
	switch [8]byte(pg.Data[:8]) {
	case catMagic:
		return pager.PageID(binary.LittleEndian.Uint32(pg.Data[8:12])), nil
	case catMagicV1:
		return pager.InvalidPage, fmt.Errorf("pictdb: %w: catalog format PICTCAT1 (picture objects apart from their tuples)", ErrUnsupportedFormat)
	}
	return pager.InvalidPage, fmt.Errorf("%w: page %d is not a catalog superblock", ErrCorrupt, superblockID)
}

// setDefinitionsPage points the superblock at the definitions heap
// starting at id; the next commit makes it durable.
func (db *Database) setDefinitionsPage(id pager.PageID) error {
	pg, err := db.pager.Fetch(superblockID)
	if err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(pg.Data[8:12], uint32(id))
	pg.MarkDirty()
	db.pager.Unpin(pg)
	return nil
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

// --- definitions -----------------------------------------------------

// encodeDefinitions returns the catalog's definitions as records, in
// one order for one catalog.
func (db *Database) encodeDefinitions() [][]byte {
	cat := db.catalog()
	var recs [][]byte
	for _, name := range sortedNames(cat.locations) {
		rec := appendString([]byte{catLocation}, name)
		recs = append(recs, appendRect(rec, cat.locations[name]))
	}
	for _, name := range sortedNames(cat.pictures) {
		rec := appendString([]byte{catPicture}, name)
		recs = append(recs, appendRect(rec, cat.pictures[name].Extent()))
	}
	for _, name := range sortedNames(cat.relations) {
		recs = append(recs, encodeRelDef(name, cat.relations[name]))
	}
	return recs
}

// encodeRelDef encodes one relation's definition.
func encodeRelDef(name string, rel *Relation) []byte {
	rec := appendString([]byte{catRelation}, name)
	heaps := rel.HeapChains()
	rec = binary.AppendUvarint(rec, uint64(len(heaps)))
	for _, h := range heaps {
		rec = binary.LittleEndian.AppendUint32(rec, uint32(h))
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
		rec = append(appendString(rec, pn), byte(pack.MethodHilbert), 0)
	}
	return rec
}

// writeDefinitions makes the definitions as they stand part of the next
// commit of the main file: when they differ from the ones the superblock
// names, it writes them into a fresh heap, points the superblock at it
// and frees the old heap. The caller holds the write gate, so no commit
// batch holds part of the switch, and commits after it.
func (db *Database) writeDefinitions() error {
	recs := db.encodeDefinitions()
	if slices.EqualFunc(recs, db.defsWritten, bytes.Equal) {
		return nil
	}
	old, err := db.definitionsPage()
	if err != nil {
		return err
	}
	defs, _, err := storage.Create(db.pager)
	if err != nil {
		return err
	}
	for _, rec := range recs {
		if _, err := defs.Insert(rec); err != nil {
			return err
		}
	}
	if err := db.setDefinitionsPage(defs.FirstPage()); err != nil {
		return err
	}
	if old != pager.InvalidPage {
		oldHeap, err := storage.Open(db.pager, old)
		if err != nil {
			return err
		}
		if err := oldHeap.Free(); err != nil {
			return err
		}
	}
	db.defsWritten = recs
	return nil
}

// --- load -------------------------------------------------------------

// nowFn is the clock the reload's phases are timed with; tests replace
// it.
var nowFn = time.Now

// loadTimes is where a catalog reload spent its time: decoding the
// definitions, and the relations' rebuilds summed.
type loadTimes struct {
	Decode time.Duration
	relation.BuildTimes
}

// scanRecords hands every record of the definitions heap to fn; the
// first error stops the scan.
func scanRecords(defs *storage.Heap, fn func(raw []byte) error) error {
	var fnErr error
	err := defs.Scan(func(_ storage.TupleID, raw []byte) bool {
		fnErr = fn(raw)
		return fnErr == nil
	})
	if err != nil {
		return err
	}
	return fnErr
}

// loadCatalog reads the definitions, if any, then rebuilds every
// relation (loadRelation) one after another, in name order — the order
// the definitions are written in — and stops at the first failure. The
// parallelism is inside a relation: its index builds (relation.Open).
func (db *Database) loadCatalog() error {
	defsID, err := db.definitionsPage()
	if err != nil {
		return err
	}
	if defsID == pager.InvalidPage {
		return nil
	}
	defs, err := storage.Open(db.pager, defsID)
	if err != nil {
		return err
	}

	// The database is not shared yet: the reload fills its first catalog
	// in place.
	cat := db.catalog()
	t0 := nowFn()
	var rels []decodedRel
	err = scanRecords(defs, func(raw []byte) error {
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

	for _, def := range rels {
		if err := db.loadRelation(cat, def); err != nil {
			return err
		}
	}
	return nil
}

// loadRelation reopens one persisted relation into cat: relation.Open's
// one scan of its heap.
func (db *Database) loadRelation(cat *catalog, def decodedRel) error {
	rd := relation.Def{
		Name:    def.name,
		Schema:  def.schema,
		Pager:   db.pager,
		Heaps:   def.heaps,
		Columns: def.indexed,
	}
	for _, pn := range def.assocs {
		pic := cat.pictures[pn]
		if pic == nil {
			return errCatalog("relation %q associated with unknown picture %q", def.name, pn)
		}
		rd.Attach = append(rd.Attach, pic)
	}
	rel, times, err := relation.Open(rd, db)
	if err != nil {
		return err
	}
	cat.relations[def.name] = rel
	db.loadTimes.BuildTimes.Add(times)
	return nil
}

// catalogRecord is one decoded definitions record; tag says which of the
// other fields it carries.
type catalogRecord struct {
	tag  byte
	name string     // location, picture or relation
	rect geom.Rect  // location rectangle or picture extent
	rel  decodedRel // catRelation
}

// decodeCatalogRecord decodes one definitions record. A catSeqPrefix or
// catShardFiles record is refused with ErrUnsupportedFormat; every other
// failure wraps ErrCorrupt.
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
	case catRelation:
		rec.rel, err = decodeRelDef(raw, name, pos)
	case catSeqPrefix:
		err = fmt.Errorf("pictdb: %w: relation %q carries a sequence id in every record", ErrUnsupportedFormat, name)
	case catShardFiles:
		err = fmt.Errorf("pictdb: %w: relation %q keeps its stores in page files of their own", ErrUnsupportedFormat, name)
	default:
		err = errCatalog("unknown tag %q", rec.tag)
	}
	return rec, err
}

// decodedRel mirrors the persisted relation definition: heaps holds the
// first page of each of the heap's chains.
type decodedRel struct {
	name    string
	heaps   []pager.PageID
	schema  Schema
	indexed []string
	assocs  []string // attached pictures
}

// decodeRelDef decodes the body of a relation record whose name ended
// at pos.
func decodeRelDef(rec []byte, name string, pos int) (decodedRel, error) {
	def := decodedRel{name: name}
	n, w := binary.Uvarint(rec[pos:])
	if w <= 0 || n == 0 || n > maxHeapChains {
		return def, errCatalog("bad heap chain count")
	}
	pos += w
	if pos+4*int(n) > len(rec) {
		return def, errCatalog("truncated heap pages")
	}
	def.heaps = make([]pager.PageID, n)
	for i := range def.heaps {
		def.heaps[i] = pager.PageID(binary.LittleEndian.Uint32(rec[pos:]))
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
		// The two packing bytes say nothing a reload needs (catRelation).
		if pos+2 > len(rec) {
			return def, errCatalog("truncated association options")
		}
		def.assocs = append(def.assocs, pn)
		pos += 2
	}
	return def, nil
}
