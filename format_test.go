package pictdb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/pager"
	"repro/internal/relation"
	"repro/internal/storage"
)

// relRecordBody appends a relation record's schema, index and
// association lists: (name string, loc loc), a B-tree on name, picture
// "map" with the packing bytes the encoder writes (Hilbert, 0).
func relRecordBody(rec []byte) []byte {
	rec = binary.AppendUvarint(rec, 2) // arity
	rec = append(appendString(rec, "name"), byte(relation.TypeString))
	rec = append(appendString(rec, "loc"), byte(relation.TypeLoc))
	rec = appendString(binary.AppendUvarint(rec, 1), "name")
	rec = appendString(binary.AppendUvarint(rec, 1), "map")
	return append(rec, 3, 0)
}

// v1ShardedRecord hand-builds the sharded-relation record of an old
// build: tag 'S', name, shard count, one heap page per shard, then the
// schema, index and association lists — and no key ranges.
func v1ShardedRecord() []byte {
	rec := appendString([]byte{'S'}, "pts")
	rec = binary.AppendUvarint(rec, 2)
	rec = binary.LittleEndian.AppendUint32(rec, 2)
	rec = binary.LittleEndian.AppendUint32(rec, 2)
	rec = binary.AppendUvarint(rec, 2) // arity
	rec = append(appendString(rec, "name"), byte(relation.TypeString))
	rec = append(appendString(rec, "loc"), byte(relation.TypeLoc))
	rec = binary.AppendUvarint(rec, 0)  // indexed columns
	return binary.AppendUvarint(rec, 0) // picture associations
}

// writeCatalogFile hand-builds a page file whose superblock carries
// magic and whose definitions heap holds exactly the given records.
func writeCatalogFile(t *testing.T, path string, magic [8]byte, recs ...[]byte) {
	t.Helper()
	p := openLogged(t, path)
	sb, err := p.Allocate()
	if err != nil || sb.ID != superblockID {
		t.Fatalf("superblock: page %v, %v", sb, err)
	}
	defs, _, err := storage.Create(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if _, err := defs.Insert(rec); err != nil {
			t.Fatal(err)
		}
	}
	copy(sb.Data[:8], magic[:])
	binary.LittleEndian.PutUint32(sb.Data[8:12], uint32(defs.FirstPage()))
	sb.MarkDirty()
	p.Unpin(sb)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// openLogged opens the page file at path with its log attached, as a
// pager that writes must be.
func openLogged(t *testing.T, path string) *pager.Pager {
	t.Helper()
	p, err := pager.Open(path, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.EnableWAL(); err != nil {
		p.Close()
		t.Fatal(err)
	}
	return p
}

// refuseUnchanged opens path, asserts the open is refused with
// ErrUnsupportedFormat (not a corruption finding), and that no file of
// the set path names changed.
func refuseUnchanged(t *testing.T, path string) {
	t.Helper()
	files, err := filepath.Glob(path + "*")
	if err != nil || len(files) == 0 {
		t.Fatalf("%s: no files: %v", path, err)
	}
	before := make(map[string][]byte)
	for _, f := range files {
		if before[f], err = os.ReadFile(f); err != nil {
			t.Fatal(err)
		}
	}
	db, err := Open(path, 16)
	if err == nil {
		db.Close()
		t.Fatalf("%s: opened, want ErrUnsupportedFormat", path)
	}
	if !errors.Is(err, ErrUnsupportedFormat) {
		t.Fatalf("%s: %v, want ErrUnsupportedFormat", path, err)
	}
	if IsCorruption(err) {
		t.Fatalf("%s: an old format is not corruption: %v", path, err)
	}
	for f, b := range before {
		after, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, after) {
			t.Fatalf("%s: refused open modified %s", path, f)
		}
	}
}

// TestUnsupportedFormatRefused: Open refuses a v1 page file, a file
// whose catalog superblock is PICTCAT1 — the format that kept picture
// objects in the catalog — and testdata/sharded_pr32, a PICTCAT2 file
// set whose 2-store relation keeps its stores in page files of their own
// (a catShardFiles record), with the typed sentinel, and leaves every
// file's bytes as it found them.
func TestUnsupportedFormatRefused(t *testing.T) {
	dir := t.TempDir()
	v1 := filepath.Join(dir, "v1.db")
	hdr := make([]byte, pager.PageSize)
	copy(hdr, "PICTDB01")
	binary.LittleEndian.PutUint32(hdr[8:12], 1)
	if err := os.WriteFile(v1, hdr, 0o644); err != nil {
		t.Fatal(err)
	}
	cat1 := filepath.Join(dir, "cat1.db")
	writeCatalogFile(t, cat1, catMagicV1, v1ShardedRecord())
	shardFiles := filepath.Join(dir, "sharded.pictdb")
	fixture, err := filepath.Glob(filepath.Join("testdata", "sharded_pr32", "*"))
	if err != nil || len(fixture) != 6 {
		t.Fatalf("fixture sharded_pr32: %d files, %v", len(fixture), err)
	}
	for _, f := range fixture {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(f)), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, path := range []string{v1, cat1, shardFiles} {
		refuseUnchanged(t, path)
	}
}

// setPackingBytes rewrites, in the closed database at path, the last
// two bytes of relation rel's definitions record — the packing bytes of
// its one attached picture — to method and trim, as an earlier build
// wrote them.
func setPackingBytes(t *testing.T, path, rel string, method, trim byte) {
	t.Helper()
	p := openLogged(t, path)
	sb, err := p.Fetch(superblockID)
	if err != nil {
		t.Fatal(err)
	}
	first := pager.PageID(binary.LittleEndian.Uint32(sb.Data[8:12]))
	p.Unpin(sb)
	defs, err := storage.Open(p, first)
	if err != nil {
		t.Fatal(err)
	}
	var at storage.TupleID
	var rec []byte
	if err := defs.Scan(func(id storage.TupleID, raw []byte) bool {
		if name, _, err := readString(raw, 1); err == nil && raw[0] == catRelation && name == rel {
			at, rec = id, bytes.Clone(raw)
		}
		return rec == nil
	}); err != nil || rec == nil {
		t.Fatalf("relation %q record: %v", rel, err)
	}
	if rec[len(rec)-2] != byte(PackHilbert) || rec[len(rec)-1] != 0 {
		t.Fatalf("packing bytes %v, want the encoder's (Hilbert, 0)", rec[len(rec)-2:])
	}
	rec[len(rec)-2], rec[len(rec)-1] = method, trim
	if err := defs.Delete(at); err != nil {
		t.Fatal(err)
	}
	if _, err := defs.Insert(rec); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReopenIgnoresPackingBytes: a definitions record written by an
// earlier build that packed a picture nearest-neighbour with
// TrimToMultiple — which left the remainder past a multiple of the
// fanout out of the index on every reopen — reopens fully indexed: the
// reload packs every index with Hilbert order and reads past the bytes.
func TestReopenIgnoresPackingBytes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.db")
	db, err := Open(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	pic, err := db.CreatePicture("map", R(0, 0, 100, 100))
	if err != nil {
		t.Fatal(err)
	}
	rel, err := db.CreateRelation("pts", MustSchema("n:int", "loc:loc"))
	if err != nil {
		t.Fatal(err)
	}
	const n = 10 // not a multiple of the fanout
	for i := 0; i < n; i++ {
		oid := pic.AddPoint("", Pt(float64(5+9*i), float64(95-9*i)))
		if _, err := rel.Insert(Tuple{I(int64(i)), L("map", oid)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := rel.AttachPicture(pic, PackOptions{Method: PackHilbert}); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	setPackingBytes(t, path, "pts", byte(PackNN), 1)

	db, err = Open(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rel, _ = db.Relation("pts")
	indexed := 0
	for _, si := range rel.Spatials("map") {
		indexed += si.Len()
	}
	if indexed != n {
		t.Fatalf("%d of %d located tuples indexed", indexed, n)
	}
	const q = `select n from pts on map at loc covered-by {50±50, 50±50}`
	got, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := db.QueryNaive(q)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != n || got.Format() != want.Format() {
		t.Fatalf("rows:\n%s\nnaive:\n%s", got.Format(), want.Format())
	}
	if report := db.Check(); !report.OK() {
		t.Fatal(report.Err())
	}
}

// FuzzDecodeCatalogRecord feeds arbitrary bytes to the catalog loader's
// record decoder. Properties: it never panics, and it rejects only with
// ErrCorrupt — or, for a record of sequence ids or of stores in page
// files of their own, with ErrUnsupportedFormat.
func FuzzDecodeCatalogRecord(f *testing.F) {
	f.Add(v1ShardedRecord())
	f.Add(append([]byte{catRelation}, v1ShardedRecord()[1:]...))  // a current record
	f.Add(append([]byte{catSeqPrefix}, v1ShardedRecord()[1:]...)) // two refused ones
	f.Add(append([]byte{catShardFiles}, v1ShardedRecord()[1:]...))
	f.Add(appendRect(appendString([]byte{catLocation}, "east"), R(0, 0, 10, 10)))
	f.Add(appendRect(appendString([]byte{catPicture}, "map"), R(0, 0, 100, 100)))
	f.Add(binary.LittleEndian.AppendUint32(appendString([]byte{catRelation}, "r"), 7))
	f.Add(relRecordBody(binary.LittleEndian.AppendUint32(binary.AppendUvarint(appendString([]byte{catRelation}, "pts"), 1), 2)))
	f.Add(relRecordBody(binary.LittleEndian.AppendUint32(binary.AppendUvarint(appendString([]byte{catRelation}, "pts"), 1), 0))) // a store that never held a row
	f.Add([]byte{})
	f.Add([]byte{catLocation, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		_, err := decodeCatalogRecord(data)
		if err == nil || errors.Is(err, ErrCorrupt) {
			return
		}
		if !errors.Is(err, ErrUnsupportedFormat) || (data[0] != catSeqPrefix && data[0] != catShardFiles) {
			t.Fatalf("untyped decode error: %v (input %x)", err, data)
		}
	})
}
