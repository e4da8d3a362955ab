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
// "map" packed with method 3.
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
	p, err := pager.Open(path, 16)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := p.Allocate()
	if err != nil || sb.ID != superblockID {
		t.Fatalf("superblock: page %v, %v", sb, err)
	}
	defs, first, err := storage.Create(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if _, err := defs.Insert(rec); err != nil {
			t.Fatal(err)
		}
	}
	copy(sb.Data[:8], magic[:])
	binary.LittleEndian.PutUint32(sb.Data[8:12], uint32(first))
	sb.MarkDirty()
	p.Unpin(sb)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
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

// TestUnsupportedFormatRefused: Open refuses a v1 page file and a file
// whose catalog superblock is PICTCAT1 — the format that kept picture
// objects in the catalog — with the typed sentinel, and leaves the
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
	for _, path := range []string{v1, cat1} {
		refuseUnchanged(t, path)
	}
}

// FuzzDecodeCatalogRecord feeds arbitrary bytes to the catalog loader's
// record decoder. Properties: it never panics, and it rejects only with
// ErrCorrupt.
func FuzzDecodeCatalogRecord(f *testing.F) {
	f.Add(v1ShardedRecord())
	f.Add(append([]byte{catSharded}, v1ShardedRecord()[1:]...)) // a current record
	f.Add(appendRect(appendString([]byte{catLocation}, "east"), R(0, 0, 10, 10)))
	f.Add(appendRect(appendString([]byte{catPicture}, "map"), R(0, 0, 100, 100)))
	f.Add(binary.LittleEndian.AppendUint32(appendString([]byte{catRelation}, "r"), 7))
	f.Add(relRecordBody(binary.LittleEndian.AppendUint32(binary.AppendUvarint(appendString([]byte{catRelation}, "pts"), 1), 2)))
	f.Add([]byte{})
	f.Add([]byte{catLocation, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		_, err := decodeCatalogRecord(data)
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("untyped decode error: %v (input %x)", err, data)
		}
	})
}
