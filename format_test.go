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

// v1ShardedRecord hand-builds the retired sharded-relation catalog
// record: tag 'S', name, shard count, one heap page per shard, then the
// schema, index and association lists — and no key ranges.
func v1ShardedRecord() []byte {
	rec := appendString([]byte{catShardedV1}, "pts")
	rec = binary.AppendUvarint(rec, 2)
	rec = binary.LittleEndian.AppendUint32(rec, 2)
	rec = binary.LittleEndian.AppendUint32(rec, 2)
	rec = binary.AppendUvarint(rec, 2) // arity
	rec = append(appendString(rec, "name"), byte(relation.TypeString))
	rec = append(appendString(rec, "loc"), byte(relation.TypeLoc))
	rec = binary.AppendUvarint(rec, 0)  // indexed columns
	return binary.AppendUvarint(rec, 0) // picture associations
}

// writeCatalogFile hand-builds a page file whose catalog snapshot holds
// exactly the given records.
func writeCatalogFile(t *testing.T, path string, recs ...[]byte) {
	t.Helper()
	p, err := pager.Open(path, 16)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := p.Allocate()
	if err != nil || sb.ID != superblockID {
		t.Fatalf("superblock: page %v, %v", sb, err)
	}
	snap, first, err := storage.Create(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if _, err := snap.Insert(rec); err != nil {
			t.Fatal(err)
		}
	}
	copy(sb.Data[:8], catMagic[:])
	binary.LittleEndian.PutUint32(sb.Data[8:12], uint32(first))
	sb.MarkDirty()
	p.Unpin(sb)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestUnsupportedFormatRefused: Open refuses a v1 page file and a file
// whose catalog holds a V1 sharded-relation record with the typed
// sentinel, and leaves the file's bytes as it found them.
func TestUnsupportedFormatRefused(t *testing.T) {
	dir := t.TempDir()
	v1 := filepath.Join(dir, "v1.db")
	hdr := make([]byte, pager.PageSize)
	copy(hdr, "PICTDB01")
	binary.LittleEndian.PutUint32(hdr[8:12], 1)
	if err := os.WriteFile(v1, hdr, 0o644); err != nil {
		t.Fatal(err)
	}
	v1cat := filepath.Join(dir, "v1cat.db")
	writeCatalogFile(t, v1cat, v1ShardedRecord())

	for _, path := range []string{v1, v1cat} {
		before, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
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
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before, after) {
			t.Fatalf("%s: refused open modified the file", path)
		}
	}
}

// FuzzDecodeCatalogRecord feeds arbitrary bytes to the catalog loader's
// record decoder. Properties: it never panics, and it rejects only with
// ErrCorrupt or (for a retired layout) ErrUnsupportedFormat.
func FuzzDecodeCatalogRecord(f *testing.F) {
	f.Add(v1ShardedRecord())
	f.Add(append([]byte{catSharded}, v1ShardedRecord()[1:]...)) // current tag, key ranges missing
	f.Add(appendRect(appendString([]byte{catLocation}, "east"), R(0, 0, 10, 10)))
	f.Add(appendRect(appendString([]byte{catPicture}, "map"), R(0, 0, 100, 100)))
	f.Add(binary.LittleEndian.AppendUint32(appendString([]byte{catRelation}, "r"), 7))
	f.Add(appendString([]byte{catObject}, "map"))
	f.Add([]byte{})
	f.Add([]byte{catLocation, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		_, err := decodeCatalogRecord(data)
		if err != nil && !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrUnsupportedFormat) {
			t.Fatalf("untyped decode error: %v (input %x)", err, data)
		}
	})
}
