package relation

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/picture"
	"repro/internal/storage"
)

// Tuple wire format, every heap record being one tuple body:
//
//	uvarint column count, then per column:
//	  byte type tag
//	  int:    8 bytes little-endian two's complement
//	  float:  8 bytes little-endian IEEE-754
//	  string: uvarint length + bytes
//	  loc:    uvarint picture-name length + bytes, then the object the
//	          loc names as picture.EncodeObject lays it out — its first
//	          8 bytes are the object id. A zero loc (no picture, object
//	          0) has the 8-byte id alone.
//
// The object inside a loc column is the geometry the tuple stands for,
// and the record is the object's one home: the reload rebuilds the
// spatial indexes from it (build.go), and a decoded loc carries it
// (Value.Str).

// EncodeTuple serializes t's body with every loc as its picture name
// and object id alone: the bytes a row holds of its own, and the body of
// a stored tuple whose locs are all zero. A stored tuple's non-zero loc
// carries the rest of its object after the id (Relation.Insert), and
// DecodeTuple requires it.
func EncodeTuple(t Tuple) []byte { return appendBody(nil, t, false) }

// appendBody appends t's body to buf. With objects set, every non-zero
// loc is written as its picture name and the object encoding it carries
// (resolveLocs); otherwise as its name and object id (EncodeTuple).
func appendBody(buf []byte, t Tuple, objects bool) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(t)))
	for _, v := range t {
		buf = append(buf, byte(v.Type))
		switch v.Type {
		case TypeInt:
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v.Int))
		case TypeFloat:
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.Float))
		case TypeString:
			buf = binary.AppendUvarint(buf, uint64(len(v.Str)))
			buf = append(buf, v.Str...)
		case TypeLoc:
			buf = binary.AppendUvarint(buf, uint64(len(v.Loc.Picture)))
			buf = append(buf, v.Loc.Picture...)
			if objects && !v.Loc.IsZero() {
				buf = append(buf, v.Str...)
			} else {
				buf = binary.LittleEndian.AppendUint64(buf, uint64(v.Loc.Object))
			}
		}
	}
	return buf
}

// errTuple is a body that does not decode: storage corruption.
func errTuple(format string, args ...any) error {
	return fmt.Errorf("%w: relation: %w", storage.ErrCorrupt, fmt.Errorf(format, args...))
}

// DecodeTuple parses a tuple body.
func DecodeTuple(rec []byte) (Tuple, error) { return DecodeTupleCols(rec, nil) }

// DecodeTupleCols parses a tuple body, materializing only the columns
// whose need flag is set. Skipped columns keep their type tag but carry
// a zero payload — in particular no string, picture-name or object bytes
// are copied out of rec, which is what makes batch materialization over
// pinned pages cheap when a query touches a few columns of a wide
// tuple. A nil need (or one shorter than the tuple) decodes the
// remaining columns, so DecodeTupleCols(rec, nil) == DecodeTuple(rec).
// Validation is not relaxed: a corrupt body — a loc's inline object
// included — fails the same way whether or not the broken column was
// needed. A non-zero loc that is materialized carries its object's
// encoding, copied with its picture name in one string.
func DecodeTupleCols(rec []byte, need []bool) (Tuple, error) {
	return decodeCols(rec, need, nil, nil, nil)
}

// locBytes is where a non-zero loc column's picture name and object
// encoding lie inside a body.
type locBytes struct {
	pic, obj []byte
}

// wants reports whether mask selects column i: a nil mask selects every
// column, and one shorter than the tuple the columns it does not reach.
func wants(mask []bool, i int) bool { return mask == nil || i >= len(mask) || mask[i] }

// decodeCols is DecodeTupleCols writing the values into dst[:0] when
// the tuple fits dst's capacity — a batch fetch hands each tuple its
// slot of an arena — and into a fresh slice otherwise. locs[i] is set
// for every non-zero loc column i within its length (and left alone for
// the others), and starts[i] to the offset of column i's type tag for
// every column within starts' length.
func decodeCols(rec []byte, need []bool, dst Tuple, locs []locBytes, starts []int) (Tuple, error) {
	n, off := binary.Uvarint(rec)
	if off <= 0 {
		return nil, errTuple("corrupt tuple header")
	}
	// Every column takes at least one byte, so a count exceeding the
	// remaining bytes is corrupt — and must be rejected before it sizes
	// an allocation.
	if n > uint64(len(rec)-off) {
		return nil, errTuple("corrupt tuple header: %d columns in %d bytes", n, len(rec))
	}
	out := dst[:0]
	if uint64(cap(out)) < n {
		out = make(Tuple, 0, n)
	}
	pos := off
	for i := range int(n) {
		if pos >= len(rec) {
			return nil, errTuple("truncated tuple at column %d", i)
		}
		if i < len(starts) {
			starts[i] = pos
		}
		out = append(out, Value{})
		var err error
		if pos, err = decodeCol(rec, pos, i, wants(need, i), &out[i], locs); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// decodeCol parses column i, whose type tag is rec[pos], into v — its
// payload only when want is set, its type tag always — and returns the
// offset of the next column. It validates the column whatever want is.
func decodeCol(rec []byte, pos, i int, want bool, v *Value, locs []locBytes) (int, error) {
	typ := Type(rec[pos])
	pos++
	*v = Value{Type: typ}
	switch typ {
	case TypeInt, TypeFloat:
		if pos+8 > len(rec) {
			return 0, errTuple("truncated numeric column %d", i)
		}
		if want {
			bits := binary.LittleEndian.Uint64(rec[pos:])
			if typ == TypeInt {
				v.Int = int64(bits)
			} else {
				v.Float = math.Float64frombits(bits)
			}
		}
		return pos + 8, nil
	case TypeString:
		l, w := binary.Uvarint(rec[pos:])
		// Bound l before converting: a 64-bit length can wrap int
		// and slip past the range check as a negative slice index.
		if w <= 0 || l > uint64(len(rec)) || pos+w+int(l) > len(rec) {
			return 0, errTuple("truncated string column %d", i)
		}
		pos += w
		if want {
			v.Str = string(rec[pos : pos+int(l)])
		}
		return pos + int(l), nil
	case TypeLoc:
		l, w := binary.Uvarint(rec[pos:])
		if w <= 0 || l > uint64(len(rec)) || pos+w+int(l)+8 > len(rec) {
			return 0, errTuple("truncated loc column %d", i)
		}
		pos += w
		pic := rec[pos : pos+int(l)]
		pos += int(l)
		obj := picture.ObjectID(binary.LittleEndian.Uint64(rec[pos:]))
		size := 8
		if l > 0 || obj != 0 {
			var err error
			if size, err = picture.ObjectLen(rec[pos:]); err != nil {
				return 0, errTuple("loc column %d: %w", i, err)
			}
			if i < len(locs) {
				locs[i] = locBytes{pic: pic, obj: rec[pos : pos+size]}
			}
			if want {
				both := string(rec[pos-int(l) : pos+size])
				v.Loc, v.Str = LocRef{Picture: both[:l], Object: obj}, both[l:]
			}
		}
		return pos + size, nil
	default:
		return 0, errTuple("unknown type tag %d in column %d", typ, i)
	}
}

// startsOnStack is the widest tuple whose column offsets a batch fetch
// keeps in an array on its stack (tupleArena.decode); a wider relation's
// fetch allocates its offsets once, at its arity.
const startsOnStack = 16

// decodeKept is the terms-first decode of a batch fetch: with keep
// non-nil the body is decoded on test's columns alone and shown to
// keep, and only a tuple keep accepts has need's columns materialized;
// ok is false for one it rejects. The decode goes to dst as in
// decodeCols. Its first pass validates the whole body, so a corrupt one
// fails whether or not keep would have rejected it — and exactly when
// DecodeTupleCols(rec, nil) fails — and records in starts where each
// column starts: a kept tuple then has the columns need selects and test
// did not parsed from there, and the columns test selected and need does
// not zeroed, so it is decoded once. starts is the caller's scratch; a
// body with more columns than it holds, which no stored tuple of the
// relation has, gets offsets allocated at its width.
func decodeKept(rec []byte, need, test []bool, keep func(Tuple) bool, dst Tuple, starts []int) (t Tuple, ok bool, err error) {
	if keep == nil {
		t, err = decodeCols(rec, need, dst, nil, nil)
		return t, err == nil, err
	}
	if n, w := binary.Uvarint(rec); w > 0 && n > uint64(len(starts)) && n <= uint64(len(rec)) {
		starts = make([]int, n)
	}
	if t, err = decodeCols(rec, test, dst, nil, starts); err != nil || !keep(t) {
		return nil, false, err
	}
	for i := range t {
		switch n, s := wants(need, i), wants(test, i); {
		case n && !s:
			if _, err = decodeCol(rec, starts[i], i, true, &t[i], nil); err != nil {
				return nil, false, err
			}
		case s && !n:
			t[i] = Value{Type: t[i].Type}
		}
	}
	return t, true, nil
}

// IndexKey returns an order-preserving byte encoding of v:
// bytes.Compare on keys matches Value.Compare on values of the same
// type. Used as B-tree keys for alphanumeric indexes.
func IndexKey(v Value) []byte {
	switch v.Type {
	case TypeInt:
		// Flip the sign bit: two's-complement order becomes unsigned
		// byte order.
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], uint64(v.Int)^(1<<63))
		return b[:]
	case TypeFloat:
		bits := math.Float64bits(v.Float)
		// IEEE-754 totally ordered encoding: flip all bits of
		// negatives, flip only the sign bit of non-negatives.
		if bits>>63 == 1 {
			bits = ^bits
		} else {
			bits ^= 1 << 63
		}
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], bits)
		return b[:]
	case TypeString:
		return []byte(v.Str)
	case TypeLoc:
		key := append([]byte(v.Loc.Picture), 0)
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], uint64(v.Loc.Object))
		return append(key, b[:]...)
	default:
		return nil
	}
}

// IndexKeySuccessor returns the smallest key strictly greater than
// every key equal to k: used as the exclusive upper bound for
// equality scans.
func IndexKeySuccessor(k []byte) []byte {
	return append(append([]byte(nil), k...), 0)
}
