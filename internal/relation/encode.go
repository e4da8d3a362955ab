package relation

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/picture"
)

// Tuple wire format (heap records):
//
//	uvarint column count, then per column:
//	  byte type tag
//	  int:    8 bytes little-endian two's complement
//	  float:  8 bytes little-endian IEEE-754
//	  string: uvarint length + bytes
//	  loc:    uvarint picture-name length + bytes, 8-byte object id

// EncodeTuple serializes t.
func EncodeTuple(t Tuple) []byte {
	buf := binary.AppendUvarint(nil, uint64(len(t)))
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
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v.Loc.Object))
		}
	}
	return buf
}

// DecodeTuple parses a record produced by EncodeTuple.
func DecodeTuple(rec []byte) (Tuple, error) { return DecodeTupleCols(rec, nil) }

// DecodeTupleCols parses a record, materializing only the columns whose
// need flag is set. Skipped columns keep their type tag but carry a
// zero payload — in particular no string or picture-name bytes are
// copied out of rec, which is what makes batch materialization over
// pinned pages cheap when a query touches a few columns of a wide
// tuple. A nil need (or one shorter than the tuple) decodes the
// remaining columns, so DecodeTupleCols(rec, nil) == DecodeTuple(rec).
// Validation is not relaxed: a corrupt record fails the same way
// whether or not the broken column was needed.
func DecodeTupleCols(rec []byte, need []bool) (Tuple, error) {
	return decodeCols(rec, need, nil)
}

// decodeCols is DecodeTupleCols writing the values into dst[:0] when
// the tuple fits dst's capacity — a batch fetch hands each tuple its
// slice of one arena — and into a fresh slice otherwise.
func decodeCols(rec []byte, need []bool, dst Tuple) (Tuple, error) {
	n, off := binary.Uvarint(rec)
	if off <= 0 {
		return nil, fmt.Errorf("relation: corrupt tuple header")
	}
	// Every column takes at least one byte, so a count exceeding the
	// remaining bytes is corrupt — and must be rejected before it sizes
	// an allocation.
	if n > uint64(len(rec)-off) {
		return nil, fmt.Errorf("relation: corrupt tuple header: %d columns in %d bytes", n, len(rec))
	}
	out := dst[:0]
	if uint64(cap(out)) < n {
		out = make(Tuple, 0, n)
	}
	pos := off
	for i := uint64(0); i < n; i++ {
		if pos >= len(rec) {
			return nil, fmt.Errorf("relation: truncated tuple at column %d", i)
		}
		want := need == nil || i >= uint64(len(need)) || need[i]
		typ := Type(rec[pos])
		pos++
		var v Value
		v.Type = typ
		switch typ {
		case TypeInt, TypeFloat:
			if pos+8 > len(rec) {
				return nil, fmt.Errorf("relation: truncated numeric column %d", i)
			}
			if want {
				bits := binary.LittleEndian.Uint64(rec[pos:])
				if typ == TypeInt {
					v.Int = int64(bits)
				} else {
					v.Float = math.Float64frombits(bits)
				}
			}
			pos += 8
		case TypeString:
			l, w := binary.Uvarint(rec[pos:])
			// Bound l before converting: a 64-bit length can wrap int
			// and slip past the range check as a negative slice index.
			if w <= 0 || l > uint64(len(rec)) || pos+w+int(l) > len(rec) {
				return nil, fmt.Errorf("relation: truncated string column %d", i)
			}
			pos += w
			if want {
				v.Str = string(rec[pos : pos+int(l)])
			}
			pos += int(l)
		case TypeLoc:
			l, w := binary.Uvarint(rec[pos:])
			if w <= 0 || l > uint64(len(rec)) || pos+w+int(l)+8 > len(rec) {
				return nil, fmt.Errorf("relation: truncated loc column %d", i)
			}
			pos += w
			if want {
				v.Loc.Picture = string(rec[pos : pos+int(l)])
				v.Loc.Object = picture.ObjectID(binary.LittleEndian.Uint64(rec[pos+int(l):]))
			}
			pos += int(l) + 8
		default:
			return nil, fmt.Errorf("relation: unknown type tag %d in column %d", typ, i)
		}
		out = append(out, v)
	}
	return out, nil
}

// decodeKept is the terms-first decode of a batch fetch: with keep
// non-nil the record is decoded on test's columns alone and shown to
// keep, and only a tuple keep accepts has need's columns materialized;
// ok is false for one it rejects. Both decodes go to dst as in
// decodeCols, and the first validates the whole record, so a corrupt one
// fails whether or not keep would have rejected it — and exactly when
// DecodeTupleCols(rec, nil) fails.
func decodeKept(rec []byte, need, test []bool, keep func(Tuple) bool, dst Tuple) (t Tuple, ok bool, err error) {
	if keep != nil {
		if t, err = decodeCols(rec, test, dst); err != nil || !keep(t) {
			return nil, false, err
		}
	}
	t, err = decodeCols(rec, need, dst)
	return t, err == nil, err
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
