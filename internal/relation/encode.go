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
	return decodeCols(rec, need, nil, nil)
}

// locBytes is where a non-zero loc column's picture name and object
// encoding lie inside a body.
type locBytes struct {
	pic, obj []byte
}

// wants reports whether mask selects column i: a nil mask selects every
// column, and one shorter than the tuple the columns it does not reach.
func wants(mask []bool, i int) bool { return mask == nil || i >= len(mask) || mask[i] }

// header returns a body's column count and the offset of its first
// column.
func header(rec []byte) (n, pos int, err error) {
	c, w := binary.Uvarint(rec)
	if w <= 0 {
		return 0, 0, errTuple("corrupt tuple header")
	}
	// Every column takes at least one byte, so a count exceeding the
	// remaining bytes is corrupt — and must be rejected before it sizes
	// an allocation.
	if c > uint64(len(rec)-w) {
		return 0, 0, errTuple("corrupt tuple header: %d columns in %d bytes", c, len(rec))
	}
	return int(c), w, nil
}

// decodeCols is DecodeTupleCols writing the values into dst[:0] when
// the tuple fits dst's capacity, and into a fresh slice otherwise.
// locs[i] is set for every non-zero loc column i within its length (and
// left alone for the others).
func decodeCols(rec []byte, need []bool, dst Tuple, locs []locBytes) (Tuple, error) {
	n, pos, err := header(rec)
	if err != nil {
		return nil, err
	}
	out := dst[:0]
	if cap(out) < n {
		out = make(Tuple, 0, n)
	}
	for i := range n {
		if pos >= len(rec) {
			return nil, errTuple("truncated tuple at column %d", i)
		}
		out = append(out, Value{})
		if pos, err = decodeCol(rec, pos, i, wants(need, i), &out[i], locs); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// span is where one column of a body lies, as checkCol found it: the
// variable part — a string's bytes, a loc's picture name — at
// rec[lo:mid], and the fixed part — a number's 8 bytes, a loc's object
// encoding, or its bare id for a zero loc — at rec[mid:end].
type span struct {
	typ          Type
	lo, mid, end int
}

// checkCol is the one column validator, behind every decode and every
// term: it finds column i, whose type tag is rec[pos], and checks that
// its type tag is known and its parts lie inside rec, a non-zero loc's
// whole object encoding included.
func checkCol(rec []byte, pos, i int) (span, error) {
	typ := Type(rec[pos])
	pos++
	switch typ {
	case TypeInt, TypeFloat:
		if pos+8 > len(rec) {
			return span{}, errTuple("truncated numeric column %d", i)
		}
		return span{typ, pos, pos, pos + 8}, nil
	case TypeString:
		l, w := binary.Uvarint(rec[pos:])
		// Bound l before converting: a 64-bit length can wrap int
		// and slip past the range check as a negative slice index.
		if w <= 0 || l > uint64(len(rec)) || pos+w+int(l) > len(rec) {
			return span{}, errTuple("truncated string column %d", i)
		}
		end := pos + w + int(l)
		return span{typ, pos + w, end, end}, nil
	case TypeLoc:
		l, w := binary.Uvarint(rec[pos:])
		if w <= 0 || l > uint64(len(rec)) || pos+w+int(l)+8 > len(rec) {
			return span{}, errTuple("truncated loc column %d", i)
		}
		c := span{typ: typ, lo: pos + w, mid: pos + w + int(l)}
		size := 8
		if l > 0 || binary.LittleEndian.Uint64(rec[c.mid:]) != 0 {
			var err error
			if size, err = picture.ObjectLen(rec[c.mid:]); err != nil {
				return span{}, errTuple("loc column %d: %w", i, err)
			}
		}
		c.end = c.mid + size
		return c, nil
	default:
		return span{}, errTuple("unknown type tag %d in column %d", typ, i)
	}
}

// decodeCol parses column i, whose type tag is rec[pos], into v — its
// payload only when want is set, its type tag always — and returns the
// offset of the next column. It validates the column whatever want is.
func decodeCol(rec []byte, pos, i int, want bool, v *Value, locs []locBytes) (int, error) {
	c, err := checkCol(rec, pos, i)
	if err != nil {
		return 0, err
	}
	*v = Value{Type: c.typ}
	switch c.typ {
	case TypeInt:
		if want {
			v.Int = int64(binary.LittleEndian.Uint64(rec[c.mid:]))
		}
	case TypeFloat:
		if want {
			v.Float = math.Float64frombits(binary.LittleEndian.Uint64(rec[c.mid:]))
		}
	case TypeString:
		if want {
			v.Str = string(rec[c.lo:c.mid])
		}
	case TypeLoc:
		obj := picture.ObjectID(binary.LittleEndian.Uint64(rec[c.mid:]))
		if c.mid == c.lo && obj == 0 {
			break // a zero loc
		}
		if i < len(locs) {
			locs[i] = locBytes{pic: rec[c.lo:c.mid], obj: rec[c.mid:c.end]}
		}
		if want {
			both := string(rec[c.lo:c.end])
			l := c.mid - c.lo
			v.Loc, v.Str = LocRef{Picture: both[:l], Object: obj}, both[l:]
		}
	}
	return c.end, nil
}

// Op is how a Term compares a stored column with its value.
type Op uint8

const (
	// OpEq, OpLt, OpLe, OpGt and OpGe compare as PSQL's where-clause
	// does: numbers as their float64 images, whether int or float;
	// strings bytewise. A stored value that does not compare with the
	// term's (a string against a number, a loc, a NaN) equals nothing
	// and satisfies what an ordering result of zero satisfies: OpLe and
	// OpGe.
	OpEq Op = iota
	OpLt
	OpLe
	OpGt
	OpGe
	// OpSame holds when the stored value is Val as Value.Eq decides: the
	// same type and value, a loc naming the same object.
	OpSame
)

// Term is one where-term a fetch or scan tests on each record, on the
// bytes of column Col alone: its value compared with Val by Op. A record
// is kept when every term of a list holds.
type Term struct {
	Col int
	Op  Op
	Val Value
}

// holds reports whether the term holds of column c of rec.
func (t *Term) holds(rec []byte, c span) bool {
	if t.Op == OpSame {
		return t.same(rec, c)
	}
	eq, cmp := false, 0
	switch {
	case c.typ == TypeString && t.Val.Type == TypeString:
		switch s := rec[c.lo:c.mid]; {
		case string(s) == t.Val.Str:
			eq = true
		case string(s) < t.Val.Str:
			cmp = -1
		default:
			cmp = 1
		}
	case isNumber(c.typ) && isNumber(t.Val.Type):
		a, b := numberAt(rec, c), t.Val.Float
		if t.Val.Type == TypeInt {
			b = float64(t.Val.Int)
		}
		eq = a == b
		switch {
		case a < b:
			cmp = -1
		case a > b:
			cmp = 1
		}
	}
	switch t.Op {
	case OpEq:
		return eq
	case OpLt:
		return cmp < 0
	case OpLe:
		return cmp <= 0
	case OpGt:
		return cmp > 0
	case OpGe:
		return cmp >= 0
	}
	return false
}

// same is OpSame: Value.Eq of the stored value and Val.
func (t *Term) same(rec []byte, c span) bool {
	v := &t.Val
	if c.typ != v.Type {
		return false
	}
	w := Value{Type: c.typ}
	switch c.typ {
	case TypeLoc:
		return string(rec[c.lo:c.mid]) == v.Loc.Picture &&
			picture.ObjectID(binary.LittleEndian.Uint64(rec[c.mid:])) == v.Loc.Object
	case TypeString:
		if string(rec[c.lo:c.mid]) != v.Str {
			return false
		}
		w.Str = v.Str
	case TypeInt:
		w.Int = int64(binary.LittleEndian.Uint64(rec[c.mid:]))
	case TypeFloat:
		w.Float = math.Float64frombits(binary.LittleEndian.Uint64(rec[c.mid:]))
	}
	return *v == w
}

func isNumber(t Type) bool { return t == TypeInt || t == TypeFloat }

// numberAt returns the float64 image of number column c of rec.
func numberAt(rec []byte, c span) float64 {
	bits := binary.LittleEndian.Uint64(rec[c.mid:])
	if c.typ == TypeInt {
		return float64(int64(bits))
	}
	return math.Float64frombits(bits)
}

// startsOnStack is the widest tuple whose column offsets a batch fetch
// keeps in an array on its stack (tupleArena.decode); a wider relation's
// fetch allocates its offsets once, at its arity.
const startsOnStack = 16

// match is the first step of the terms-first decode: one walk over the
// body that validates every column with checkCol — so a corrupt body
// fails, with DecodeTuple's error, whether or not a term would have
// rejected it — and records where each column starts, then the terms,
// each tested on its column's bytes. ok is false when a term rejects the
// record. A term on a column past the body's last is corruption, whether
// or not another term rejects the record. It returns the offsets, in starts when the body's columns fit it and in
// a slice allocated at their count otherwise.
func match(rec []byte, terms []Term, starts []int) (_ []int, ok bool, err error) {
	n, pos, err := header(rec)
	if err != nil {
		return nil, false, err
	}
	if n > len(starts) {
		starts = make([]int, n)
	}
	starts = starts[:n]
	for i := range starts {
		if pos >= len(rec) {
			return nil, false, errTuple("truncated tuple at column %d", i)
		}
		starts[i] = pos
		c, err := checkCol(rec, pos, i)
		if err != nil {
			return nil, false, err
		}
		pos = c.end
	}
	for k := range terms {
		if col := terms[k].Col; col < 0 || col >= n {
			return nil, false, errTuple("a term on column %d of a %d-column tuple", col, n)
		}
	}
	for k := range terms {
		t := &terms[k]
		c, _ := checkCol(rec, starts[t.Col], t.Col) // the walk validated it
		if !t.holds(rec, c) {
			return nil, false, nil
		}
	}
	return starts, true, nil
}

// decodeAt decodes the body whose columns match found at starts into
// dst[:0] when it fits dst's capacity and into a fresh slice otherwise:
// the columns need selects in full, the others as their type tag.
func decodeAt(rec []byte, need []bool, starts []int, dst Tuple) (Tuple, error) {
	t := dst[:0]
	if cap(t) < len(starts) {
		t = make(Tuple, 0, len(starts))
	}
	t = t[:len(starts)]
	for i, pos := range starts {
		if !wants(need, i) {
			t[i] = Value{Type: Type(rec[pos])}
			continue
		}
		if _, err := decodeCol(rec, pos, i, true, &t[i], nil); err != nil {
			return nil, err
		}
	}
	return t, nil
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
