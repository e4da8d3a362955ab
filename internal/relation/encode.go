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
	var stack [spansOnStack]span
	cols, err := walk(rec, stack[:0])
	if err != nil {
		return nil, err
	}
	return decodeSpans(rec, cols, need, nil), nil
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

// span is where one column of a body lies, as checkCol found it: the
// variable part — a string's bytes, a loc's picture name — at
// rec[lo:mid], and the fixed part — a number's 8 bytes, a loc's object
// encoding, or its bare id for a zero loc — at rec[mid:end].
type span struct {
	typ          Type
	lo, mid, end int
}

// spansOnStack is the widest tuple whose column spans a decode keeps in
// an array of its own — on DecodeTupleCols' stack, in a fetch's or scan's
// tupleArena; a wider one's are allocated (once per fetch or scan).
const spansOnStack = 16

// walk is the one walk over a body: it validates every column once, with
// checkCol, and returns where each lies — cols[:0] with one span per
// column appended, so cols is reused when the body's columns fit it.
// Everything that reads a record reads it from these spans.
func walk(rec []byte, cols []span) ([]span, error) {
	n, pos, err := header(rec)
	if err != nil {
		return nil, err
	}
	cols = cols[:0]
	for i := range n {
		if pos >= len(rec) {
			return nil, errTuple("truncated tuple at column %d", i)
		}
		c, err := checkCol(rec, pos, i)
		if err != nil {
			return nil, err
		}
		cols = append(cols, c)
		pos = c.end
	}
	return cols, nil
}

// checkCol is the one column validator, called by walk alone: it finds
// column i, whose type tag is rec[pos], and checks that its type tag is
// known and its parts lie inside rec, a non-zero loc's whole object
// encoding included.
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

// loc returns where loc column c of rec keeps its picture name and its
// object's encoding, and ok false for a zero loc (no picture, object 0),
// which carries no object, and for a column that is not a loc.
func (c span) loc(rec []byte) (pic, obj []byte, ok bool) {
	if c.typ != TypeLoc || c.mid == c.lo && binary.LittleEndian.Uint64(rec[c.mid:]) == 0 {
		return nil, nil, false
	}
	return rec[c.lo:c.mid], rec[c.mid:c.end], true
}

// decodeSpans builds the tuple whose columns walk found at cols in rec,
// into dst[:0] when it fits dst's capacity and into a fresh slice
// otherwise: the columns need selects in full, the others as their type
// tag alone. walk validated every span, so it cannot fail.
func decodeSpans(rec []byte, cols []span, need []bool, dst Tuple) Tuple {
	t := dst[:0]
	if cap(t) < len(cols) {
		t = make(Tuple, 0, len(cols))
	}
	t = t[:len(cols)]
	for i, c := range cols {
		v := &t[i]
		*v = Value{Type: c.typ}
		if !wants(need, i) {
			continue
		}
		switch c.typ {
		case TypeInt:
			v.Int = int64(binary.LittleEndian.Uint64(rec[c.mid:]))
		case TypeFloat:
			v.Float = math.Float64frombits(binary.LittleEndian.Uint64(rec[c.mid:]))
		case TypeString:
			v.Str = string(rec[c.lo:c.mid])
		case TypeLoc:
			if pic, obj, ok := c.loc(rec); ok {
				both := string(rec[c.lo:c.end])
				v.Loc = LocRef{Picture: both[:len(pic)], Object: picture.ObjectID(binary.LittleEndian.Uint64(obj))}
				v.Str = both[len(pic):]
			}
		}
	}
	return t
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

// keyInterval is one interval of B-tree keys, lo inclusive and hi
// exclusive; a nil lo is unbounded below and a nil hi above.
type keyInterval struct{ lo, hi []byte }

// ranges returns the B-tree key intervals that hold every key of Val's
// type whose value the term holds of, numbers as their float64 images:
// on an int column the whole run of int64s that round to Val's image
// (2^53 and 2^53+1 are one float64), on a float column both zeros, and
// the NaN keys, which satisfy <= and >= (an ordering result of zero) and
// sort past both infinities. A NaN Val orders against nothing, so <= and
// >= take every key and the other operators none. An interval may hold
// NaN keys the term rejects; Lookup's callers test the term on the
// record.
func (t *Term) ranges() []keyInterval {
	v := t.Val
	float := v.Type == TypeFloat
	if float && math.IsNaN(v.Float) {
		if t.Op == OpLe || t.Op == OpGe {
			return []keyInterval{{}}
		}
		return nil
	}
	first, last := v, v // the least and greatest key whose image is Val's
	switch {
	case v.Type == TypeInt:
		first.Int, last.Int = imageRun(v.Int)
	case float && v.Float == 0:
		first.Float, last.Float = math.Copysign(0, -1), 0
	}
	from, past := IndexKey(first), IndexKeySuccessor(IndexKey(last))
	switch t.Op {
	case OpEq:
		return []keyInterval{{from, past}}
	case OpLt:
		return []keyInterval{{nil, from}}
	case OpLe:
		r := []keyInterval{{nil, past}}
		if float { // the NaNs above +Inf
			r = append(r, keyInterval{IndexKeySuccessor(IndexKey(F(math.Inf(1)))), nil})
		}
		return r
	case OpGt:
		return []keyInterval{{past, nil}}
	default: // OpGe
		r := []keyInterval{{from, nil}}
		if float { // the NaNs below -Inf
			r = append(r, keyInterval{nil, IndexKey(F(math.Inf(-1)))})
		}
		return r
	}
}

// imageRun returns the least and greatest int64 whose float64 image is
// n's: n alone below 2^53 in magnitude, a run of up to 2^11 around it
// beyond.
func imageRun(n int64) (lo, hi int64) {
	f := float64(n)
	lo, hi = n, n
	for lo > math.MinInt64 && float64(lo-1) == f {
		lo--
	}
	for hi < math.MaxInt64 && float64(hi+1) == f {
		hi++
	}
	return lo, hi
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

// match is walk, then the terms, each tested on its column's bytes: a
// corrupt body fails, with DecodeTuple's error, whether or not a term
// would have rejected it. ok is false when a term rejects the record. A
// term on a column past the body's last is corruption, whether or not
// another term rejects the record. It returns walk's spans.
func match(rec []byte, terms []Term, cols []span) (_ []span, ok bool, err error) {
	if cols, err = walk(rec, cols); err != nil {
		return nil, false, err
	}
	for k := range terms {
		if col := terms[k].Col; col < 0 || col >= len(cols) {
			return nil, false, errTuple("a term on column %d of a %d-column tuple", col, len(cols))
		}
	}
	for k := range terms {
		if t := &terms[k]; !t.holds(rec, cols[t.Col]) {
			return nil, false, nil
		}
	}
	return cols, true, nil
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
