package picture

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/geom"
)

// Object wire format, carried inline by every relation tuple whose loc
// names the object:
//
//	8 bytes  object id
//	1 byte   kind
//	uvarint  label length + bytes
//	uvarint  vertex count, then per vertex 2 x float64
//
// Points store one vertex, segments two, regions all polygon vertices.

// EncodeObject serializes o.
func EncodeObject(o Object) []byte {
	buf := binary.LittleEndian.AppendUint64(nil, uint64(o.ID))
	buf = append(buf, byte(o.Kind))
	buf = binary.AppendUvarint(buf, uint64(len(o.Label)))
	buf = append(buf, o.Label...)
	var pts []geom.Point
	switch o.Kind {
	case KindPoint:
		pts = []geom.Point{o.Point}
	case KindSegment:
		pts = []geom.Point{o.Segment.A, o.Segment.B}
	default:
		pts = o.Region.Vertices
	}
	buf = binary.AppendUvarint(buf, uint64(len(pts)))
	for _, p := range pts {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.X))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.Y))
	}
	return buf
}

// DecodeObject parses an encoding produced by EncodeObject. Bytes after
// the encoding are ignored; ObjectLen says where it ends.
func DecodeObject(rec []byte) (Object, error) {
	o, _, err := parseObject(rec, true)
	return o, err
}

// ObjectLen returns the length of the object encoding at the start of
// rec. It accepts and rejects exactly what DecodeObject does, and decodes
// nothing: a tuple decoder validates an inline object with it.
func ObjectLen(rec []byte) (int, error) {
	_, n, err := parseObject(rec, false)
	return n, err
}

// parseObject validates the encoding at the start of rec and returns
// its length, and the object when decode is set.
func parseObject(rec []byte, decode bool) (Object, int, error) {
	if len(rec) < 9 {
		return Object{}, 0, fmt.Errorf("picture: truncated object record")
	}
	kind := Kind(rec[8])
	pos := 9
	l, w := binary.Uvarint(rec[pos:])
	if w <= 0 || l > uint64(len(rec)-pos-w) {
		return Object{}, 0, fmt.Errorf("picture: truncated object label")
	}
	pos += w
	label := rec[pos : pos+int(l)]
	pos += int(l)
	n, w := binary.Uvarint(rec[pos:])
	if w <= 0 || n > uint64(len(rec)-pos-w)/16 {
		return Object{}, 0, fmt.Errorf("picture: truncated object geometry")
	}
	pos += w
	switch {
	case kind == KindPoint && n != 1:
		return Object{}, 0, fmt.Errorf("picture: point object with %d vertices", n)
	case kind == KindSegment && n != 2:
		return Object{}, 0, fmt.Errorf("picture: segment object with %d vertices", n)
	case kind > KindRegion:
		return Object{}, 0, fmt.Errorf("picture: unknown object kind %d", kind)
	}
	end := pos + 16*int(n)
	if !decode {
		return Object{}, end, nil
	}
	o := Object{ID: ObjectID(binary.LittleEndian.Uint64(rec)), Kind: kind, Label: string(label)}
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i].X = math.Float64frombits(binary.LittleEndian.Uint64(rec[pos:]))
		pts[i].Y = math.Float64frombits(binary.LittleEndian.Uint64(rec[pos+8:]))
		pos += 16
	}
	switch kind {
	case KindPoint:
		o.Point = pts[0]
	case KindSegment:
		o.Segment = geom.Seg(pts[0], pts[1])
	default:
		o.Region = geom.Polygon{Vertices: pts}
	}
	return o, end, nil
}

// EncodedMBR returns the MBR of the object enc encodes — what
// Object.MBR returns for the decoded object — read from the encoding
// without decoding or allocating anything. enc must be an encoding
// ObjectLen accepts.
func EncodedMBR[T string | []byte](enc T) geom.Rect {
	l, w := binary.Uvarint([]byte(enc[9:min(len(enc), 9+binary.MaxVarintLen64)]))
	pos := 9 + w + int(l)
	n, w := binary.Uvarint([]byte(enc[pos:min(len(enc), pos+binary.MaxVarintLen64)]))
	out := geom.EmptyRect()
	for pos += w; n > 0; n, pos = n-1, pos+16 {
		p := geom.Pt(math.Float64frombits(binary.LittleEndian.Uint64([]byte(enc[pos:pos+8]))),
			math.Float64frombits(binary.LittleEndian.Uint64([]byte(enc[pos+8:pos+16]))))
		if Kind(enc[8]) == KindPoint {
			return p.Rect()
		}
		out = out.ExtendPoint(p)
	}
	return out
}
