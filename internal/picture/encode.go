package picture

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/geom"
)

// Object wire format, used by the database catalog to persist
// pictures:
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

// DecodeObject parses a record produced by EncodeObject.
func DecodeObject(rec []byte) (Object, error) {
	if len(rec) < 9 {
		return Object{}, fmt.Errorf("picture: truncated object record")
	}
	var o Object
	o.ID = ObjectID(binary.LittleEndian.Uint64(rec))
	o.Kind = Kind(rec[8])
	pos := 9
	l, w := binary.Uvarint(rec[pos:])
	if w <= 0 || l > uint64(len(rec)-pos-w) {
		return Object{}, fmt.Errorf("picture: truncated object label")
	}
	pos += w
	o.Label = string(rec[pos : pos+int(l)])
	pos += int(l)
	n, w := binary.Uvarint(rec[pos:])
	if w <= 0 || n > uint64(len(rec)-pos-w)/16 {
		return Object{}, fmt.Errorf("picture: truncated object geometry")
	}
	pos += w
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i].X = math.Float64frombits(binary.LittleEndian.Uint64(rec[pos:]))
		pts[i].Y = math.Float64frombits(binary.LittleEndian.Uint64(rec[pos+8:]))
		pos += 16
	}
	switch o.Kind {
	case KindPoint:
		if len(pts) != 1 {
			return Object{}, fmt.Errorf("picture: point object with %d vertices", len(pts))
		}
		o.Point = pts[0]
	case KindSegment:
		if len(pts) != 2 {
			return Object{}, fmt.Errorf("picture: segment object with %d vertices", len(pts))
		}
		o.Segment = geom.Seg(pts[0], pts[1])
	case KindRegion:
		o.Region = geom.Polygon{Vertices: pts}
	default:
		return Object{}, fmt.Errorf("picture: unknown object kind %d", o.Kind)
	}
	return o, nil
}

// Restore inserts objects preserving their existing IDs — used when
// reloading a persisted picture, since tuples hold loc references to
// these IDs — under one lock, sizing an empty picture for the batch. It
// returns an error on a zero or duplicate id; the picture is then left
// partly restored and is not to be used.
func (p *Picture) Restore(objs ...Object) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.objects) == 0 {
		p.objects = make(map[ObjectID]Object, len(objs))
	}
	for _, o := range objs {
		if o.ID == 0 {
			return fmt.Errorf("picture: restore of object with zero id")
		}
		// One table access, not a lookup and then a store: an id already
		// present shows as a store that did not grow the table.
		n := len(p.objects)
		p.objects[o.ID] = o
		if len(p.objects) == n {
			return fmt.Errorf("picture: duplicate object id %d", o.ID)
		}
		if o.ID >= p.nextID {
			p.nextID = o.ID + 1
		}
	}
	return nil
}
