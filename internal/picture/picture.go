// Package picture models the pictorial side of the database: named
// pictures (maps) holding spatial objects in their analog form. A
// spatial object is a point, line segment, or polygonal region with an
// object identifier and a display label. Relation tuples reference
// objects through loc pointers (picture name + object id), mirroring
// the paper's backward identifiers "which point to the area on the
// picture", and a stored tuple carries the object it names (EncodeObject):
// a picture's objects in memory are rebuilt from its tuples on reopen.
//
// The package also provides the "analog form" output device: an ASCII
// renderer that draws a window of a picture with the qualifying
// objects and their labels, standing in for the paper's graphics
// monitor.
package picture

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/geom"
)

// ObjectID identifies a spatial object within one picture.
type ObjectID int64

// Kind classifies a spatial object, the paper's "point", "segment" and
// "region" domains.
type Kind int

const (
	// KindPoint is a point object (cities on a map).
	KindPoint Kind = iota
	// KindSegment is a line-segment object (highway sections).
	KindSegment
	// KindRegion is a polygonal region object (states, lakes,
	// time zones).
	KindRegion
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindPoint:
		return "point"
	case KindSegment:
		return "segment"
	case KindRegion:
		return "region"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Object is one spatial object in its analog form.
type Object struct {
	ID    ObjectID
	Kind  Kind
	Label string
	// Exactly one of the following is meaningful, per Kind.
	Point   geom.Point
	Segment geom.Segment
	Region  geom.Polygon
}

// MBR returns the minimal bounding rectangle of the object — what an
// R-tree leaf entry stores for it.
func (o Object) MBR() geom.Rect {
	switch o.Kind {
	case KindPoint:
		return o.Point.Rect()
	case KindSegment:
		return o.Segment.Rect()
	default:
		return o.Region.Rect()
	}
}

// IntersectsWindow reports whether the object's exact geometry (not
// just its MBR) intersects the window — the refinement step after the
// R-tree filter.
func (o Object) IntersectsWindow(w geom.Rect) bool {
	switch o.Kind {
	case KindPoint:
		return w.ContainsPoint(o.Point)
	case KindSegment:
		return o.Segment.IntersectsRect(w)
	default:
		return o.Region.IntersectsRect(w)
	}
}

// Anchor returns a representative point used to place the object's
// label when rendering.
func (o Object) Anchor() geom.Point {
	switch o.Kind {
	case KindPoint:
		return o.Point
	case KindSegment:
		return o.Segment.Midpoint()
	default:
		return o.Region.Centroid()
	}
}

// Picture is a named 2-D extent holding spatial objects: one map of
// the paper's pictorial database. It is safe for concurrent use:
// statements resolve loc pointers through Get while writers add and
// remove objects.
type Picture struct {
	name   string
	extent geom.Rect

	mu      sync.RWMutex // guards objects and nextID
	objects map[ObjectID]Object
	nextID  ObjectID
}

// New creates an empty picture covering extent.
func New(name string, extent geom.Rect) *Picture {
	return &Picture{
		name:    name,
		extent:  extent,
		objects: make(map[ObjectID]Object),
		nextID:  1,
	}
}

// Name returns the picture's name as used in PSQL on-clauses.
func (p *Picture) Name() string { return p.name }

// Extent returns the picture's full coordinate frame.
func (p *Picture) Extent() geom.Rect { return p.extent }

// Len returns the number of objects on the picture.
func (p *Picture) Len() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.objects)
}

// AddPoint places a point object and returns its id.
func (p *Picture) AddPoint(label string, pt geom.Point) ObjectID {
	return p.add(Object{Kind: KindPoint, Label: label, Point: pt})
}

// AddSegment places a segment object and returns its id.
func (p *Picture) AddSegment(label string, s geom.Segment) ObjectID {
	return p.add(Object{Kind: KindSegment, Label: label, Segment: s})
}

// AddRegion places a region object and returns its id.
func (p *Picture) AddRegion(label string, poly geom.Polygon) ObjectID {
	return p.add(Object{Kind: KindRegion, Label: label, Region: poly})
}

func (p *Picture) add(o Object) ObjectID {
	p.mu.Lock()
	defer p.mu.Unlock()
	o.ID = p.nextID
	p.nextID++
	p.objects[o.ID] = o
	return o.ID
}

// Get returns the object with the given id.
func (p *Picture) Get(id ObjectID) (Object, bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	o, ok := p.objects[id]
	return o, ok
}

// Objects returns all objects ordered by id (stable for display and
// index building).
func (p *Picture) Objects() []Object {
	p.mu.RLock()
	out := make([]Object, 0, len(p.objects))
	for _, o := range p.objects {
		out = append(out, o)
	}
	p.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
