// Package picture models the pictorial side of the database: named
// pictures (maps) and spatial objects in their analog form: a point,
// line segment, or polygonal region with an object identifier and a
// display label. Relation tuples reference objects through loc pointers
// (picture name + object id), the paper's backward identifiers "which
// point to the area on the picture", and a stored tuple carries the
// object it names (EncodeObject): that record is the object's one home.
// A Picture keeps its name, extent and id allocator, and only the
// objects placed that no insert has stored yet.
//
// The package also provides the "analog form" output device: an ASCII
// renderer that draws a window of a picture with the qualifying
// objects and their labels, standing in for the paper's graphics
// monitor.
package picture

import (
	"fmt"
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

// Picture is a named 2-D extent of the paper's pictorial database: one
// map. It stages each object it places until an insert stores it in a
// tuple (Release). It is safe for concurrent use.
type Picture struct {
	name   string
	extent geom.Rect

	mu     sync.Mutex // guards staged and nextID
	staged map[ObjectID]Object
	nextID ObjectID
}

// New creates an empty picture covering extent.
func New(name string, extent geom.Rect) *Picture {
	return &Picture{
		name:   name,
		extent: extent,
		staged: make(map[ObjectID]Object),
		nextID: 1,
	}
}

// Name returns the picture's name as used in PSQL on-clauses.
func (p *Picture) Name() string { return p.name }

// Extent returns the picture's full coordinate frame.
func (p *Picture) Extent() geom.Rect { return p.extent }

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
	p.staged[o.ID] = o
	return o.ID
}

// Get returns the staged object with the given id, one placed that no
// insert has stored yet; a stored object is read from its tuple alone.
func (p *Picture) Get(id ObjectID) (Object, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	o, ok := p.staged[id]
	return o, ok
}

// Release drops the staged object id once a tuple has stored it.
func (p *Picture) Release(id ObjectID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.staged, id)
}

// Reserve makes every later object id larger than id: the reload hands
// it the largest id the stored tuples carry.
func (p *Picture) Reserve(id ObjectID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.nextID = max(p.nextID, id+1)
}
