package psql

import (
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/picture"
)

// Func is a PSQL-callable function: the paper's pictorial domain
// functions ("functions defined on pictorial domains ... very specific
// to the application") plus ordinary scalar helpers. A loc argument
// arrives with the object its tuple carries and that object's MBR in
// Rect; a function that needs the exact geometry decodes the object
// (Datum.LocObject).
type Func func(call *FuncContext) (Datum, error)

// FuncContext carries one invocation's arguments and resolution
// helpers.
type FuncContext struct {
	Name string
	Args []Datum
	Pos  int
}

// arg returns argument i or an error.
func (c *FuncContext) arg(i int) (Datum, error) {
	if i >= len(c.Args) {
		return Datum{}, errf(c.Pos, "%s: missing argument %d", c.Name, i+1)
	}
	return c.Args[i], nil
}

// rectArg returns argument i as an area (the MBR for locs).
func (c *FuncContext) rectArg(i int) (geom.Rect, error) {
	d, err := c.arg(i)
	if err != nil {
		return geom.Rect{}, err
	}
	if d.Kind != KindRect && d.Kind != KindLoc {
		return geom.Rect{}, errf(c.Pos, "%s: argument %d is %s, want a loc or area", c.Name, i+1, d.Kind)
	}
	return d.Rect, nil
}

// objectArg decodes the object argument i carries, when it is a loc
// that carries one: the exact geometry behind its MBR.
func (c *FuncContext) objectArg(i int) *picture.Object {
	if i < len(c.Args) {
		if o, ok := c.Args[i].LocObject(); ok {
			return &o
		}
	}
	return nil
}

// numArg returns argument i as a float.
func (c *FuncContext) numArg(i int) (float64, error) {
	d, err := c.arg(i)
	if err != nil {
		return 0, err
	}
	if !d.IsNumeric() {
		return 0, errf(c.Pos, "%s: argument %d is %s, want a number", c.Name, i+1, d.Kind)
	}
	return d.AsFloat(), nil
}

// builtinFuncs returns the standard function registry. Executors start
// from this and applications extend it with RegisterFunc — the paper's
// "user-defined (application-defined) extensions that can be invoked
// from the pictorial language".
func builtinFuncs() map[string]Func {
	return map[string]Func{
		// area(loc|area): exact area for region objects, MBR area
		// otherwise — the paper's example function on region domains.
		"area": func(c *FuncContext) (Datum, error) {
			if o := c.objectArg(0); o != nil && o.Kind == picture.KindRegion {
				return floatD(o.Region.Area()), nil
			}
			r, err := c.rectArg(0)
			if err != nil {
				return Datum{}, err
			}
			return floatD(r.Area()), nil
		},
		// length(loc): exact length for segment objects, MBR diagonal
		// otherwise.
		"length": func(c *FuncContext) (Datum, error) {
			if o := c.objectArg(0); o != nil && o.Kind == picture.KindSegment {
				return floatD(o.Segment.Length()), nil
			}
			r, err := c.rectArg(0)
			if err != nil {
				return Datum{}, err
			}
			return floatD(r.Min.Dist(r.Max)), nil
		},
		// perimeter(loc): exact perimeter for region objects.
		"perimeter": func(c *FuncContext) (Datum, error) {
			if o := c.objectArg(0); o != nil && o.Kind == picture.KindRegion {
				return floatD(o.Region.Perimeter()), nil
			}
			r, err := c.rectArg(0)
			if err != nil {
				return Datum{}, err
			}
			return floatD(2 * r.Margin()), nil
		},
		// northest(loc|area): the paper's example aggregate — the
		// northernmost coordinate of the object.
		"northest": func(c *FuncContext) (Datum, error) {
			r, err := c.rectArg(0)
			if err != nil {
				return Datum{}, err
			}
			return floatD(r.Max.Y), nil
		},
		"southest": func(c *FuncContext) (Datum, error) {
			r, err := c.rectArg(0)
			if err != nil {
				return Datum{}, err
			}
			return floatD(r.Min.Y), nil
		},
		"eastest": func(c *FuncContext) (Datum, error) {
			r, err := c.rectArg(0)
			if err != nil {
				return Datum{}, err
			}
			return floatD(r.Max.X), nil
		},
		"westest": func(c *FuncContext) (Datum, error) {
			r, err := c.rectArg(0)
			if err != nil {
				return Datum{}, err
			}
			return floatD(r.Min.X), nil
		},
		// centerx/centery(loc|area): the object's center coordinates.
		"centerx": func(c *FuncContext) (Datum, error) {
			r, err := c.rectArg(0)
			if err != nil {
				return Datum{}, err
			}
			return floatD(r.Center().X), nil
		},
		"centery": func(c *FuncContext) (Datum, error) {
			r, err := c.rectArg(0)
			if err != nil {
				return Datum{}, err
			}
			return floatD(r.Center().Y), nil
		},
		// distance(a, b): distance between the centers of two areas.
		"distance": func(c *FuncContext) (Datum, error) {
			a, err := c.rectArg(0)
			if err != nil {
				return Datum{}, err
			}
			b, err := c.rectArg(1)
			if err != nil {
				return Datum{}, err
			}
			return floatD(a.Center().Dist(b.Center())), nil
		},
		// mbr(loc): the object's minimal bounding rectangle as an area
		// value.
		"mbr": func(c *FuncContext) (Datum, error) {
			r, err := c.rectArg(0)
			if err != nil {
				return Datum{}, err
			}
			return rectD(r), nil
		},
		// window(cx, dx, cy, dy): an area value, the functional form
		// of the {cx±dx, cy±dy} literal.
		"window": func(c *FuncContext) (Datum, error) {
			var v [4]float64
			for i := range v {
				f, err := c.numArg(i)
				if err != nil {
					return Datum{}, err
				}
				v[i] = f
			}
			return rectD(geom.WindowAt(v[0], v[1], v[2], v[3])), nil
		},
		// label(loc): the display label of the referenced object.
		"label": func(c *FuncContext) (Datum, error) {
			if o := c.objectArg(0); o != nil {
				return stringD(o.Label), nil
			}
			return Datum{}, errf(c.Pos, "label: argument is not a resolvable loc")
		},
		// kind(loc): "point", "segment" or "region".
		"kind": func(c *FuncContext) (Datum, error) {
			if o := c.objectArg(0); o != nil {
				return stringD(o.Kind.String()), nil
			}
			return Datum{}, errf(c.Pos, "kind: argument is not a resolvable loc")
		},
		// abs, sqrt: plain scalar helpers.
		"abs": func(c *FuncContext) (Datum, error) {
			v, err := c.numArg(0)
			if err != nil {
				return Datum{}, err
			}
			return floatD(math.Abs(v)), nil
		},
		"sqrt": func(c *FuncContext) (Datum, error) {
			v, err := c.numArg(0)
			if err != nil {
				return Datum{}, err
			}
			if v < 0 {
				return Datum{}, fmt.Errorf("psql: sqrt of negative %g", v)
			}
			return floatD(math.Sqrt(v)), nil
		},
	}
}
