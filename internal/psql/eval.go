package psql

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/picture"
	"repro/internal/relation"
)

// This file evaluates where-clause and target-list expressions over
// one candidate row.

// resolveLoc populates a loc datum's Rect from the referenced picture
// object and returns the object for function use.
func (st *execState) resolveLoc(d *Datum) *picture.Object {
	if d.Kind != KindLoc || d.Loc.IsZero() {
		return nil
	}
	pic, ok := st.e.cat.Picture(d.Loc.Picture)
	if !ok {
		return nil
	}
	obj, ok := pic.Get(d.Loc.Object)
	if !ok {
		return nil
	}
	d.Rect = obj.MBR()
	return &obj
}

// resolveColumn finds the binding and the column index a column
// reference names: a qualified reference names that binding's column,
// an unqualified one the single binding that has the column.
func (st *execState) resolveColumn(ref ColumnRef) (bi, ci int, err error) {
	if ref.Table != "" {
		bi, err := st.bindingIndex(ref.Table, ref.Pos)
		if err != nil {
			return 0, 0, err
		}
		ci := st.bindings[bi].schema.ColumnIndex(ref.Column)
		if ci < 0 {
			return 0, 0, errf(ref.Pos, "relation %q has no column %q", ref.Table, ref.Column)
		}
		return bi, ci, nil
	}
	bi = -1
	for k, b := range st.bindings {
		if at := b.schema.ColumnIndex(ref.Column); at >= 0 {
			if bi >= 0 {
				return 0, 0, errf(ref.Pos, "column %q is ambiguous; qualify it", ref.Column)
			}
			bi, ci = k, at
		}
	}
	if bi < 0 {
		return 0, 0, errf(ref.Pos, "unknown column %q", ref.Column)
	}
	return bi, ci, nil
}

// lookupColumn finds the value of a column reference in the row.
func (st *execState) lookupColumn(ref ColumnRef, r *row) (Datum, error) {
	bi, ci, err := st.resolveColumn(ref)
	if err != nil {
		return Datum{}, err
	}
	if r.tuples[bi] == nil {
		return Datum{}, errf(ref.Pos, "internal: binding %q has no tuple", st.bindings[bi].name)
	}
	d := fromValue(r.tuples[bi][ci])
	if d.Kind == KindLoc {
		st.resolveLoc(&d)
	}
	return d, nil
}

// eval evaluates an expression over row r.
func (st *execState) eval(e Expr, r *row) (Datum, error) {
	switch ex := e.(type) {
	case NumberLit:
		if ex.IsInt {
			return intD(ex.Int), nil
		}
		return floatD(ex.Value), nil
	case StringLit:
		return stringD(ex.Value), nil
	case AreaLit:
		return rectD(geom.WindowAt(ex.CX, ex.DX, ex.CY, ex.DY)), nil
	case ColumnRef:
		return st.lookupColumn(ex, r)
	case UnaryExpr:
		return st.evalUnary(ex, r)
	case BinaryExpr:
		return st.evalBinary(ex, r)
	case FuncCall:
		return st.evalFunc(ex, r)
	}
	return Datum{}, fmt.Errorf("psql: unhandled expression %T", e)
}

func (st *execState) evalUnary(ex UnaryExpr, r *row) (Datum, error) {
	d, err := st.eval(ex.Expr, r)
	if err != nil {
		return Datum{}, err
	}
	switch ex.Op {
	case "not":
		b, err := d.Truth()
		if err != nil {
			return Datum{}, err
		}
		return boolD(!b), nil
	case "-":
		switch d.Kind {
		case KindInt:
			return intD(-d.Int), nil
		case KindFloat:
			return floatD(-d.Float), nil
		}
		return Datum{}, errf(ex.Pos, "cannot negate %s", d.Kind)
	}
	return Datum{}, errf(ex.Pos, "unknown unary operator %q", ex.Op)
}

func (st *execState) evalBinary(ex BinaryExpr, r *row) (Datum, error) {
	// Short-circuit booleans.
	if ex.Op == "and" || ex.Op == "or" {
		l, err := st.eval(ex.Left, r)
		if err != nil {
			return Datum{}, err
		}
		lb, err := l.Truth()
		if err != nil {
			return Datum{}, err
		}
		if ex.Op == "and" && !lb {
			return boolD(false), nil
		}
		if ex.Op == "or" && lb {
			return boolD(true), nil
		}
		rd, err := st.eval(ex.Right, r)
		if err != nil {
			return Datum{}, err
		}
		rb, err := rd.Truth()
		if err != nil {
			return Datum{}, err
		}
		return boolD(rb), nil
	}

	l, err := st.eval(ex.Left, r)
	if err != nil {
		return Datum{}, err
	}
	rd, err := st.eval(ex.Right, r)
	if err != nil {
		return Datum{}, err
	}

	// Spatial infix operators over loc/area values.
	if op, ok := spatialOpFromIdent(ex.Op); ok {
		if (l.Kind != KindLoc && l.Kind != KindRect) || (rd.Kind != KindLoc && rd.Kind != KindRect) {
			return Datum{}, errf(ex.Pos, "spatial operator %q needs loc or area operands, got %s and %s", ex.Op, l.Kind, rd.Kind)
		}
		return boolD(spatialPred(op)(l.Rect, rd.Rect)), nil
	}

	switch ex.Op {
	case "=", "<>":
		eq, err := datumsEqual(l, rd)
		if err != nil {
			return Datum{}, errf(ex.Pos, "%v", err)
		}
		if ex.Op == "<>" {
			eq = !eq
		}
		return boolD(eq), nil
	case "<", "<=", ">", ">=":
		c, err := compare(l, rd)
		if err != nil {
			return Datum{}, errf(ex.Pos, "%v", err)
		}
		switch ex.Op {
		case "<":
			return boolD(c < 0), nil
		case "<=":
			return boolD(c <= 0), nil
		case ">":
			return boolD(c > 0), nil
		default:
			return boolD(c >= 0), nil
		}
	case "+", "-", "*", "/":
		if !l.IsNumeric() || !rd.IsNumeric() {
			return Datum{}, errf(ex.Pos, "arithmetic on %s and %s", l.Kind, rd.Kind)
		}
		if l.Kind == KindInt && rd.Kind == KindInt {
			switch ex.Op {
			case "+":
				return intD(l.Int + rd.Int), nil
			case "-":
				return intD(l.Int - rd.Int), nil
			case "*":
				return intD(l.Int * rd.Int), nil
			default:
				if rd.Int == 0 {
					return Datum{}, errf(ex.Pos, "division by zero")
				}
				return intD(l.Int / rd.Int), nil
			}
		}
		a, b := l.AsFloat(), rd.AsFloat()
		switch ex.Op {
		case "+":
			return floatD(a + b), nil
		case "-":
			return floatD(a - b), nil
		case "*":
			return floatD(a * b), nil
		default:
			if b == 0 {
				return Datum{}, errf(ex.Pos, "division by zero")
			}
			return floatD(a / b), nil
		}
	}
	return Datum{}, errf(ex.Pos, "unknown operator %q", ex.Op)
}

func datumsEqual(a, b Datum) (bool, error) {
	if a.IsNumeric() && b.IsNumeric() {
		return a.AsFloat() == b.AsFloat(), nil
	}
	switch {
	case a.Kind == KindString && b.Kind == KindString:
		return a.Str == b.Str, nil
	case a.Kind == KindBool && b.Kind == KindBool:
		return a.Bool == b.Bool, nil
	case a.Kind == KindLoc && b.Kind == KindLoc:
		return a.Loc == b.Loc, nil
	case a.Kind == KindRect && b.Kind == KindRect:
		return a.Rect.Eq(b.Rect), nil
	case a.Kind == KindNull || b.Kind == KindNull:
		return a.Kind == b.Kind, nil
	}
	return false, fmt.Errorf("cannot compare %s with %s", a.Kind, b.Kind)
}

func (st *execState) evalFunc(ex FuncCall, r *row) (Datum, error) {
	fn, ok := st.e.lookupFunc(ex.Name)
	if !ok {
		return Datum{}, errf(ex.Pos, "unknown function %q", ex.Name)
	}
	ctx := &FuncContext{Name: ex.Name, Pos: ex.Pos}
	for _, arg := range ex.Args {
		d, err := st.eval(arg, r)
		if err != nil {
			return Datum{}, err
		}
		var obj *picture.Object
		if d.Kind == KindLoc {
			obj = st.resolveLoc(&d)
		}
		ctx.Args = append(ctx.Args, d)
		ctx.Objects = append(ctx.Objects, obj)
	}
	return fn(ctx)
}

// datumToValue converts a datum back to a storable relation value
// where possible (used by tooling that materializes query results).
func datumToValue(d Datum) (relation.Value, bool) {
	switch d.Kind {
	case KindInt:
		return relation.I(d.Int), true
	case KindFloat:
		return relation.F(d.Float), true
	case KindString:
		return relation.S(d.Str), true
	case KindLoc:
		return relation.L(d.Loc.Picture, d.Loc.Object), true
	}
	return relation.Value{}, false
}
