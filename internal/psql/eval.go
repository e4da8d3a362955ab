package psql

import (
	"fmt"

	"repro/internal/geom"
)

// This file evaluates where-clause and target-list expressions over
// one candidate row. A result is written through an out-parameter: a
// Datum is 96 bytes, and returning one by value through every level of
// an expression was a measurable share of a statement.

// boundCol is a column reference the binder resolved once, when the
// statement was bound: evaluating it is an index into the row. A
// reference the binder could not resolve stays a plain ColumnRef, which
// the evaluator resolves by name — and so reports the error — on the
// first row it meets; the naive executor binds nothing and evaluates
// every reference that way.
type boundCol struct {
	ColumnRef
	bi, ci int
}

// resolveColumn finds the binding and the column index a column
// reference names: a qualified reference names that binding's column,
// an unqualified one the single binding that has the column.
func resolveColumn(bindings []binding, ref ColumnRef) (bi, ci int, err error) {
	if ref.Table != "" {
		bi, err := bindingIndex(bindings, ref.Table, ref.Pos)
		if err != nil {
			return 0, 0, err
		}
		ci := bindings[bi].schema.ColumnIndex(ref.Column)
		if ci < 0 {
			return 0, 0, errf(ref.Pos, "relation %q has no column %q", ref.Table, ref.Column)
		}
		return bi, ci, nil
	}
	bi = -1
	for k, b := range bindings {
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

// column writes the value of column ci of binding bi in row r to out.
func (st *execState) column(ref ColumnRef, bi, ci int, r row, out *Datum) error {
	if r[bi] == nil {
		return errf(ref.Pos, "internal: binding %q has no tuple", st.bindings[bi].name)
	}
	setFromValue(out, &r[bi][ci])
	return nil
}

// eval evaluates an expression over row r into out.
func (st *execState) eval(e Expr, r row, out *Datum) error {
	switch ex := e.(type) {
	case NumberLit:
		if ex.IsInt {
			*out = intD(ex.Int)
		} else {
			*out = floatD(ex.Value)
		}
		return nil
	case StringLit:
		*out = stringD(ex.Value)
		return nil
	case AreaLit:
		*out = rectD(geom.WindowAt(ex.CX, ex.DX, ex.CY, ex.DY))
		return nil
	case boundCol:
		return st.column(ex.ColumnRef, ex.bi, ex.ci, r, out)
	case ColumnRef:
		bi, ci, err := resolveColumn(st.bindings, ex)
		if err != nil {
			return err
		}
		return st.column(ex, bi, ci, r, out)
	case UnaryExpr:
		return st.evalUnary(ex, r, out)
	case BinaryExpr:
		return st.evalBinary(ex, r, out)
	case FuncCall:
		return st.evalFunc(ex, r, out)
	}
	return fmt.Errorf("psql: unhandled expression %T", e)
}

// truth evaluates e over r as a condition.
func (st *execState) truth(e Expr, r row) (bool, error) {
	var d Datum
	if err := st.eval(e, r, &d); err != nil {
		return false, err
	}
	return d.Truth()
}

func (st *execState) evalUnary(ex UnaryExpr, r row, out *Datum) error {
	if err := st.eval(ex.Expr, r, out); err != nil {
		return err
	}
	switch ex.Op {
	case "not":
		b, err := out.Truth()
		if err != nil {
			return err
		}
		*out = boolD(!b)
		return nil
	case "-":
		switch out.Kind {
		case KindInt:
			*out = intD(-out.Int)
			return nil
		case KindFloat:
			*out = floatD(-out.Float)
			return nil
		}
		return errf(ex.Pos, "cannot negate %s", out.Kind)
	}
	return errf(ex.Pos, "unknown unary operator %q", ex.Op)
}

func (st *execState) evalBinary(ex BinaryExpr, r row, out *Datum) error {
	// Short-circuit booleans.
	if ex.Op == "and" || ex.Op == "or" {
		lb, err := st.truth(ex.Left, r)
		if err != nil {
			return err
		}
		if lb == (ex.Op == "or") {
			*out = boolD(lb)
			return nil
		}
		rb, err := st.truth(ex.Right, r)
		if err != nil {
			return err
		}
		*out = boolD(rb)
		return nil
	}

	var l, rd Datum
	if err := st.eval(ex.Left, r, &l); err != nil {
		return err
	}
	if err := st.eval(ex.Right, r, &rd); err != nil {
		return err
	}

	// Spatial infix operators over loc/area values.
	if op, ok := spatialOpFromIdent(ex.Op); ok {
		if (l.Kind != KindLoc && l.Kind != KindRect) || (rd.Kind != KindLoc && rd.Kind != KindRect) {
			return errf(ex.Pos, "spatial operator %q needs loc or area operands, got %s and %s", ex.Op, l.Kind, rd.Kind)
		}
		*out = boolD(spatialPred(op)(l.Rect, rd.Rect))
		return nil
	}

	switch ex.Op {
	case "=", "<>":
		eq, err := datumsEqual(&l, &rd)
		if err != nil {
			return errf(ex.Pos, "%v", err)
		}
		*out = boolD(eq == (ex.Op == "="))
		return nil
	case "<", "<=", ">", ">=":
		c, err := compare(&l, &rd)
		if err != nil {
			return errf(ex.Pos, "%v", err)
		}
		*out = boolD(orderHolds(ex.Op, c))
		return nil
	case "+", "-", "*", "/":
		if !l.IsNumeric() || !rd.IsNumeric() {
			return errf(ex.Pos, "arithmetic on %s and %s", l.Kind, rd.Kind)
		}
		if l.Kind == KindInt && rd.Kind == KindInt {
			switch ex.Op {
			case "+":
				*out = intD(l.Int + rd.Int)
			case "-":
				*out = intD(l.Int - rd.Int)
			case "*":
				*out = intD(l.Int * rd.Int)
			default:
				if rd.Int == 0 {
					return errf(ex.Pos, "division by zero")
				}
				*out = intD(l.Int / rd.Int)
			}
			return nil
		}
		a, b := l.AsFloat(), rd.AsFloat()
		switch ex.Op {
		case "+":
			*out = floatD(a + b)
		case "-":
			*out = floatD(a - b)
		case "*":
			*out = floatD(a * b)
		default:
			if b == 0 {
				return errf(ex.Pos, "division by zero")
			}
			*out = floatD(a / b)
		}
		return nil
	}
	return errf(ex.Pos, "unknown operator %q", ex.Op)
}

// orderHolds reports whether a comparison result c (negative, zero,
// positive) satisfies the ordering operator op.
func orderHolds(op string, c int) bool {
	switch op {
	case "<":
		return c < 0
	case "<=":
		return c <= 0
	case ">":
		return c > 0
	default: // ">="
		return c >= 0
	}
}

func datumsEqual(a, b *Datum) (bool, error) {
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

func (st *execState) evalFunc(ex FuncCall, r row, out *Datum) error {
	fn, ok := st.e.lookupFunc(ex.Name)
	if !ok {
		return errf(ex.Pos, "unknown function %q", ex.Name)
	}
	ctx := &FuncContext{Name: ex.Name, Pos: ex.Pos, Args: make([]Datum, len(ex.Args))}
	for i, arg := range ex.Args {
		if err := st.eval(arg, r, &ctx.Args[i]); err != nil {
			return err
		}
	}
	d, err := fn(ctx)
	*out = d
	return err
}
