package psql

import (
	"fmt"
	"strings"
)

// Query is one PSQL mapping: select / from / on / at / where.
type Query struct {
	// Select lists the target attributes; empty with Star set means
	// "select *".
	Select []SelectItem
	Star   bool
	From   []TableRef
	// On lists picture names, positionally matched to From (a single
	// picture applies to every relation).
	On []string
	// At is the area specification, nil when absent.
	At *AtClause
	// Where is the qualification, nil when absent.
	Where Expr
	// OrderBy lists result ordering keys (a SQL-inherited extension).
	OrderBy []OrderKey
	// Limit caps the result rows when non-nil.
	Limit *int
}

// OrderKey is one order-by entry.
type OrderKey struct {
	Expr Expr
	Desc bool
}

// SelectItem is one target-list entry.
type SelectItem struct {
	Expr  Expr
	Alias string
}

// TableRef names a relation in the from-clause with an optional alias.
type TableRef struct {
	Relation string
	Alias    string
}

// Binding returns the name the relation is referred to by.
func (t TableRef) Binding() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Relation
}

// SpatialOp is one of the paper's spatial comparison operators.
type SpatialOp uint8

const (
	// OpCoveredBy: left is wholly within right.
	OpCoveredBy SpatialOp = iota
	// OpCovering: left wholly contains right.
	OpCovering
	// OpOverlapping: left and right share at least one point.
	OpOverlapping
	// OpDisjoined: left and right share no point.
	OpDisjoined
)

// String names the operator using the paper's spelling.
func (o SpatialOp) String() string {
	switch o {
	case OpCoveredBy:
		return "covered-by"
	case OpCovering:
		return "covering"
	case OpOverlapping:
		return "overlapping"
	case OpDisjoined:
		return "disjoined"
	default:
		return fmt.Sprintf("SpatialOp(%d)", int(o))
	}
}

// AtClause is the area specification: left op right.
type AtClause struct {
	Left  SpatialTerm
	Op    SpatialOp
	Right SpatialTerm
	Pos   int
}

// SpatialTerm is an area specification operand: a loc column
// reference, an area literal, a named location, or a nested mapping.
type SpatialTerm interface {
	spatialTerm()
	String() string
}

// LocTerm references a loc column, optionally qualified:
// "loc" or "cities.loc".
type LocTerm struct {
	Table  string
	Column string
	Pos    int
}

func (LocTerm) spatialTerm() {}

func (t LocTerm) String() string {
	if t.Table != "" {
		return t.Table + "." + t.Column
	}
	return t.Column
}

// AreaTerm is a constant area literal {cx±dx, cy±dy}.
type AreaTerm struct {
	CX, DX, CY, DY float64
	Pos            int
}

func (AreaTerm) spatialTerm() {}

func (t AreaTerm) String() string {
	return fmt.Sprintf("{%g±%g, %g±%g}", t.CX, t.DX, t.CY, t.DY)
}

// NameTerm references a location predefined outside the mapping
// ("The location variable may just be a name of a location predefined
// outside the retrieve mapping").
type NameTerm struct {
	Name string
	Pos  int
}

func (NameTerm) spatialTerm() {}

func (t NameTerm) String() string { return "@" + t.Name }

// SubqueryTerm is a nested mapping whose result locations bind the
// enclosing at-clause.
type SubqueryTerm struct {
	Query *Query
	Pos   int
}

func (SubqueryTerm) spatialTerm() {}

func (t SubqueryTerm) String() string { return "(select ...)" }

// Expr is a where-clause or target-list expression.
type Expr interface {
	exprNode()
	String() string
}

// NumberLit is a numeric literal.
type NumberLit struct {
	Value float64
	IsInt bool
	Int   int64
	Pos   int
}

func (NumberLit) exprNode() {}

func (e NumberLit) String() string {
	if e.IsInt {
		return fmt.Sprintf("%d", e.Int)
	}
	return fmt.Sprintf("%g", e.Value)
}

// StringLit is a string literal.
type StringLit struct {
	Value string
	Pos   int
}

func (StringLit) exprNode() {}

func (e StringLit) String() string { return fmt.Sprintf("%q", e.Value) }

// ColumnRef references a column, optionally table-qualified.
type ColumnRef struct {
	Table  string
	Column string
	Pos    int
}

func (ColumnRef) exprNode() {}

func (e ColumnRef) String() string {
	if e.Table != "" {
		return e.Table + "." + e.Column
	}
	return e.Column
}

// AreaLit is an area literal usable as an expression (e.g. as a
// function argument).
type AreaLit struct {
	CX, DX, CY, DY float64
	Pos            int
}

func (AreaLit) exprNode() {}

func (e AreaLit) String() string {
	return fmt.Sprintf("{%g±%g, %g±%g}", e.CX, e.DX, e.CY, e.DY)
}

// BinaryExpr is a binary operation: comparison, boolean, arithmetic,
// or an infix spatial operator inside the where-clause.
type BinaryExpr struct {
	Op          string // "and", "or", "=", "<>", "<", "<=", ">", ">=", "+", "-", "*", "/", "covered-by", ...
	Left, Right Expr
	Pos         int
}

func (BinaryExpr) exprNode() {}

func (e BinaryExpr) String() string {
	return fmt.Sprintf("(%s %s %s)", e.Left, e.Op, e.Right)
}

// UnaryExpr is "not x" or "-x".
type UnaryExpr struct {
	Op   string
	Expr Expr
	Pos  int
}

func (UnaryExpr) exprNode() {}

func (e UnaryExpr) String() string { return fmt.Sprintf("(%s %s)", e.Op, e.Expr) }

// FuncCall invokes a pictorial (or scalar) function.
type FuncCall struct {
	Name string
	Args []Expr
	Pos  int
}

func (FuncCall) exprNode() {}

func (e FuncCall) String() string {
	args := make([]string, len(e.Args))
	for i, a := range e.Args {
		args[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", e.Name, strings.Join(args, ", "))
}
