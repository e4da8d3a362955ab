package psql

// This file derives the cacheable, purely syntactic half of a query
// plan from a parsed AST: the where-clause split into ranked AND
// conjuncts, and the analyses of nested mappings. Everything here
// depends only on the query text, so one analysis is shared by every
// execution of a cached statement. What depends on the catalog as well
// is resolved when the statement is bound (bind.go); the cost-based
// choices that need statistics (scan vs. index vs. direct search,
// juxtaposition restriction and driving side) are made in planner.go
// and exec.go, and kept while the statistics stand.

// conjunct is one top-level AND term of the qualification, with its
// static cost rank.
type conjunct struct {
	expr Expr
	// sel estimates the fraction of rows the term keeps: equality on a
	// column is the most selective, a one-sided range keeps about a
	// third, anything else is a coin flip.
	sel float64
	// cost weights per-row evaluation expense: function calls and
	// spatial operators dominate plain comparisons.
	cost float64
	// cmp is set when the term has the shape `column op literal` (or
	// its mirror). It is the one shape the planner evaluates away from
	// the joined row — through a B-tree, or as a restriction of one
	// side of a juxtaposition — because against a literal of the
	// column's type it cannot error, so moving it changes no
	// statement's outcome. cmp.col.Table is the table name the term
	// mentions ("" when unqualified); which binding that is, and
	// whether the literal fits the column, is resolved per execution.
	cmp *colCompare
}

// colCompare is a `column op literal` term with the column normalized
// to the left.
type colCompare struct {
	col ColumnRef
	op  string // = < <= > >=
	lit Expr
}

// analysis is the syntactic plan skeleton for one query (and, via sub,
// its nested mappings).
type analysis struct {
	// conjuncts holds the where-clause's top-level AND terms in planner
	// order: cheapest, most selective first. Empty when there is no
	// qualification; a single entry when the qualification has no
	// top-level AND.
	conjuncts []conjunct
	// sub maps each nested mapping's Query to its own analysis.
	sub map[*Query]*analysis
}

// Conjunct selectivity and cost constants. The selectivities follow
// the classic System R defaults; the cost tiers only need to order
// terms, not predict wall time.
const (
	selEquality = 0.05
	selRange    = 0.33
	selDefault  = 0.5

	costCompare = 1.0  // column/literal comparisons
	costSpatial = 4.0  // spatial predicate over resolved MBRs
	costFunc    = 10.0 // user/pictorial function call
)

// analyze builds the analysis for q and its nested mappings.
func analyze(q *Query) *analysis {
	an := &analysis{sub: map[*Query]*analysis{}}

	if q.Where != nil {
		var split func(e Expr)
		split = func(e Expr) {
			if be, ok := e.(BinaryExpr); ok && be.Op == "and" {
				split(be.Left)
				split(be.Right)
				return
			}
			an.conjuncts = append(an.conjuncts, rankConjunct(e))
		}
		split(q.Where)
		sortConjuncts(an.conjuncts)
	}

	if q.At != nil {
		for _, t := range []SpatialTerm{q.At.Left, q.At.Right} {
			if tt, ok := t.(SubqueryTerm); ok {
				an.sub[tt.Query] = analyze(tt.Query)
			}
		}
	}
	return an
}

// rankConjunct estimates e's selectivity and evaluation cost.
func rankConjunct(e Expr) conjunct {
	c := conjunct{expr: e, sel: selDefault, cost: costCompare}
	if be, ok := e.(BinaryExpr); ok {
		if _, spatial := spatialOpFromIdent(be.Op); spatial {
			c.cost = costSpatial
		} else if col, lit, op, ok := columnVsLiteral(be); ok {
			c.cmp = &colCompare{col: col, op: op, lit: lit}
			if op == "=" {
				c.sel = selEquality
			} else {
				c.sel = selRange
			}
		}
	}
	if callsFunc(e) {
		c.cost = costFunc
	}
	return c
}

// sortConjuncts orders conjuncts cheapest first, breaking cost ties by
// selectivity (most selective first). The sort is stable over source
// order, so planner order is deterministic for a given query text.
func sortConjuncts(cs []conjunct) {
	// Insertion sort: conjunct lists are short and stability matters.
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && conjunctLess(cs[j], cs[j-1]); j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
}

func conjunctLess(a, b conjunct) bool {
	if a.cost != b.cost {
		return a.cost < b.cost
	}
	return a.sel < b.sel
}

// callsFunc reports whether e contains any function call.
func callsFunc(e Expr) bool {
	switch ex := e.(type) {
	case FuncCall:
		return true
	case BinaryExpr:
		return callsFunc(ex.Left) || callsFunc(ex.Right)
	case UnaryExpr:
		return callsFunc(ex.Expr)
	}
	return false
}
