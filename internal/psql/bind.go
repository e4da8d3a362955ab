package psql

import (
	"fmt"

	"repro/internal/relation"
)

// This file binds a parsed statement to the catalog: everything about
// executing it that depends on the text and on what its names denote,
// and on no tuple. The planned executor binds a statement once, when it
// is first run, keeps the result with the statement's cache entry, and
// before every later use checks it against what the catalog hands back
// now (boundStmt.current). The naive executor binds
// afresh for every execution and binds less: it keeps the expressions
// as written and resolves their columns by name, row by row, so the
// oracle shares the from-clause resolution and the text's refusals with
// the planned path and nothing of how a row is found or evaluated.

// binding is one from-clause entry resolved against the catalog.
type binding struct {
	name    string // alias or relation name
	rel     *relation.Relation
	schema  relation.Schema
	picture string // picture from the on-clause, "" when none
	gen     uint64 // rel.Generation() read before anything else was asked of rel
}

// atKind is the shape of a statement's at-clause once its loc terms are
// resolved to bindings.
type atKind int

const (
	atNone      atKind = iota // no at-clause
	atWindow                  // binding bi's loc against windows: direct spatial search
	atJuxtapose               // binding bi's loc against binding bj's: the geographic join
	atConstant                // no loc on either side
)

// atPlan is the at-clause normalized so that a loc term, when there is
// one, is on the left (the operator turned around to match). err is
// what resolving the loc terms reported; candidateRows returns it at the
// point it was always found, before any window is evaluated.
type atPlan struct {
	kind        atKind
	bi, bj      int
	op          SpatialOp
	left, right SpatialTerm
	err         error
}

// boundStmt is a statement bound to the catalog. It is read-only once
// published: goroutines executing one cached text share it. Its access
// path is priced afresh by every execution, from the relations as they
// stand then.
type boundStmt struct {
	ent      *stmtEntry
	q        *Query
	an       *analysis
	bindings []binding
	at       atPlan
	// terms are the where-conjuncts that resolved to `column op literal`
	// against these bindings, in conjunct order; the first head of them
	// are conjuncts 0..head-1, the run every planned read of a binding
	// tests ahead of everything else (restrict.go). sideTerms[bi] are the
	// terms of that run on binding bi, and relTerms[bi] the same terms as
	// the relation tests them on a record's bytes (relation.Term).
	terms     []boundTerm
	head      int
	sideTerms [][]boundTerm
	relTerms  [][]relation.Term
	// items is the target list (select * expanded), columns its
	// headings, aggregate whether it collapses the rows to one.
	items     []SelectItem
	columns   []string
	aggregate bool

	// The rest is the planned executor's. need[bi][ci] marks the columns
	// of binding bi the statement references; nil (naive) decodes every
	// column. In conjuncts, orderBy and items every column reference the
	// binder could resolve is a boundCol.
	need      [][]bool
	conjuncts []Expr // the expressions of an.conjuncts[head:], in planner order
	orderBy   []Expr
}

// bind resolves ent's statement against the catalog.
func (e *Executor) bind(ent *stmtEntry, naive bool) (*boundStmt, error) {
	q := ent.q
	b := &boundStmt{ent: ent, q: q, an: ent.an}
	var err error
	if b.bindings, err = resolveFrom(e.cat, q); err != nil {
		return nil, err
	}
	for _, it := range q.Select {
		b.aggregate = b.aggregate || isAggregate(it.Expr)
	}
	// What the text alone rules out is refused here, before any index or
	// heap is touched.
	if q.Where != nil && hasAggregate(q.Where) {
		return nil, fmt.Errorf("psql: aggregates are not allowed in the where-clause")
	}
	// An aggregated target list collapses to one row; order-by and limit
	// are meaningless then.
	if b.aggregate && (len(q.OrderBy) > 0 || q.Limit != nil) {
		return nil, fmt.Errorf("psql: order by / limit cannot combine with aggregates")
	}
	b.at = resolveAt(b.bindings, q.At)

	b.sideTerms = make([][]boundTerm, len(b.bindings))
	b.relTerms = make([][]relation.Term, len(b.bindings))
	for i := range ent.an.conjuncts {
		t, ok := bindTerm(b.bindings, ent.an.conjuncts[i])
		if !ok {
			continue
		}
		b.terms = append(b.terms, t)
		if len(b.terms) == i+1 {
			b.head = i + 1
			b.sideTerms[t.bi] = append(b.sideTerms[t.bi], t)
			b.relTerms[t.bi] = append(b.relTerms[t.bi], t.relTerm())
		}
	}

	b.items = q.Select
	if q.Star {
		b.items = nil
		for _, bd := range b.bindings {
			for _, col := range bd.schema.Columns {
				ref := ColumnRef{Column: col.Name}
				if len(b.bindings) > 1 {
					ref.Table = bd.name
				}
				b.items = append(b.items, SelectItem{Expr: ref})
			}
		}
	}
	b.columns = make([]string, len(b.items))
	for i, it := range b.items {
		if b.columns[i] = it.Alias; it.Alias == "" {
			b.columns[i] = it.Expr.String()
		}
	}
	b.orderBy = make([]Expr, len(q.OrderBy))
	for i, ob := range q.OrderBy {
		b.orderBy[i] = ob.Expr
	}
	if naive {
		return b, nil
	}

	b.need = computeNeed(b.bindings, q)
	items := make([]SelectItem, len(b.items))
	for i, it := range b.items {
		items[i] = SelectItem{Expr: bindExpr(b.bindings, it.Expr), Alias: it.Alias}
	}
	b.items = items
	b.conjuncts = make([]Expr, len(ent.an.conjuncts)-b.head)
	for i, c := range ent.an.conjuncts[b.head:] {
		b.conjuncts[i] = bindExpr(b.bindings, c.expr)
	}
	for i, e := range b.orderBy {
		b.orderBy[i] = bindExpr(b.bindings, e)
	}
	return b, nil
}

// current reports whether the statement is still bound to what the
// catalog holds: the same relations, indexed the same way. A binding
// names its picture alone, and no picture leaves the catalog.
func (b *boundStmt) current(cat Catalog) bool {
	for i := range b.bindings {
		bd := &b.bindings[i]
		if rel, ok := cat.Relation(b.q.From[i].Relation); !ok || rel != bd.rel || rel.Generation() != bd.gen {
			return false
		}
	}
	return true
}

// resolveFrom resolves the from- and on-clauses against the catalog.
func resolveFrom(cat Catalog, q *Query) ([]binding, error) {
	if len(q.From) == 0 {
		return nil, fmt.Errorf("psql: query has no from-clause")
	}
	bindings := make([]binding, 0, len(q.From))
	for i, ref := range q.From {
		rel, ok := cat.Relation(ref.Relation)
		if !ok {
			return nil, fmt.Errorf("psql: unknown relation %q", ref.Relation)
		}
		b := binding{name: ref.Binding(), rel: rel, gen: rel.Generation(), schema: rel.Schema()}
		for _, prev := range bindings {
			if prev.name == b.name {
				return nil, fmt.Errorf("psql: duplicate relation binding %q", b.name)
			}
		}
		// Positional on-clause match; a single picture applies to all.
		switch {
		case len(q.On) == 0:
		case len(q.On) == 1:
			b.picture = q.On[0]
		case len(q.On) == len(q.From):
			b.picture = q.On[i]
		default:
			return nil, fmt.Errorf("psql: on-clause lists %d pictures for %d relations", len(q.On), len(q.From))
		}
		if b.picture != "" {
			if _, ok := cat.Picture(b.picture); !ok {
				return nil, fmt.Errorf("psql: unknown picture %q", b.picture)
			}
		}
		bindings = append(bindings, b)
	}
	return bindings, nil
}

// bindingIndex resolves a table name (alias) to its binding index; an
// empty table name matches when there is exactly one binding.
func bindingIndex(bindings []binding, table string, pos int) (int, error) {
	if table == "" {
		if len(bindings) == 1 {
			return 0, nil
		}
		return 0, errf(pos, "ambiguous unqualified loc with %d relations", len(bindings))
	}
	for i, b := range bindings {
		if b.name == table {
			return i, nil
		}
	}
	return 0, errf(pos, "unknown relation %q", table)
}

// resolveAt normalizes the at-clause: if the left side is not a loc term
// but the right is, the sides are flipped using the converse operator so
// the loc ends up on the left.
func resolveAt(bindings []binding, at *AtClause) atPlan {
	if at == nil {
		return atPlan{kind: atNone}
	}
	p := atPlan{kind: atConstant, op: at.Op, left: at.Left, right: at.Right}
	if _, lok := p.left.(LocTerm); !lok {
		if _, rok := p.right.(LocTerm); rok {
			p.left, p.right = p.right, p.left
			p.op = converse(p.op)
		}
	}
	l, ok := p.left.(LocTerm)
	if !ok {
		return p
	}
	p.kind = atWindow
	if p.bi, p.err = bindingIndex(bindings, l.Table, l.Pos); p.err != nil {
		return p
	}
	if r, ok := p.right.(LocTerm); ok {
		// Juxtaposition: simultaneous search of two R-trees.
		p.kind = atJuxtapose
		if p.bj, p.err = bindingIndex(bindings, r.Table, r.Pos); p.err == nil && p.bi == p.bj {
			p.err = errf(at.Pos, "at-clause relates %q to itself", l.Table)
		}
	}
	return p
}

// computeNeed marks, per binding, the columns any select, where, or
// order-by expression references, so batch materialization can skip
// decoding the rest (column-lazy). Unqualified references mark every
// binding that has the column — over-marking is safe, under-marking is
// not. select * marks everything.
func computeNeed(bindings []binding, q *Query) [][]bool {
	need := make([][]bool, len(bindings))
	for i, b := range bindings {
		need[i] = make([]bool, b.schema.Arity())
		for j := range need[i] {
			need[i][j] = q.Star
		}
	}
	var walk func(e Expr)
	walk = func(e Expr) {
		switch ex := e.(type) {
		case ColumnRef:
			for i, b := range bindings {
				if ex.Table != "" && ex.Table != b.name {
					continue
				}
				if ci := b.schema.ColumnIndex(ex.Column); ci >= 0 {
					need[i][ci] = true
				}
			}
		case UnaryExpr:
			walk(ex.Expr)
		case BinaryExpr:
			walk(ex.Left)
			walk(ex.Right)
		case FuncCall:
			for _, a := range ex.Args {
				walk(a)
			}
		}
	}
	for _, it := range q.Select {
		walk(it.Expr)
	}
	if q.Where != nil {
		walk(q.Where)
	}
	for _, ob := range q.OrderBy {
		walk(ob.Expr)
	}
	return need
}

// bindExpr returns e with every column reference that resolves against
// bindings replaced by its boundCol. The AST is shared and read-only, so
// the nodes above a replaced reference are copies.
func bindExpr(bindings []binding, e Expr) Expr {
	switch ex := e.(type) {
	case ColumnRef:
		if bi, ci, err := resolveColumn(bindings, ex); err == nil {
			return boundCol{ColumnRef: ex, bi: bi, ci: ci}
		}
	case UnaryExpr:
		ex.Expr = bindExpr(bindings, ex.Expr)
		return ex
	case BinaryExpr:
		ex.Left, ex.Right = bindExpr(bindings, ex.Left), bindExpr(bindings, ex.Right)
		return ex
	case FuncCall:
		args := make([]Expr, len(ex.Args))
		for i, a := range ex.Args {
			args[i] = bindExpr(bindings, a)
		}
		ex.Args = args
		return ex
	}
	return e
}
