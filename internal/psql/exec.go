package psql

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"

	"repro/internal/geom"
	"repro/internal/picture"
	"repro/internal/relation"
	"repro/internal/storage"
)

// Catalog resolves names in queries: relations, pictures, and named
// locations ("a name of a location predefined outside the retrieve
// mapping").
type Catalog interface {
	Relation(name string) (*relation.Relation, bool)
	Picture(name string) (*picture.Picture, bool)
	Location(name string) (geom.Rect, bool)
}

// Executor runs PSQL queries against a catalog. It is safe for
// concurrent use: Run calls may race with each other and with
// RegisterFunc (the statement cache and function registry are locked
// internally); MaxProductRows and Parallelism should be configured
// before the executor is shared.
type Executor struct {
	cat   Catalog
	mu    sync.RWMutex // guards funcs
	funcs map[string]Func
	cache *stmtCache
	// MaxProductRows caps unindexed products — a cartesian product, the
	// qualifying pairs of a disjoined juxtaposition — as a safety net;
	// zero means the default of one million.
	MaxProductRows int
	// Parallelism caps the worker goroutines used for multi-window
	// direct search, join materialization, and batched tuple fetch;
	// zero or negative means runtime.GOMAXPROCS(0). Query results are
	// identical at any setting — parallel plans merge in deterministic
	// window/pair order.
	Parallelism int
}

// maxProductRows resolves the executor's cap on unindexed products.
func (e *Executor) maxProductRows() int {
	if e.MaxProductRows > 0 {
		return e.MaxProductRows
	}
	return 1_000_000
}

// parallelism resolves the executor's worker budget.
func (e *Executor) parallelism() int {
	if e.Parallelism > 0 {
		return e.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// NewExecutor returns an executor with the builtin function registry
// and a statement cache of DefaultStatementCacheSize entries.
func NewExecutor(cat Catalog) *Executor {
	return &Executor{cat: cat, funcs: builtinFuncs(), cache: newStmtCache(0)}
}

// RegisterFunc installs (or replaces) a PSQL-callable function — the
// paper's application-defined extension hook. Cached statements that
// call name are invalidated, so queries parsed before the registration
// still see the new implementation.
func (e *Executor) RegisterFunc(name string, f Func) {
	name = strings.ToLower(name)
	e.mu.Lock()
	e.funcs[name] = f
	e.mu.Unlock()
	e.cache.invalidateFunc(name)
}

// lookupFunc resolves a registered function under the registry lock.
func (e *Executor) lookupFunc(name string) (Func, bool) {
	e.mu.RLock()
	f, ok := e.funcs[name]
	e.mu.RUnlock()
	return f, ok
}

// CacheStats reports the statement cache's hit/miss/eviction counters.
func (e *Executor) CacheStats() CacheStats { return e.cache.stats() }

// Run parses and executes one PSQL mapping, reusing the cached parse
// and analysis when the exact query text was run before.
func (e *Executor) Run(src string) (*Result, error) {
	if ent, ok := e.cache.get(src); ok {
		return e.exec(ent.q, ent.an, execOpts{})
	}
	q, err := Parse(src)
	if err != nil {
		return nil, err
	}
	an := analyze(q)
	e.cache.put(src, q, an)
	return e.exec(q, an, execOpts{})
}

// RunNaive parses and executes src through the naive reference path:
// no statement cache, no cost-based planning, no batched
// materialization — full scans, nested loops, and per-id tuple
// fetches. Rows, Columns, and Locs are identical to Run's (both paths
// emit canonical row order); NodesVisited differs because the naive
// path touches no index. It exists as the oracle the planned executor
// is tested against.
func (e *Executor) RunNaive(src string) (*Result, error) {
	q, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return e.exec(q, analyze(q), execOpts{naive: true})
}

// Prepared is a statement parsed and analyzed once, whose at-clause
// window is supplied per execution — the prepared-parameter path for
// repeated point-in-window queries, including windows inside nested
// mappings.
type Prepared struct {
	e   *Executor
	q   *Query
	an  *analysis
	pos int // source position of the area literal ExecWindow overrides
}

// Prepare parses src and binds its single at-clause area literal as
// the statement's window parameter. The literal may sit in the outer
// query or in a nested mapping; a statement with zero or multiple area
// literals cannot be prepared this way.
func (e *Executor) Prepare(src string) (*Prepared, error) {
	q, err := Parse(src)
	if err != nil {
		return nil, err
	}
	an := analyze(q)
	if len(an.areas) != 1 {
		return nil, fmt.Errorf("psql: prepare needs exactly one at-clause area literal, found %d", len(an.areas))
	}
	return &Prepared{e: e, q: q, an: an, pos: an.areas[0]}, nil
}

// Exec runs the prepared statement with its original window.
func (p *Prepared) Exec() (*Result, error) {
	return p.e.exec(p.q, p.an, execOpts{})
}

// ExecWindow runs the prepared statement with the area literal
// replaced by {cx±dx, cy±dy}. The parse, analysis, and plan skeleton
// are reused; only the window changes.
func (p *Prepared) ExecWindow(cx, dx, cy, dy float64) (*Result, error) {
	w := geom.WindowAt(cx, dx, cy, dy)
	return p.e.exec(p.q, p.an, execOpts{window: &w, windowPos: p.pos})
}

// binding is one from-clause entry resolved against the catalog.
type binding struct {
	name    string // alias or relation name
	rel     *relation.Relation
	schema  relation.Schema
	picture string // picture from the on-clause, "" when none
}

// row is one candidate result row: a tuple per binding.
type row struct {
	ids    []storage.TupleID
	tuples []relation.Tuple
}

// execOpts carries per-execution modes threaded through nested
// mappings.
type execOpts struct {
	// naive selects the reference execution path: no planner, no
	// batching, no index shortcuts beyond the spatial semantics
	// themselves.
	naive bool
	// window, when non-nil, replaces the area literal at source
	// position windowPos — the prepared-statement parameter.
	window    *geom.Rect
	windowPos int
}

// execState carries one query execution.
type execState struct {
	e        *Executor
	q        *Query
	an       *analysis
	opts     execOpts
	bindings []binding
	// need[i][ci] marks the columns of binding i the query references;
	// nil means decode every column (naive mode / select *).
	need    [][]bool
	visited int
	// pushed[i] marks where-conjunct i as already evaluated by a plan
	// step ahead of the joined row (a juxtaposition restriction);
	// qualifies skips it. nil when nothing was pushed.
	pushed   []bool
	plan     []string
	subnotes []string // plan notes of nested mappings, reported after the outer plan
}

// note records one access-path decision for Result.Plan.
func (st *execState) note(format string, args ...any) {
	st.plan = append(st.plan, fmt.Sprintf(format, args...))
}

// planNotes assembles Result.Plan: the outer query's decisions first,
// then nested mappings'.
func (st *execState) planNotes() []string {
	if len(st.subnotes) == 0 {
		return st.plan
	}
	return append(append([]string(nil), st.plan...), st.subnotes...)
}

// Exec executes a parsed query (analyzing it on the spot; Run serves
// repeated text through the statement cache instead).
func (e *Executor) Exec(q *Query) (*Result, error) {
	return e.exec(q, analyze(q), execOpts{})
}

// exec executes a parsed and analyzed query.
func (e *Executor) exec(q *Query, an *analysis, opts execOpts) (*Result, error) {
	st := &execState{e: e, q: q, an: an, opts: opts}
	if err := st.resolveFrom(); err != nil {
		return nil, err
	}
	st.computeNeed()
	rows, err := st.candidateRows()
	if err != nil {
		return nil, err
	}
	// Qualification filter.
	if q.Where != nil && hasAggregate(q.Where) {
		return nil, fmt.Errorf("psql: aggregates are not allowed in the where-clause")
	}
	if q.Where != nil {
		kept := rows[:0]
		for i := range rows {
			ok, err := st.qualifies(&rows[i])
			if err != nil {
				return nil, err
			}
			if ok {
				kept = append(kept, rows[i])
			}
		}
		rows = kept
	}
	// An aggregated target list collapses to one row; order-by and
	// limit are meaningless then.
	for _, it := range q.Select {
		if isAggregate(it.Expr) {
			if len(q.OrderBy) > 0 || q.Limit != nil {
				return nil, fmt.Errorf("psql: order by / limit cannot combine with aggregates")
			}
			return st.projectAggregates(rows)
		}
	}
	if len(q.OrderBy) > 0 {
		if err := st.orderRows(rows); err != nil {
			return nil, err
		}
	}
	if q.Limit != nil && len(rows) > *q.Limit {
		rows = rows[:*q.Limit]
	}
	return st.project(rows)
}

func (st *execState) resolveFrom() error {
	q := st.q
	if len(q.From) == 0 {
		return fmt.Errorf("psql: query has no from-clause")
	}
	seen := map[string]bool{}
	for i, ref := range q.From {
		rel, ok := st.e.cat.Relation(ref.Relation)
		if !ok {
			return fmt.Errorf("psql: unknown relation %q", ref.Relation)
		}
		b := binding{name: ref.Binding(), rel: rel, schema: rel.Schema()}
		if seen[b.name] {
			return fmt.Errorf("psql: duplicate relation binding %q", b.name)
		}
		seen[b.name] = true
		// Positional on-clause match; a single picture applies to all.
		switch {
		case len(q.On) == 0:
		case len(q.On) == 1:
			b.picture = q.On[0]
		case len(q.On) == len(q.From):
			b.picture = q.On[i]
		default:
			return fmt.Errorf("psql: on-clause lists %d pictures for %d relations", len(q.On), len(q.From))
		}
		if b.picture != "" {
			if _, ok := st.e.cat.Picture(b.picture); !ok {
				return fmt.Errorf("psql: unknown picture %q", b.picture)
			}
		}
		st.bindings = append(st.bindings, b)
	}
	return nil
}

// qualifies applies the where-clause to one row. The planned path
// evaluates the analysis's cost-ordered conjuncts with short-circuit
// AND — cheap, selective terms reject rows before expensive function
// calls run — and skips the terms a juxtaposition restriction already
// evaluated; the naive path evaluates the qualification exactly as
// written.
func (st *execState) qualifies(r *row) (bool, error) {
	if st.opts.naive || st.an == nil || (len(st.an.conjuncts) <= 1 && st.pushed == nil) {
		d, err := st.eval(st.q.Where, r)
		if err != nil {
			return false, err
		}
		return d.Truth()
	}
	for i, c := range st.an.conjuncts {
		if st.pushed != nil && st.pushed[i] {
			continue
		}
		d, err := st.eval(c.expr, r)
		if err != nil {
			return false, err
		}
		ok, err := d.Truth()
		if err != nil {
			return false, err
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

// computeNeed marks, per binding, the columns any select, where, or
// order-by expression references, so batch materialization can skip
// decoding the rest (column-lazy). Unqualified references mark every
// binding that has the column — over-marking is safe, under-marking is
// not. Naive mode and select * decode everything (need stays nil /
// all-true).
func (st *execState) computeNeed() {
	if st.opts.naive {
		return
	}
	need := make([][]bool, len(st.bindings))
	for i, b := range st.bindings {
		need[i] = make([]bool, b.schema.Arity())
	}
	if st.q.Star {
		for i := range need {
			for j := range need[i] {
				need[i][j] = true
			}
		}
	}
	mark := func(ref ColumnRef) {
		for i, b := range st.bindings {
			if ref.Table != "" && ref.Table != b.name {
				continue
			}
			if ci := b.schema.ColumnIndex(ref.Column); ci >= 0 {
				need[i][ci] = true
			}
		}
	}
	var walk func(e Expr)
	walk = func(e Expr) {
		switch ex := e.(type) {
		case ColumnRef:
			mark(ex)
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
	for _, it := range st.q.Select {
		walk(it.Expr)
	}
	if st.q.Where != nil {
		walk(st.q.Where)
	}
	for _, ob := range st.q.OrderBy {
		walk(ob.Expr)
	}
	st.need = need
}

// needLoc additionally marks binding bi's loc column, for plans that
// re-check the at-clause against materialized tuples.
func (st *execState) needLoc(bi int) {
	if st.need == nil {
		return
	}
	if li := st.bindings[bi].schema.LocColumn(); li >= 0 {
		st.need[bi][li] = true
	}
}

// bindingIndex resolves a table name (alias) to its binding index; an
// empty table name matches when there is exactly one binding.
func (st *execState) bindingIndex(table string, pos int) (int, error) {
	if table == "" {
		if len(st.bindings) == 1 {
			return 0, nil
		}
		return 0, errf(pos, "ambiguous unqualified loc with %d relations", len(st.bindings))
	}
	for i, b := range st.bindings {
		if b.name == table {
			return i, nil
		}
	}
	return 0, errf(pos, "unknown relation %q", table)
}

// scanIDs returns every tuple id of binding i.
func (st *execState) scanIDs(i int) ([]storage.TupleID, error) {
	var out []storage.TupleID
	err := st.bindings[i].rel.Scan(func(id storage.TupleID, _ relation.Tuple) bool {
		out = append(out, id)
		return true
	})
	return out, err
}

// spatialPred returns the geometry predicate for op with the object
// MBR as first argument and the window as second.
func spatialPred(op SpatialOp) func(obj, win geom.Rect) bool {
	switch op {
	case OpCovering:
		return geom.Covers
	case OpOverlapping:
		return geom.Overlapping
	case OpDisjoined:
		return geom.Disjoined
	default:
		return geom.CoveredBy
	}
}

// converse returns the operator with its arguments swapped.
func converse(op SpatialOp) SpatialOp {
	switch op {
	case OpCovering:
		return OpCoveredBy
	case OpCoveredBy:
		return OpCovering
	default:
		return op // overlapping and disjoined are symmetric
	}
}

// candidateRows builds the candidate row set, using the at-clause and
// the R-trees for direct spatial search whenever possible; absent an
// at-clause, a single-relation query with an indexable qualification
// conjunct can use the B-tree index instead of a scan — the paper's
// "indexed the usual way" alphanumeric path. Access paths are chosen
// by the cost model in planner.go; the naive reference mode bypasses
// it entirely.
func (st *execState) candidateRows() ([]row, error) {
	if st.opts.naive {
		return st.naiveRows()
	}
	at := st.q.At
	if at == nil {
		if len(st.bindings) == 1 {
			if ids, ok := st.indexedCandidates(); ok {
				sortTupleIDs(ids)
				return st.cartesian(map[int][]storage.TupleID{0: ids})
			}
		}
		st.note("scan: full scan of %d relation(s)", len(st.bindings))
		return st.cartesian(nil)
	}

	// Normalize: if the left side is not a loc term but the right is,
	// flip using the converse operator so the loc ends up on the left.
	left, op, right := at.Left, at.Op, at.Right
	if _, lok := left.(LocTerm); !lok {
		if _, rok := right.(LocTerm); rok {
			left, right = right, left
			op = converse(op)
		}
	}

	switch l := left.(type) {
	case LocTerm:
		bi, err := st.bindingIndex(l.Table, l.Pos)
		if err != nil {
			return nil, err
		}
		switch r := right.(type) {
		case LocTerm:
			// Juxtaposition: simultaneous search of two R-trees.
			bj, err := st.bindingIndex(r.Table, r.Pos)
			if err != nil {
				return nil, err
			}
			if bi == bj {
				return nil, errf(at.Pos, "at-clause relates %q to itself", l.Table)
			}
			return st.juxtapose(bi, bj, op)
		default:
			windows, err := st.termWindows(right)
			if err != nil {
				return nil, err
			}
			ids, err := st.planWindowSearch(bi, op, windows)
			if err != nil {
				return nil, err
			}
			sortTupleIDs(ids)
			fixed := map[int][]storage.TupleID{bi: ids}
			return st.cartesian(fixed)
		}
	default:
		// No loc side at all: a constant predicate.
		lw, err := st.termWindows(left)
		if err != nil {
			return nil, err
		}
		rw, err := st.termWindows(right)
		if err != nil {
			return nil, err
		}
		if !constantAtHolds(lw, rw, op) {
			return nil, nil
		}
		return st.cartesian(nil)
	}
}

// constantAtHolds evaluates a constant at-clause (no loc side): true
// when any left window relates to any right window.
func constantAtHolds(lw, rw []geom.Rect, op SpatialOp) bool {
	pred := spatialPred(op)
	for _, a := range lw {
		for _, b := range rw {
			if pred(a, b) {
				return true
			}
		}
	}
	return false
}

// planWindowSearch chooses the access path for a single-loc at-clause:
// direct spatial search through the R-tree, or — when the cost model
// prices it at under half the direct estimate — a B-tree lookup on the
// most selective indexable where-conjunct with the spatial predicate
// re-checked per candidate tuple.
func (st *execState) planWindowSearch(bi int, op SpatialOp, windows []geom.Rect) ([]storage.TupleID, error) {
	b := st.bindings[bi]
	if b.picture == "" {
		return nil, fmt.Errorf("psql: relation %q has no picture in the on-clause for direct search", b.name)
	}
	snap, ok := b.rel.SpatialCostSnapshot(b.picture, windows)
	if !ok {
		return nil, fmt.Errorf("psql: relation %q is not spatially indexed on picture %q", b.name, b.picture)
	}
	costDirect := directSearchCost(snap, windows, op)
	if ic, ok := st.bestIndexedConjunct(); ok {
		costIdx := btreeCost(b.rel.Len(), ic.sel)
		if costIdx < btreeHysteresis*costDirect {
			lo, hi := ic.bounds()
			ids, used := b.rel.LookupRange(ic.cmp.col.Column, lo, hi)
			if used {
				st.note("index lookup: B-tree on %s.%s (%s) drives the at-clause (est %.1f vs direct %.1f)",
					b.name, ic.cmp.col.Column, ic.cmp.op, costIdx, costDirect)
				return st.filterSpatial(bi, ids, op, windows)
			}
		} else {
			st.note("cost: direct spatial search (est %.1f) kept over B-tree on %s.%s (est %.1f)",
				costDirect, b.name, ic.cmp.col.Column, costIdx)
		}
	}
	ids, err := st.directSearch(bi, op, windows)
	if err != nil {
		return nil, err
	}
	st.note("direct spatial search: R-tree of %q on %q, %d window(s), %s",
		b.name, b.picture, len(windows), op)
	return ids, nil
}

// filterSpatial keeps the candidate ids whose loc object satisfies op
// against any window, checked per materialized tuple (the non-R-tree
// half of an index-driven at-clause plan).
func (st *execState) filterSpatial(bi int, ids []storage.TupleID, op SpatialOp, windows []geom.Rect) ([]storage.TupleID, error) {
	b := st.bindings[bi]
	li := b.schema.LocColumn()
	if li < 0 {
		return nil, fmt.Errorf("psql: relation %q has no loc column", b.name)
	}
	pic, ok := st.e.cat.Picture(b.picture)
	if !ok {
		return nil, fmt.Errorf("psql: unknown picture %q", b.picture)
	}
	st.needLoc(bi)
	need := make([]bool, b.schema.Arity())
	need[li] = true
	tuples, err := b.rel.GetBatch(ids, need, st.e.parallelism())
	if err != nil {
		return nil, err
	}
	pred := spatialPred(op)
	kept := ids[:0]
	for i, id := range ids {
		mbr, ok := tupleMBR(tuples[i], li, pic, b.picture)
		if !ok {
			continue
		}
		for _, w := range windows {
			if pred(mbr, w) {
				kept = append(kept, id)
				break
			}
		}
	}
	return kept, nil
}

// tupleMBR resolves the MBR of t's loc column against pic; ok is false
// when the tuple references another picture or a missing object —
// exactly the tuples the spatial index does not carry.
func tupleMBR(t relation.Tuple, li int, pic *picture.Picture, picName string) (geom.Rect, bool) {
	ref := t[li].Loc
	if ref.Picture != picName {
		return geom.Rect{}, false
	}
	obj, ok := pic.Get(ref.Object)
	if !ok {
		return geom.Rect{}, false
	}
	return obj.MBR(), true
}

// indexedCandidates answers a no-at-clause single-relation query from
// the B-tree on its most selective indexable where-conjunct, when the
// cost model prices that below a full scan. The full qualification is
// still evaluated afterwards, so using the index only narrows the
// candidates. ok is false when no conjunct is indexable or the scan is
// cheaper.
func (st *execState) indexedCandidates() ([]storage.TupleID, bool) {
	ic, ok := st.bestIndexedConjunct()
	if !ok {
		return nil, false
	}
	b := st.bindings[0]
	costIdx := btreeCost(b.rel.Len(), ic.sel)
	costScan := scanCost(b.rel.Len())
	if costIdx >= costScan {
		st.note("cost: scan (est %.1f) kept over B-tree on %s.%s (est %.1f)",
			costScan, b.name, ic.cmp.col.Column, costIdx)
		return nil, false
	}
	lo, hi := ic.bounds()
	ids, used := b.rel.LookupRange(ic.cmp.col.Column, lo, hi)
	if !used {
		return nil, false
	}
	st.note("index lookup: B-tree on %s.%s (%s) (est %.1f vs scan %.1f)",
		b.name, ic.cmp.col.Column, ic.cmp.op, costIdx, costScan)
	return ids, true
}

// columnVsLiteral matches "col op literal" or its mirror, normalizing
// the operator so the column is on the left.
func columnVsLiteral(be BinaryExpr) (ColumnRef, Expr, string, bool) {
	flip := map[string]string{"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "="}
	if _, ok := flip[be.Op]; !ok {
		return ColumnRef{}, nil, "", false
	}
	if col, ok := be.Left.(ColumnRef); ok && isLiteralExpr(be.Right) {
		return col, be.Right, be.Op, true
	}
	if col, ok := be.Right.(ColumnRef); ok && isLiteralExpr(be.Left) {
		return col, be.Left, flip[be.Op], true
	}
	return ColumnRef{}, nil, "", false
}

func isLiteralExpr(e Expr) bool {
	switch v := e.(type) {
	case NumberLit, StringLit:
		return true
	case UnaryExpr:
		if v.Op != "-" {
			return false
		}
		_, num := v.Expr.(NumberLit)
		return num
	}
	return false
}

// literalAsColumnValue converts a literal expression to a relation
// value of the column's type, so index keys order correctly.
func literalAsColumnValue(e Expr, t relation.Type) (relation.Value, bool) {
	neg := false
	if u, isU := e.(UnaryExpr); isU {
		neg = true
		e = u.Expr
	}
	switch lit := e.(type) {
	case NumberLit:
		f := lit.Value
		i := lit.Int
		if neg {
			f, i = -f, -i
		}
		switch t {
		case relation.TypeInt:
			if !lit.IsInt {
				// A fractional bound on an int column: fall back to
				// the scan path rather than rounding.
				return relation.Value{}, false
			}
			return relation.I(i), true
		case relation.TypeFloat:
			return relation.F(f), true
		}
	case StringLit:
		if t == relation.TypeString && !neg {
			return relation.S(lit.Value), true
		}
	}
	return relation.Value{}, false
}

// termWindows evaluates a non-loc spatial term to one or more windows.
func (st *execState) termWindows(t SpatialTerm) ([]geom.Rect, error) {
	switch tt := t.(type) {
	case AreaTerm:
		if st.opts.window != nil && tt.Pos == st.opts.windowPos {
			// Prepared-statement window parameter replaces this literal.
			return []geom.Rect{*st.opts.window}, nil
		}
		return []geom.Rect{geom.WindowAt(tt.CX, tt.DX, tt.CY, tt.DY)}, nil
	case NameTerm:
		r, ok := st.e.cat.Location(tt.Name)
		if !ok {
			return nil, errf(tt.Pos, "unknown location %q", tt.Name)
		}
		return []geom.Rect{r}, nil
	case SubqueryTerm:
		// Nested mapping: run it, collect the loc/area values of its
		// rows as windows — "The binding of the top level window is
		// dynamically done during the evaluation of the query." The
		// nested execution inherits this statement's mode (naive /
		// prepared window) and cached analysis.
		res, err := st.e.exec(tt.Query, st.an.forQuery(tt.Query), st.opts)
		if err != nil {
			return nil, err
		}
		st.visited += res.NodesVisited
		for _, note := range res.Plan {
			st.subnotes = append(st.subnotes, "nested: "+note)
		}
		var out []geom.Rect
		for _, r := range res.Rows {
			for _, d := range r {
				if d.Kind == KindLoc || d.Kind == KindRect {
					out = append(out, d.Rect)
				}
			}
		}
		if len(out) == 0 {
			return nil, errf(tt.Pos, "nested mapping produced no locations (select a loc column)")
		}
		return out, nil
	case LocTerm:
		return nil, errf(tt.Pos, "internal: loc term where a window was expected")
	}
	return nil, fmt.Errorf("psql: unhandled spatial term %T", t)
}

// directSearch finds the tuples of binding bi whose loc satisfies op
// against any of the windows, via the R-tree when the operator admits
// intersection pruning. The returned ids are unordered (candidateRows
// canonicalizes); duplicates across windows are removed.
func (st *execState) directSearch(bi int, op SpatialOp, windows []geom.Rect) ([]storage.TupleID, error) {
	b := st.bindings[bi]
	if b.picture == "" {
		return nil, fmt.Errorf("psql: relation %q has no picture in the on-clause for direct search", b.name)
	}
	if !b.rel.HasSpatial(b.picture) {
		return nil, fmt.Errorf("psql: relation %q is not spatially indexed on picture %q", b.name, b.picture)
	}
	pred := spatialPred(op)
	var out []storage.TupleID
	if op == OpDisjoined {
		// Disjointness cannot be pruned by intersection: enumerate all
		// live leaf entries (merged across packed and delta trees) and
		// test every window.
		items, visited, err := b.rel.SpatialItems(b.picture)
		if err != nil {
			return nil, err
		}
		st.visited += visited
		for _, w := range windows {
			for _, it := range items {
				if pred(it.Rect, w) {
					out = append(out, storage.TupleIDFromInt64(it.Data))
				}
			}
		}
	} else {
		// Batched direct search: all windows answered through the
		// R-tree's concurrent read path.
		batches, visited, err := b.rel.SearchAreaBatch(b.picture, windows, pred, st.e.parallelism())
		if err != nil {
			return nil, err
		}
		st.visited += visited
		for _, ids := range batches {
			out = append(out, ids...)
		}
	}
	sortTupleIDs(out)
	return dedupSortedIDs(out), nil
}

// pair is one juxtaposition result: x from the at-clause's left
// binding, y from its right.
type pair struct{ x, y storage.TupleID }

// juxtapose performs the paper's geographic join between bindings bi
// and bj, producing joined rows in canonical (binding 0 id, binding 1
// id) order. Where-terms that filter one relation alone restrict that
// side before the join (restrict.go); intersecting operators then join
// by the cheaper of a batched direct search from the survivors' MBRs
// and the simultaneous R-tree traversal, and disjoined by nested loop.
func (st *execState) juxtapose(bi, bj int, op SpatialOp) ([]row, error) {
	if len(st.bindings) != 2 {
		return nil, fmt.Errorf("psql: juxtaposition currently joins exactly two relations, got %d", len(st.bindings))
	}
	a, b := st.bindings[bi], st.bindings[bj]
	if a.picture == "" || b.picture == "" {
		return nil, fmt.Errorf("psql: juxtaposition requires pictures for both relations")
	}
	if !a.rel.HasSpatial(a.picture) || !b.rel.HasSpatial(b.picture) {
		return nil, fmt.Errorf("psql: juxtaposition requires spatial indexes on both relations")
	}
	// sides[0] is binding bi (the at-clause's left loc), sides[1] bj.
	sides := [2]joinSide{{bi: bi}, {bi: bj}}
	if st.q.Where != nil {
		for _, t := range st.restrictions() {
			s := &sides[0]
			if t.bi == bj {
				s = &sides[1]
			}
			s.terms = append(s.terms, t)
		}
	}
	var pairs []pair
	var err error
	if op == OpDisjoined {
		pairs, err = st.nestedLoopPairs(&sides)
	} else {
		pairs, err = st.intersectingPairs(&sides, op)
	}
	if err != nil {
		return nil, err
	}
	// Canonical row order: ascending by binding 0's id, then binding
	// 1's — independent of the join algorithm and driving side.
	first := bi == 0
	sort.Slice(pairs, func(i, j int) bool {
		pi, pj := pairs[i], pairs[j]
		if !first {
			pi, pj = pair{pi.y, pi.x}, pair{pj.y, pj.x}
		}
		if pi.x != pj.x {
			return tupleIDLess(pi.x, pj.x)
		}
		return tupleIDLess(pi.y, pj.y)
	})

	// Batch-materialize each side once over the deduplicated ids; rows
	// then share the decoded tuples (read-only from here on).
	xs := make([]storage.TupleID, len(pairs))
	ys := make([]storage.TupleID, len(pairs))
	for i, p := range pairs {
		xs[i], ys[i] = p.x, p.y
	}
	tx, err := st.fetchSide(bi, xs)
	if err != nil {
		return nil, err
	}
	ty, err := st.fetchSide(bj, ys)
	if err != nil {
		return nil, err
	}
	rows := make([]row, len(pairs))
	idsBuf := make([]storage.TupleID, 2*len(pairs))
	tupBuf := make([]relation.Tuple, 2*len(pairs))
	for i, p := range pairs {
		r := &rows[i]
		r.ids = idsBuf[2*i : 2*i+2 : 2*i+2]
		r.tuples = tupBuf[2*i : 2*i+2 : 2*i+2]
		r.ids[bi], r.tuples[bi] = p.x, tx[i]
		r.ids[bj], r.tuples[bj] = p.y, ty[i]
	}
	return rows, nil
}

// traversalPairs joins the two sides by parallel simultaneous R-tree
// traversal. The visit count is worker-count-independent and juxtapose
// sorts the pairs canonically, so the result rows stay deterministic
// across worker budgets and driving-side choices. The driving side is
// the bigger index by live node count (packed plus delta, summed over
// shards): the larger tree goes first so the traversal fans out over
// more subtrees.
func (st *execState) traversalPairs(sides *[2]joinSide, op SpatialOp, nodesA, nodesB int) ([]pair, error) {
	a, b := st.bindings[sides[0].bi], st.bindings[sides[1].bi]
	pred := spatialPred(op)
	var pairs []pair
	drive := a.name
	if nodesB > nodesA {
		drive = b.name
		jp, visited, err := b.rel.JuxtaposeSpatial(b.picture, a.rel, a.picture,
			func(y, x geom.Rect) bool { return pred(x, y) }, st.e.parallelism())
		if err != nil {
			return nil, err
		}
		st.visited += visited
		pairs = make([]pair, len(jp))
		for i, p := range jp {
			pairs[i] = pair{p.B, p.A}
		}
	} else {
		jp, visited, err := a.rel.JuxtaposeSpatial(a.picture, b.rel, b.picture,
			func(x, y geom.Rect) bool { return pred(x, y) }, st.e.parallelism())
		if err != nil {
			return nil, err
		}
		st.visited += visited
		pairs = make([]pair, len(jp))
		for i, p := range jp {
			pairs[i] = pair{p.A, p.B}
		}
	}
	st.note("juxtaposition: simultaneous R-tree traversal of %q and %q (%s), driving %q (%d vs %d nodes)",
		a.name, b.name, op, drive, nodesA, nodesB)
	return pairs, nil
}

// fetchSide materializes one join side's tuples for a pair list: each
// distinct id is fetched and decoded once, and the result is expanded
// back to pair positions (join sides repeat ids heavily).
func (st *execState) fetchSide(bi int, ids []storage.TupleID) ([]relation.Tuple, error) {
	uniq := make([]storage.TupleID, 0, len(ids))
	at := make(map[storage.TupleID]int, len(ids))
	for _, id := range ids {
		if _, ok := at[id]; !ok {
			at[id] = len(uniq)
			uniq = append(uniq, id)
		}
	}
	var need []bool
	if st.need != nil {
		need = st.need[bi]
	}
	tuples, err := st.bindings[bi].rel.GetBatch(uniq, need, st.e.parallelism())
	if err != nil {
		return nil, err
	}
	out := make([]relation.Tuple, len(ids))
	for i, id := range ids {
		out[i] = tuples[at[id]]
	}
	return out, nil
}

// cartesian builds the product of candidate id lists; fixed overrides
// the candidate list for specific bindings, others are full scans.
// Each binding's candidates are batch-materialized once — product rows
// share the decoded tuples rather than re-fetching per row.
func (st *execState) cartesian(fixed map[int][]storage.TupleID) ([]row, error) {
	lists := make([][]storage.TupleID, len(st.bindings))
	product := 1
	limit := st.e.maxProductRows()
	for i := range st.bindings {
		if ids, ok := fixed[i]; ok {
			lists[i] = ids
		} else {
			ids, err := st.scanIDs(i)
			if err != nil {
				return nil, err
			}
			lists[i] = ids
		}
		product *= len(lists[i])
		if product > limit {
			return nil, fmt.Errorf("psql: cartesian product exceeds %d rows; add an at-clause", limit)
		}
	}
	if product == 0 {
		return nil, nil
	}
	tuples := make([][]relation.Tuple, len(lists))
	for i := range lists {
		var need []bool
		if st.need != nil {
			need = st.need[i]
		}
		ts, err := st.bindings[i].rel.GetBatch(lists[i], need, st.e.parallelism())
		if err != nil {
			return nil, err
		}
		tuples[i] = ts
	}
	nb := len(lists)
	rows := make([]row, product)
	idsBuf := make([]storage.TupleID, product*nb)
	tupBuf := make([]relation.Tuple, product*nb)
	idx := make([]int, nb)
	for ri := 0; ri < product; ri++ {
		r := &rows[ri]
		r.ids = idsBuf[ri*nb : (ri+1)*nb : (ri+1)*nb]
		r.tuples = tupBuf[ri*nb : (ri+1)*nb : (ri+1)*nb]
		for i := range lists {
			r.ids[i] = lists[i][idx[i]]
			r.tuples[i] = tuples[i][idx[i]]
		}
		// Odometer increment.
		for k := nb - 1; k >= 0; k-- {
			idx[k]++
			if idx[k] < len(lists[k]) {
				break
			}
			idx[k] = 0
		}
	}
	return rows, nil
}

// orderRows sorts rows by the order-by keys. Key expressions are
// evaluated per row; evaluation or comparison errors abort the query.
func (st *execState) orderRows(rows []row) error {
	keys := make([][]Datum, len(rows))
	for i := range rows {
		ks := make([]Datum, len(st.q.OrderBy))
		for j, ob := range st.q.OrderBy {
			d, err := st.eval(ob.Expr, &rows[i])
			if err != nil {
				return err
			}
			ks[j] = d
		}
		keys[i] = ks
	}
	// Sort an index permutation (keys and rows must move together).
	idx := make([]int, len(rows))
	for i := range idx {
		idx[i] = i
	}
	var sortErr error
	sort.SliceStable(idx, func(a, b int) bool {
		if sortErr != nil {
			return false
		}
		ka, kb := keys[idx[a]], keys[idx[b]]
		for j, ob := range st.q.OrderBy {
			c, err := compare(ka[j], kb[j])
			if err != nil {
				sortErr = err
				return false
			}
			if c != 0 {
				if ob.Desc {
					return c > 0
				}
				return c < 0
			}
		}
		return false
	})
	if sortErr != nil {
		return sortErr
	}
	sorted := make([]row, len(rows))
	for i, j := range idx {
		sorted[i] = rows[j]
	}
	copy(rows, sorted)
	return nil
}

// project evaluates the target list over the qualifying rows.
func (st *execState) project(rows []row) (*Result, error) {
	res := &Result{NodesVisited: st.visited, Plan: st.planNotes()}

	// Expand the target list.
	var items []SelectItem
	if st.q.Star {
		for bi, b := range st.bindings {
			for _, col := range b.schema.Columns {
				ref := ColumnRef{Column: col.Name}
				if len(st.bindings) > 1 {
					ref.Table = st.bindings[bi].name
				}
				items = append(items, SelectItem{Expr: ref})
			}
		}
	} else {
		items = st.q.Select
	}
	for _, it := range items {
		name := it.Alias
		if name == "" {
			name = it.Expr.String()
		}
		res.Columns = append(res.Columns, name)
	}

	for _, r := range rows {
		out := make([]Datum, len(items))
		for i, it := range items {
			d, err := st.eval(it.Expr, &r)
			if err != nil {
				return nil, err
			}
			out[i] = d
			if d.Kind == KindLoc {
				res.Locs = append(res.Locs, d.Loc)
			}
		}
		res.Rows = append(res.Rows, out)
	}
	return res, nil
}
