package psql

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/arena"
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
// internally). A statement runs on its caller's goroutine; concurrency
// comes from concurrent callers.
type Executor struct {
	cat   Catalog
	mu    sync.RWMutex // guards funcs
	funcs map[string]Func
	cache *stmtCache
}

// maxProductRows caps unindexed products — a cartesian product of two
// or more relations, the qualifying pairs of a disjoined juxtaposition —
// as a safety net; tests lower it. One relation's candidates are no
// product and are not capped.
var maxProductRows = 1_000_000

// NewExecutor returns an executor with the builtin function registry
// and a statement cache of DefaultStatementCacheSize entries.
func NewExecutor(cat Catalog) *Executor {
	return &Executor{cat: cat, funcs: builtinFuncs(), cache: newStmtCache()}
}

// RegisterFunc installs (or replaces) a PSQL-callable function — the
// paper's application-defined extension hook. A call looks its function
// up when it runs, so a statement cached before the registration calls
// the new implementation.
func (e *Executor) RegisterFunc(name string, f Func) {
	name = strings.ToLower(name)
	e.mu.Lock()
	e.funcs[name] = f
	e.mu.Unlock()
}

// lookupFunc resolves a registered function under the registry lock.
func (e *Executor) lookupFunc(name string) (Func, bool) {
	e.mu.RLock()
	f, ok := e.funcs[name]
	e.mu.RUnlock()
	return f, ok
}

// CacheStats reports the statement cache's hit and miss counters and its
// size.
func (e *Executor) CacheStats() CacheStats { return e.cache.stats() }

// Run parses and executes one PSQL mapping, reusing the cached parse,
// analysis and bound statement when the exact query text was run
// before.
func (e *Executor) Run(src string) (*Result, error) {
	ent, ok := e.cache.get(src)
	if !ok {
		q, err := Parse(src)
		if err != nil {
			return nil, err
		}
		ent = newStmtEntry(src, q, analyze(q))
		e.cache.put(ent)
	}
	return e.run(ent, execOpts{})
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
	return e.run(newStmtEntry(src, q, analyze(q)), execOpts{naive: true})
}

// row is one candidate result row: a tuple per binding.
type row []relation.Tuple

// stmtArena is the scratch memory of one planned statement, its nested
// mappings included: the relation arena its fetches decode into and its
// rows. Every fetch, restriction, join side and row list of the
// statement cuts fresh slots from it, and it is reset only when the
// statement's exec returns (DESIGN.md §11). A Result holds Datum copies
// whose strings the relation's decode allocated apart, so nothing a
// Result holds points into the arena.
type stmtArena struct {
	rel  relation.Arena
	rows arena.Slab[row]
}

// relArena and rowSlab are a's parts; a nil arena, the naive
// executor's, allocates afresh.
func (a *stmtArena) relArena() *relation.Arena {
	if a == nil {
		return nil
	}
	return &a.rel
}

func (a *stmtArena) rowSlab() *arena.Slab[row] {
	if a == nil {
		return nil
	}
	return &a.rows
}

// stmtArenas holds the arenas of finished statements, reset, for the
// next ones.
var stmtArenas = sync.Pool{New: func() any { return new(stmtArena) }}

// execOpts carries per-execution modes threaded through nested
// mappings.
type execOpts struct {
	// naive selects the reference execution path: no planner, no
	// batching, no index shortcuts beyond the spatial semantics
	// themselves. It allocates afresh and never uses arena.
	naive bool
	// arena is the planned statement's scratch memory, shared with its
	// nested mappings.
	arena *stmtArena
}

// execState carries one execution of a bound statement.
type execState struct {
	*boundStmt
	e       *Executor
	opts    execOpts
	visited int
	plan    Plan
}

// note records one access-path decision for Result.Plan. A statement
// makes one or two, so its plan starts with room for two.
func (st *execState) note(s Step) {
	if st.plan == nil {
		st.plan = make(Plan, 0, 2)
	}
	st.plan = append(st.plan, s)
}

// newResult starts the statement's Result with its node count, its
// column headings and its plan: the outer query's steps first, then its
// nested mappings', which ran before the outer query chose its path.
func (st *execState) newResult() *Result {
	slices.SortStableFunc(st.plan, func(a, b Step) int { return cmp.Compare(min(a.Depth, 1), min(b.Depth, 1)) })
	return &Result{NodesVisited: st.visited, Plan: st.plan, Columns: slices.Clone(st.columns)}
}

// run executes ent's statement: the naive executor binds it afresh, the
// planned one uses the entry's bound statement when it still holds
// against the catalog and binds again, for everyone after, when not.
func (e *Executor) run(ent *stmtEntry, opts execOpts) (*Result, error) {
	if opts.naive {
		b, err := e.bind(ent, true)
		if err != nil {
			return nil, err
		}
		return e.exec(b, opts)
	}
	b := ent.bound.Load()
	if b == nil || !b.current(e.cat) {
		var err error
		if b, err = e.bind(ent, false); err != nil {
			return nil, err
		}
		ent.bound.Store(b)
	}
	return e.exec(b, opts)
}

// exec executes a bound statement. A planned statement that is not
// nested takes an arena from stmtArenas and hands it back, reset, when
// it returns.
func (e *Executor) exec(b *boundStmt, opts execOpts) (*Result, error) {
	if !opts.naive && opts.arena == nil {
		a := stmtArenas.Get().(*stmtArena)
		defer func() {
			a.rel.Reset()
			a.rows.Reset()
			stmtArenas.Put(a)
		}()
		opts.arena = a
	}
	st := &execState{boundStmt: b, e: e, opts: opts}
	rows, err := st.candidateRows()
	if err != nil {
		return nil, err
	}
	// Qualification filter.
	if st.q.Where != nil {
		kept := rows[:0]
		for _, r := range rows {
			ok, err := st.qualifies(r)
			if err != nil {
				return nil, err
			}
			if ok {
				kept = append(kept, r)
			}
		}
		rows = kept
	}
	if st.aggregate {
		return st.projectAggregates(rows)
	}
	if len(st.q.OrderBy) > 0 {
		if err := st.orderRows(rows); err != nil {
			return nil, err
		}
	}
	if st.q.Limit != nil && len(rows) > *st.q.Limit {
		rows = rows[:*st.q.Limit]
	}
	return st.project(rows)
}

// qualifies applies the where-clause to one row. The planned path
// evaluates the residual conjuncts — those past the head run, which
// every read of a binding has already tested — in the analysis's cost
// order with short-circuit AND, so cheap, selective terms reject rows
// before expensive function calls run; the naive path evaluates the
// qualification exactly as written.
func (st *execState) qualifies(r row) (bool, error) {
	if st.opts.naive {
		return st.truth(st.q.Where, r)
	}
	for _, c := range st.conjuncts {
		if ok, err := st.truth(c, r); err != nil || !ok {
			return false, err
		}
	}
	return true, nil
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
// it entirely. Every id list handed on is in canonical ascending order,
// made so where it was produced, and nothing downstream sorts again.
func (st *execState) candidateRows() ([]row, error) {
	if st.opts.naive {
		return st.naiveRows()
	}
	at := &st.at
	if at.err != nil {
		return nil, at.err
	}
	switch at.kind {
	case atWindow:
		windows, err := st.termWindows(at.right)
		if err != nil {
			return nil, err
		}
		ids, tuples, err := st.planWindowSearch(at.bi, at.op, windows)
		if err != nil {
			return nil, err
		}
		return st.cartesian(at.bi, ids, tuples)
	case atJuxtapose:
		return st.juxtapose(at.bi, at.bj, at.op)
	case atConstant:
		// No loc side at all: a constant predicate.
		holds, err := st.constantAt()
		if err != nil || !holds {
			return nil, err
		}
		return st.cartesian(-1, nil, nil)
	}
	if ids, ok := st.indexedCandidates(); ok {
		return st.cartesian(0, ids, nil)
	}
	return st.cartesian(-1, nil, nil)
}

// constantAt evaluates an at-clause with no loc side: it holds when any
// left window relates to any right window.
func (st *execState) constantAt() (bool, error) {
	lw, err := st.termWindows(st.at.left)
	if err != nil {
		return false, err
	}
	rw, err := st.termWindows(st.at.right)
	if err != nil {
		return false, err
	}
	pred := spatialPred(st.at.op)
	for _, a := range lw {
		for _, b := range rw {
			if pred(a, b) {
				return true, nil
			}
		}
	}
	return false, nil
}

// planWindowSearch chooses the access path for a single-loc at-clause:
// direct spatial search through the R-tree, or — when the cost model
// prices it at under half the direct estimate — a B-tree lookup on the
// most selective indexable where-conjunct, its candidates restricted as
// a juxtaposition side is (restrictSide) and each survivor's MBR tested
// against the windows. It returns the candidates in ascending id order
// and, from the B-tree path, their tuples, read by restrictSide.
func (st *execState) planWindowSearch(bi int, op SpatialOp, windows []geom.Rect) ([]storage.TupleID, []relation.Tuple, error) {
	b := st.bindings[bi]
	if b.picture == "" {
		return nil, nil, fmt.Errorf("psql: relation %q has no picture in the on-clause for direct search", b.name)
	}
	snap, ok := b.rel.SpatialCostSnapshot(b.picture)
	if !ok {
		return nil, nil, fmt.Errorf("psql: relation %q is not spatially indexed on picture %q", b.name, b.picture)
	}
	costDirect := directSearchCost(snap, windows, op)
	if ic, ok := st.bestIndexedConjunct(); ok {
		costIdx := btreeCost(b.rel.Len(), ic.sel)
		if costIdx < btreeHysteresis*costDirect {
			st.note(Step{Kind: StepIndexAt, Rel: b.name, Column: ic.cmp.col.Column, Cmp: ic.op(), Est: costIdx, Alt: costDirect})
			items, tuples, err := st.restrictSide(bi, &ic)
			if err != nil {
				return nil, nil, err
			}
			pred := spatialPred(op)
			var ids []storage.TupleID
			kept := tuples[:0]
			for i, it := range items {
				if slices.ContainsFunc(windows, func(w geom.Rect) bool { return pred(it.Rect, w) }) {
					ids = append(ids, storage.TupleIDFromInt64(it.Data))
					kept = append(kept, tuples[i])
				}
			}
			return ids, kept, nil
		}
		st.note(Step{Kind: StepDirectOverBTree, Rel: b.name, Column: ic.cmp.col.Column, Est: costDirect, Alt: costIdx})
	}
	st.note(Step{Kind: StepDirectSearch, Rel: b.name, Other: b.picture, N: int32(len(windows)), Op: op})
	ids, err := st.directSearch(bi, op, windows)
	return ids, nil, err
}

// tupleMBR returns the MBR of the object t's loc column carries; ok is
// false when the loc names another picture or is zero — exactly the
// tuples the spatial index on picName does not carry.
func tupleMBR(t relation.Tuple, li int, picName string) (geom.Rect, bool) {
	if t[li].Loc.Picture != picName {
		return geom.Rect{}, false
	}
	return t[li].LocMBR()
}

// indexedCandidates answers a no-at-clause single-relation query from
// the B-tree on its most selective indexable where-conjunct, when the
// cost model prices that below a full scan. The full qualification is
// still evaluated afterwards, so using the index only narrows the
// candidates. ok is false when no conjunct is indexable or the scan is
// cheaper; the plan says which.
func (st *execState) indexedCandidates() ([]storage.TupleID, bool) {
	b := st.bindings[0]
	if ic, ok := st.bestIndexedConjunct(); ok {
		n := b.rel.Len()
		costIdx, costScan := btreeCost(n, ic.sel), scanCost(n)
		if costIdx < costScan {
			st.note(Step{Kind: StepIndexLookup, Rel: b.name, Column: ic.cmp.col.Column, Cmp: ic.op(), Est: costIdx, Alt: costScan})
			return b.rel.Lookup(ic.relTerm())
		}
		st.note(Step{Kind: StepScanOverBTree, Rel: b.name, Column: ic.cmp.col.Column, Est: costScan, Alt: costIdx})
	}
	st.note(Step{Kind: StepScan, N: int32(len(st.bindings))})
	return nil, false
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
		// nested execution inherits this statement's mode (naive or
		// planned) and runs from its own entry, bound like any other
		// statement's.
		res, err := st.e.run(st.ent.sub[tt.Query], st.opts)
		if err != nil {
			return nil, err
		}
		st.visited += res.NodesVisited
		for _, s := range res.Plan {
			s.Depth++
			st.note(s)
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
// intersection pruning. The ids come back ascending, each once however
// many windows it satisfies.
func (st *execState) directSearch(bi int, op SpatialOp, windows []geom.Rect) ([]storage.TupleID, error) {
	b := st.bindings[bi]
	pred := spatialPred(op)
	if op != OpDisjoined {
		// Batched direct search: all windows answered through the
		// R-tree, their ids sorted once.
		ids, visited, err := b.rel.SearchWindows(b.picture, windows, pred)
		if err != nil {
			return nil, fmt.Errorf("psql: relation %q is not spatially indexed on picture %q", b.name, b.picture)
		}
		st.visited += visited
		return ids, nil
	}
	// Disjointness cannot be pruned by intersection: enumerate all
	// live leaf entries (merged across packed and delta trees) and
	// test every window.
	items, visited, err := b.rel.SpatialItems(b.picture)
	if err != nil {
		return nil, fmt.Errorf("psql: relation %q is not spatially indexed on picture %q", b.name, b.picture)
	}
	st.visited += visited
	var out []storage.TupleID
	for _, it := range items { // ascending by id
		for _, w := range windows {
			if pred(it.Rect, w) {
				out = append(out, storage.TupleIDFromInt64(it.Data))
				break
			}
		}
	}
	return out, nil
}

// pair is one juxtaposition result: x from the at-clause's left
// binding, y from its right. at[s] is the position of the pair's tuple
// on side s among that side's decoded tuples: its survivors when side s
// was restricted, what fetchSide read otherwise.
type pair struct {
	x, y storage.TupleID
	at   [2]int32
}

// id returns the pair's id on side s: x for 0, y for 1.
func (p pair) id(s int) storage.TupleID {
	if s == 0 {
		return p.x
	}
	return p.y
}

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
	sides := [2]joinSide{{bi: bi, terms: st.sideTerms[bi]}, {bi: bj, terms: st.sideTerms[bj]}}
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
	// 1's — independent of the join algorithm and driving side. A probe
	// returns its pairs in this order; the traversal and the nested loop
	// are sorted here.
	first := bi == 0
	canonical := func(p, q pair) int {
		if !first {
			p, q = pair{x: p.y, y: p.x}, pair{x: q.y, y: q.x}
		}
		if c := p.x.Compare(q.x); c != 0 {
			return c
		}
		return p.y.Compare(q.y)
	}
	if !slices.IsSortedFunc(pairs, canonical) {
		slices.SortFunc(pairs, canonical)
	}

	// A restricted side's survivors were decoded when it was restricted.
	// Any other side is batch-materialized once over its distinct ids,
	// its where-terms tested on each record. Either way a pair names its
	// side's tuple by position, and rows share the decoded tuples
	// (read-only from here on).
	var tuples [2][]relation.Tuple
	for s := range sides {
		if sides[s].restricted {
			tuples[s] = sides[s].tuples
		} else if tuples[s], err = st.fetchSide(sides[s].bi, s, pairs); err != nil {
			return nil, err
		}
	}
	// A pair whose tuple a where-term rejected, or that was deleted since
	// the pairs were found, is dropped.
	rows := st.opts.arena.rowSlab().Cut(len(pairs))[:0]
	tupBuf := st.opts.arena.relArena().Tuples(2 * len(pairs))
	for i, p := range pairs {
		r := tupBuf[2*i : 2*i+2 : 2*i+2]
		for s := range sides {
			r[sides[s].bi] = tuples[s][p.at[s]]
		}
		if r[0] == nil || r[1] == nil {
			continue
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// traversalPairs joins the two sides by simultaneous R-tree traversal.
// The traversal visits the same node pairs whichever tree goes first,
// and juxtapose sorts the pairs canonically, so the sides go in their
// own order.
func (st *execState) traversalPairs(sides *[2]joinSide, op SpatialOp) ([]pair, error) {
	a, b := st.bindings[sides[0].bi], st.bindings[sides[1].bi]
	jp, visited, err := a.rel.JuxtaposeSpatial(a.picture, b.rel, b.picture, spatialPred(op), 0)
	if err != nil {
		return nil, err
	}
	st.visited += visited
	pairs := make([]pair, len(jp))
	for i, p := range jp {
		pairs[i] = pair{x: p.A, y: p.B}
	}
	st.note(Step{Kind: StepTraversal, Rel: a.name, Other: b.name, Op: op})
	return pairs, nil
}

// fetchSide materializes binding bi's tuples for side s of the pairs,
// testing the binding's where-terms on each record's bytes: each
// distinct id is fetched once, in ascending order (join sides repeat
// ids heavily), and pairs[i].at[s] is set to its tuple's position. The
// tuple there is nil when a term rejected it or it was deleted since
// the pairs were found. The pairs are visited
// in ascending side-s order — their own order when the side is the one
// they are sorted by, a permutation sorted once otherwise — so the
// distinct ids and each pair's position among them both fall out of a
// linear walk.
func (st *execState) fetchSide(bi, s int, pairs []pair) ([]relation.Tuple, error) {
	bySide := func(p, q pair) int { return p.id(s).Compare(q.id(s)) }
	var order []int // nil: the pairs are already ascending on side s
	if !slices.IsSortedFunc(pairs, bySide) {
		order = make([]int, len(pairs))
		for i := range order {
			order[i] = i
		}
		slices.SortFunc(order, func(a, b int) int { return bySide(pairs[a], pairs[b]) })
	}
	uniq := make([]storage.TupleID, 0, len(pairs))
	for k := range pairs {
		i := k
		if order != nil {
			i = order[k]
		}
		if id := pairs[i].id(s); len(uniq) == 0 || uniq[len(uniq)-1] != id {
			uniq = append(uniq, id)
		}
		pairs[i].at[s] = int32(len(uniq) - 1)
	}
	return st.bindings[bi].rel.FetchWhere(st.opts.arena.relArena(), uniq, st.need[bi], st.relTerms[bi])
}

// cartesian builds the product of binding fixed's candidates, ids
// (ascending; none when fixed is negative), with every tuple of the
// other bindings. Each binding is read once, its where-terms tested on
// each record's bytes so that only its survivors enter the product:
// fixed through fetchKept, or not at all when kept holds ids' tuples,
// already fetched and restricted, and every other binding by one scan.
// Product rows share the decoded tuples. The cap on a product of two or
// more bindings counts the candidates as they stand before the terms,
// as the naive executor's does, and is checked before anything is read.
func (st *execState) cartesian(fixed int, ids []storage.TupleID, kept []relation.Tuple) ([]row, error) {
	nb := len(st.bindings)
	product := 1
	limit := maxProductRows
	for i, b := range st.bindings {
		if i == fixed {
			product *= len(ids)
		} else {
			product *= b.rel.Len()
		}
		if nb > 1 && product > limit {
			return nil, fmt.Errorf("psql: cartesian product exceeds %d rows; add an at-clause", limit)
		}
	}
	if product == 0 {
		return nil, nil
	}
	a := st.opts.arena.relArena()
	tuples := make([][]relation.Tuple, nb)
	product = 1
	for i, b := range st.bindings {
		var err error
		switch {
		case i == fixed && kept != nil:
			tuples[i] = kept
		case i == fixed:
			_, tuples[i], err = st.fetchKept(i, ids, st.need[i])
		default:
			tuples[i] = a.Tuples(b.rel.Len())[:0]
			err = b.rel.ScanCols(a, st.need[i], st.relTerms[i], func(_ storage.TupleID, t relation.Tuple) bool {
				tuples[i] = append(tuples[i], t)
				return true
			})
		}
		if err != nil {
			return nil, err
		}
		product *= len(tuples[i])
	}
	rows := st.opts.arena.rowSlab().Cut(product)
	if nb == 1 {
		// A one-relation row is the tuple's place in the fetched list.
		for ri := range rows {
			rows[ri] = tuples[0][ri : ri+1 : ri+1]
		}
		return rows, nil
	}
	tupBuf := st.opts.arena.relArena().Tuples(product * nb)
	idx := make([]int, nb)
	for ri := range rows {
		rows[ri] = tupBuf[ri*nb : (ri+1)*nb : (ri+1)*nb]
		for i := range tuples {
			rows[ri][i] = tuples[i][idx[i]]
		}
		// Odometer increment.
		for k := nb - 1; k >= 0; k-- {
			idx[k]++
			if idx[k] < len(tuples[k]) {
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
	nk := len(st.orderBy)
	keys := make([]Datum, len(rows)*nk)
	for i, r := range rows {
		for j, e := range st.orderBy {
			if err := st.eval(e, r, &keys[i*nk+j]); err != nil {
				return err
			}
		}
	}
	// Sort an index permutation (keys and rows must move together).
	idx := make([]int, len(rows))
	for i := range idx {
		idx[i] = i
	}
	var sortErr error
	slices.SortStableFunc(idx, func(a, b int) int {
		if sortErr != nil {
			return 0
		}
		for j, ob := range st.q.OrderBy {
			c, err := compare(&keys[a*nk+j], &keys[b*nk+j])
			if err != nil {
				sortErr = err
				return 0
			}
			if c != 0 {
				if ob.Desc {
					return -c
				}
				return c
			}
		}
		return 0
	})
	if sortErr != nil {
		return sortErr
	}
	sorted := st.opts.arena.rowSlab().Cut(len(rows))
	for i, j := range idx {
		sorted[i] = rows[j]
	}
	copy(rows, sorted)
	return nil
}

// project evaluates the target list over the qualifying rows, into one
// block of datums the result's rows are cut from.
func (st *execState) project(rows []row) (*Result, error) {
	res := st.newResult()
	if len(rows) == 0 {
		return res, nil
	}
	n := len(st.items)
	block := make([]Datum, len(rows)*n)
	res.Rows = make([][]Datum, len(rows))
	for ri, r := range rows {
		out := block[ri*n : (ri+1)*n : (ri+1)*n]
		for i, it := range st.items {
			if err := st.eval(it.Expr, r, &out[i]); err != nil {
				return nil, err
			}
			if out[i].Kind == KindLoc {
				res.Locs = append(res.Locs, out[i].Loc)
			}
		}
		res.Rows[ri] = out
	}
	return res, nil
}
