package psql

import (
	"math"

	"repro/internal/geom"
	"repro/internal/relation"
)

// The cost model. Costs are in abstract "page touches": one R-tree
// node visit, one B-tree node visit, and one tuple fetch all count 1.
// The direct-search estimate follows the paper's Table 1 reasoning —
// the expected number of nodes visited grows with the fraction of the
// indexed space the window covers, widened by the average leaf's area
// (coverage over leaves) — so a tightly packed tree prices direct
// search low. Table 1's leaf overlap is not priced: on fresh Hilbert
// packs, the only trees served, it moved no plan (DESIGN.md §11, §17).
//
// A juxtaposition is priced three times with the same functions. A
// where-term that filters one relation alone can restrict that side
// before the join for min(scanCost, btreeCost) of the side; that is
// taken when it is under juxtaposeCost of the whole two-tree traversal.
// The restriction yields the exact survivor count, so the join itself
// is then directSearchCost of the other side with the survivors' MBRs
// as the windows against juxtaposeCost again: below it the survivors
// probe the other tree in one batch, above it the traversal runs and
// its pairs are filtered by the survivor set (restrict.go).

// btreeHysteresis biases the at-clause plan toward direct spatial
// search: the B-tree alternative must beat it by 2x before the planner
// abandons the R-tree. Spatial estimates are coarse (window-area
// extrapolation), so the bias keeps the paper's signature access path
// unless the index is clearly better.
const btreeHysteresis = 0.5

// directSearchCost estimates the page touches of answering the windows
// through the index described by snap: expected nodes visited plus
// expected qualifying-tuple fetches. The snapshot's live write-side
// sizes keep the estimate honest after inserts and deletes: the delta
// trees add their own visit and fetch terms, and tombstones a probe per
// packed hit.
func directSearchCost(snap relation.CostSnapshot, windows []geom.Rect, op SpatialOp) float64 {
	s := snap.Stats
	if s.Items == 0 && snap.DeltaItems == 0 {
		return 1
	}
	bounds := snap.Bounds
	boundsArea := bounds.Area()
	if boundsArea <= 0 {
		boundsArea = 1
	}
	avgLeaf := 0.0
	if s.Leaves > 0 {
		avgLeaf = s.Coverage / float64(s.Leaves)
	}
	items, nodes := float64(s.Items), float64(s.Nodes)
	deltaItems := float64(snap.DeltaItems)
	deltaNodes := float64(snap.DeltaNodes)
	total := 0.0
	for _, w := range windows {
		// A node is visited when its MBR intersects the window: the
		// classic window-inflated-by-average-extent estimate.
		f := (w.Intersection(bounds).Area() + avgLeaf) / boundsArea
		if f > 1 {
			f = 1
		}
		if op == OpDisjoined {
			// Disjointness admits no pruning: every node is visited and
			// the complement of the window qualifies.
			total += nodes + (1-f)*items + deltaNodes + (1-f)*deltaItems
			continue
		}
		total += 1 + f*(nodes-1) + f*items
		// The unpacked side has poor clustering, so charge every delta
		// node plus the window's share of delta entries; each packed
		// hit also pays a (cheap) tombstone probe.
		total += deltaNodes + f*deltaItems + 0.01*float64(snap.Tombstones)
	}
	return total
}

// juxtaposeCost estimates the page touches of the paper's geographic
// join: a synchronized two-tree descent over both sides' nodes (summed
// over shards when a side is sharded).
func juxtaposeCost(nodesA, nodesB int) float64 {
	return 1 + float64(nodesA+nodesB)
}

// btreeCost estimates the page touches of driving the query from a
// B-tree conjunct with selectivity sel over n tuples: the root-to-leaf
// descent, the qualifying index entries, and a fetch plus spatial test
// per candidate tuple.
func btreeCost(n int, sel float64) float64 {
	if n <= 0 {
		return 1
	}
	return math.Log2(float64(n)+1) + 2*sel*float64(n)
}

// scanCost estimates a full scan: every tuple fetched and decoded.
func scanCost(n int) float64 { return float64(n) }

// boundTerm is a `column op literal` where-conjunct resolved against
// the statement's bindings: the one binding whose column it names, and
// the literal as a value of that column's type. Evaluating a bound term
// cannot error, which is what lets a plan evaluate it away from the
// joined row (B-tree lookup, restriction of the tuples a fetch returns).
type boundTerm struct {
	bi      int // the binding the column belongs to
	ci      int // the column's index in that binding's schema
	cmp     *colCompare
	val     relation.Value // cmp.lit as a value of the column's type
	sel     float64
	indexed bool // the column had a B-tree when the statement was bound
}

// bindTerm resolves conjunct c to a boundTerm. ok is false for every
// term whose evaluation could error or whose B-tree key would not order
// correctly: any other shape, a column the evaluator's own resolution
// (resolveColumn) rejects, and a literal that is not of the column's
// type (a string against an int, a fractional bound on an int column).
func bindTerm(bindings []binding, c conjunct) (boundTerm, bool) {
	if c.cmp == nil {
		return boundTerm{}, false
	}
	bi, ci, err := resolveColumn(bindings, c.cmp.col)
	if err != nil {
		return boundTerm{}, false
	}
	v, ok := literalAsColumnValue(c.cmp.lit, bindings[bi].schema.Columns[ci].Type)
	if !ok {
		return boundTerm{}, false
	}
	indexed := bindings[bi].rel.Index(c.cmp.col.Column) != nil
	return boundTerm{bi: bi, ci: ci, cmp: c.cmp, val: v, sel: c.sel, indexed: indexed}, true
}

// relTerm returns the term as the relation tests it on a record's
// bytes. Its comparison is the executors': numbers as their float64
// images, strings bytewise, and a stored value of another type equal to
// nothing and satisfying what an ordering result of zero satisfies. The
// literal is of the column's type (bindTerm), so no comparison errors.
func (t boundTerm) relTerm() relation.Term {
	return relation.Term{Col: t.ci, Op: t.op(), Val: t.val}
}

// op returns the term's comparison as the relation spells it.
func (t boundTerm) op() relation.Op {
	switch t.cmp.op {
	case "=":
		return relation.OpEq
	case "<":
		return relation.OpLt
	case "<=":
		return relation.OpLe
	case ">":
		return relation.OpGt
	}
	return relation.OpGe
}

// bestIndexed returns the most selective of terms whose column has a
// B-tree; ok is false when none has.
func bestIndexed(terms []boundTerm) (best boundTerm, ok bool) {
	best.sel = math.Inf(1)
	for _, t := range terms {
		if t.indexed && t.sel < best.sel {
			best = t
		}
	}
	return best, best.cmp != nil
}

// bestIndexedConjunct returns the most selective B-tree-answerable term
// of a single-relation query. ok is false when none is indexable.
func (st *execState) bestIndexedConjunct() (boundTerm, bool) {
	if len(st.bindings) != 1 {
		return boundTerm{}, false
	}
	return bestIndexed(st.terms)
}
