package psql

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/geom"
	"repro/internal/relation"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// Restrict before you materialise. A where-clause often filters one
// relation alone (`pop > 400000`, `regions.kind = 7`). Such terms are
// tested on that relation's records as they are read, before a
// candidate becomes a row. For a juxtaposition that is before the join,
// and the survivors' MBRs then either drive one batched direct search
// on the other side — the nested mapping's access path, with the inner
// result bound by the planner instead of written by the user — or
// filter the pairs of the simultaneous traversal before any tuple is
// fetched. See DESIGN.md §11.
//
// Which terms these are is fixed when the statement is bound: the
// longest run of bound terms at the head of the planner-ordered
// conjuncts (boundStmt.head), held by relation in relTerms. Only a head
// run is taken because qualifies evaluates conjuncts in that order with
// short-circuit AND: a row an error-free head term rejects never
// reaches the terms behind it, so testing the head run first, per
// relation, rejects the same rows and surfaces the same errors. A bound
// term behind a term that can error stays where it is. Every planned
// read of a binding tests its run — a window's or a B-tree's
// candidates and a product's operand (fetchKept, cartesian's scan), a
// restricted join side (restrictSide) and an unrestricted one
// (fetchSide) — so qualifies evaluates only the conjuncts behind it.

// fetchKept materializes, on the columns need selects, the tuples of
// binding bi that ids name (ascending) and that the binding's head-run
// terms keep, tested on each record's bytes (relation.FetchWhere), so a
// rejected candidate is never decoded, let alone made a row. A tuple
// deleted since ids were read is dropped too. It returns the survivors'
// ids, compacted in place, and their tuples.
func (st *execState) fetchKept(bi int, ids []storage.TupleID, need []bool) ([]storage.TupleID, []relation.Tuple, error) {
	tuples, err := st.bindings[bi].rel.FetchWhere(st.opts.arena.relArena(), ids, need, st.relTerms[bi])
	if err != nil {
		return nil, nil, err
	}
	n := 0
	for i, t := range tuples {
		if t != nil {
			ids[n], tuples[n] = ids[i], t
			n++
		}
	}
	return ids[:n], tuples[:n], nil
}

// restrictionCost prices reducing binding bi to the tuples its terms
// keep: the cheaper of a column-lazy heap scan and a B-tree lookup on
// the most selective indexed term. via is that term when the B-tree
// wins and nil when the scan does.
func (st *execState) restrictionCost(bi int, terms []boundTerm) (cost float64, via *boundTerm) {
	rel := st.bindings[bi].rel
	cost = scanCost(rel.Len())
	if best, ok := bestIndexed(terms); ok {
		if c := btreeCost(rel.Len(), best.sel); c < cost {
			return c, &best
		}
	}
	return cost, nil
}

// joinSide is one side of a juxtaposition while it is planned.
type joinSide struct {
	bi    int         // the binding
	terms []boundTerm // the where-terms that filter this binding alone
	// restricted reports that terms were evaluated ahead of the join:
	// items then holds the survivors, ascending by id, with their
	// tuples.
	restricted bool
	items      []rtree.Item
	tuples     []relation.Tuple // items[i]'s tuple, on the columns the statement needs
	costProbe  float64          // estimate of a direct search driven from items
}

// restrict evaluates s.terms ahead of the join, through the B-tree on
// via's column or, when via is nil, one heap scan, and notes the
// outcome with its estimate, est, and the traversal's, costJoin (0 when
// the restriction was not priced against a traversal).
func (st *execState) restrict(s *joinSide, via *boundTerm, est, costJoin float64) error {
	items, tuples, err := st.restrictSide(s.bi, via)
	if err != nil {
		return err
	}
	s.restricted, s.items, s.tuples = true, items, tuples
	b := st.bindings[s.bi]
	step := Step{Kind: StepRestrict, Rel: b.name, N: int32(len(items)), Of: int32(b.rel.Len()), Terms: int32(len(s.terms)), Est: est, Alt: costJoin}
	if via != nil {
		step.Column, step.Cmp = via.cmp.col.Column, via.op()
	}
	st.note(step)
	return nil
}

// restrictSide reduces binding bi to the tuples its head-run terms keep
// and returns them as (MBR, id) items in ascending id order — the shape
// SpatialItems enumerates, so either can feed a join — beside the tuples
// themselves, decoded on the columns the statement needs and the loc, so
// a survivor is read once. Candidates come from the B-tree on via's
// column, through fetchKept, or from one heap scan when via is nil.
// Either way the terms are tested on each record's bytes, and only a
// survivor is decoded. Tuples whose loc names another picture than the
// on-clause's, or none, are dropped: the spatial index does not carry
// them, so they join nothing.
func (st *execState) restrictSide(bi int, via *boundTerm) ([]rtree.Item, []relation.Tuple, error) {
	b := st.bindings[bi]
	li := b.schema.LocColumn()
	if li < 0 || b.picture == "" {
		return nil, nil, fmt.Errorf("psql: relation %q has no loc column on picture %q", b.name, b.picture)
	}
	need := slices.Clone(st.need[bi])
	need[li] = true
	var items []rtree.Item
	var tuples []relation.Tuple
	keep := func(id storage.TupleID, t relation.Tuple) {
		if mbr, ok := tupleMBR(t, li, b.picture); ok {
			items = append(items, rtree.Item{Rect: mbr, Data: id.Int64()})
			tuples = append(tuples, t)
		}
	}
	if via != nil {
		// The lookup answers: via's column had a B-tree when the
		// statement was bound, a B-tree is never dropped, and via's
		// literal is of its column's type. The scan below would answer
		// alike.
		if ids, ok := b.rel.Lookup(via.relTerm()); ok {
			ids, kept, err := st.fetchKept(bi, ids, need)
			if err != nil {
				return nil, nil, err
			}
			// The survivors are compacted in place: tuples reuses the
			// fetched list's room.
			tuples = kept[:0]
			for i, id := range ids {
				keep(id, kept[i])
			}
			return items, tuples, nil
		}
	}
	if err := b.rel.ScanCols(st.opts.arena.relArena(), need, st.relTerms[bi], func(id storage.TupleID, t relation.Tuple) bool {
		keep(id, t)
		return true
	}); err != nil {
		return nil, nil, err
	}
	// A heap scan follows the page chain, which ascends only until a
	// freed page is reused.
	if byID := (survivorsByID{items, tuples}); !sort.IsSorted(byID) {
		sort.Sort(byID)
	}
	return items, tuples, nil
}

// survivorsByID sorts a side's survivor items, and their tuples with
// them, by id.
type survivorsByID struct {
	items  []rtree.Item
	tuples []relation.Tuple
}

func (s survivorsByID) Len() int           { return len(s.items) }
func (s survivorsByID) Less(i, j int) bool { return s.items[i].Data < s.items[j].Data }
func (s survivorsByID) Swap(i, j int) {
	s.items[i], s.items[j] = s.items[j], s.items[i]
	s.tuples[i], s.tuples[j] = s.tuples[j], s.tuples[i]
}

// survivor returns the position of id among the ascending survivor
// items, and whether it is there.
func survivor(items []rtree.Item, id storage.TupleID) (int, bool) {
	return slices.BinarySearchFunc(items, id.Int64(), func(it rtree.Item, v int64) int { return cmp.Compare(it.Data, v) })
}

// itemRects returns the items' rectangles, the windows of a batched
// direct search driven from them.
func itemRects(items []rtree.Item) []geom.Rect {
	out := make([]geom.Rect, len(items))
	for i, it := range items {
		out[i] = it.Rect
	}
	return out
}

// nestedLoopPairs is the disjoined juxtaposition: disjoint pairs are
// exactly what tree pruning eliminates, so every pair of entries is
// tested. A restriction is the only thing that shrinks the loop and is
// always taken. The qualifying pairs are capped like any other
// unindexed product.
func (st *execState) nestedLoopPairs(sides *[2]joinSide) ([]pair, error) {
	var items [2][]rtree.Item
	for s := range sides {
		side := &sides[s]
		b := st.bindings[side.bi]
		if len(side.terms) > 0 {
			cost, via := st.restrictionCost(side.bi, side.terms)
			if err := st.restrict(side, via, cost, 0); err != nil {
				return nil, err
			}
			items[s] = side.items
			continue
		}
		// Enumeration merges packed and delta trees.
		all, visited, err := b.rel.SpatialItems(b.picture)
		if err != nil {
			return nil, err
		}
		items[s] = all
		st.visited += visited
	}
	st.note(Step{Kind: StepNestedLoop, Rel: st.bindings[sides[0].bi].name, Other: st.bindings[sides[1].bi].name, Op: OpDisjoined})
	limit := maxProductRows
	var pairs []pair
	for i, ia := range items[0] {
		for j, ib := range items[1] {
			if geom.Disjoined(ia.Rect, ib.Rect) {
				if len(pairs) == limit {
					return nil, errDisjoinedLimit(limit)
				}
				pairs = append(pairs, pair{storage.TupleIDFromInt64(ia.Data), storage.TupleIDFromInt64(ib.Data), [2]int32{int32(i), int32(j)}})
			}
		}
	}
	return pairs, nil
}

// errDisjoinedLimit is the planned and naive executors' shared refusal
// of a disjoined juxtaposition with more than limit qualifying pairs.
func errDisjoinedLimit(limit int) error {
	return fmt.Errorf("psql: disjoined juxtaposition exceeds %d rows; restrict a relation in the where-clause", limit)
}

// intersectingPairs joins the two sides under an operator that implies
// MBR intersection. Three estimates pick the plan. A side is restricted
// when its restriction is priced under the traversal; with the exact
// survivor count in hand, a batched direct search of the other side
// from the survivors' MBRs is priced against the traversal again, and
// the cheaper runs. Whichever runs, pairs a restricted side rejects are
// dropped here, before either side is fetched.
func (st *execState) intersectingPairs(sides *[2]joinSide, op SpatialOp) ([]pair, error) {
	a, b := st.bindings[sides[0].bi], st.bindings[sides[1].bi]
	na, _ := a.rel.SpatialCostSnapshot(a.picture, nil)
	nb, _ := b.rel.SpatialCostSnapshot(b.picture, nil)
	nodesA := na.Stats.Nodes + na.DeltaNodes
	nodesB := nb.Stats.Nodes + nb.DeltaNodes
	costJoin := juxtaposeCost(nodesA, nodesB)

	// drive is the restricted side whose probe is cheapest, -1 while
	// the traversal is.
	drive, costBest := -1, costJoin
	var probeWindows []geom.Rect
	for s := range sides {
		side := &sides[s]
		if len(side.terms) == 0 {
			continue
		}
		cost, via := st.restrictionCost(side.bi, side.terms)
		if cost >= costJoin {
			st.note(Step{Kind: StepTraversalOverRestriction, Rel: st.bindings[side.bi].name, Est: costJoin, Alt: cost})
			continue
		}
		if err := st.restrict(side, via, cost, costJoin); err != nil {
			return nil, err
		}
		other := st.bindings[sides[1-s].bi]
		windows := itemRects(side.items)
		snap, _ := other.rel.SpatialCostSnapshot(other.picture, windows)
		side.costProbe = directSearchCost(snap, windows, op)
		if side.costProbe < costBest {
			drive, costBest, probeWindows = s, side.costProbe, windows
		}
	}

	var pairs []pair
	var err error
	if drive >= 0 {
		pairs, err = st.probePairs(sides, drive, probeWindows, op)
		st.note(Step{Kind: StepProbe, Rel: st.bindings[sides[1-drive].bi].name, Other: st.bindings[sides[drive].bi].name,
			N: int32(len(sides[drive].items)), Op: op, Est: costBest, Alt: costJoin})
	} else {
		for s := range sides {
			if sides[s].restricted {
				st.note(Step{Kind: StepTraversalOverProbe, Rel: st.bindings[sides[s].bi].name, N: int32(len(sides[s].items)),
					Est: costJoin, Alt: sides[s].costProbe})
			}
		}
		pairs, err = st.traversalPairs(sides, op)
	}
	if err != nil {
		return nil, err
	}
	for s := range sides {
		if !sides[s].restricted || s == drive {
			continue // unrestricted, or the probe's own windows
		}
		kept := pairs[:0]
		for _, p := range pairs {
			if i, ok := survivor(sides[s].items, p.id(s)); ok {
				p.at[s] = int32(i)
				kept = append(kept, p)
			}
		}
		pairs = kept
	}
	return pairs, nil
}

// probePairs answers the join by one batched direct search of the
// other side's R-tree with windows, the driving side's surviving MBRs —
// what a nested mapping's rows would be, bound here by the planner
// rather than written by the user. The pairs come out in the join's
// canonical order, each naming its survivor by window number.
func (st *execState) probePairs(sides *[2]joinSide, drive int, windows []geom.Rect, op SpatialOp) ([]pair, error) {
	// The operator reads (sides[0] MBR, sides[1] MBR); SearchAreaBatch
	// calls (object, window), so it is turned around when sides[0]'s
	// survivors are the windows.
	probe := spatialPred(op)
	if drive == 0 {
		probe = spatialPred(converse(op))
	}
	from := sides[drive].items
	probed := st.bindings[sides[1-drive].bi]
	batches, visited, err := probed.rel.SearchAreaBatch(probed.picture, windows, probe, 0)
	if err != nil {
		return nil, err
	}
	st.visited += visited
	n := 0
	for _, ids := range batches {
		n += len(ids)
	}
	pairs := make([]pair, 0, n)
	for w, ids := range batches {
		fid := storage.TupleIDFromInt64(from[w].Data)
		for _, id := range ids {
			p := pair{x: id, y: fid}
			if drive == 0 {
				p = pair{x: fid, y: id}
			}
			p.at[drive] = int32(w)
			pairs = append(pairs, p)
		}
	}
	// The pairs run by window, the driving side's ascending ids, then
	// by probed id: the canonical order when the driving side is binding
	// 0. Otherwise the probed side's id leads, and one sort on (probed
	// id, window number) puts it first.
	if sides[drive].bi != 0 {
		slices.SortFunc(pairs, func(p, q pair) int {
			if c := p.id(1 - drive).Compare(q.id(1 - drive)); c != 0 {
				return c
			}
			return cmp.Compare(p.at[drive], q.at[drive])
		})
	}
	return pairs, nil
}
