package psql

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/relation"
	"repro/internal/storage"
)

// The naive reference executor: the same PSQL semantics as the planned
// path, expressed as full scans, nested loops, and one Get per tuple —
// no R-tree descent, no B-tree shortcuts, no batched materialization,
// no conjunct reordering. It exists so the planned executor has an
// oracle to be compared against row for row: both paths emit candidate
// rows in canonical ascending TupleID order (the order a heap scan
// delivers), so equal semantics mean equal output.

// naiveRows is candidateRows for naive mode.
func (st *execState) naiveRows() ([]row, error) {
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
		ids, err := st.naiveWindowFilter(at.bi, at.op, windows)
		if err != nil {
			return nil, err
		}
		return st.naiveCartesian(map[int][]storage.TupleID{at.bi: ids})
	case atJuxtapose:
		return st.naiveJoin(at.bi, at.bj, at.op)
	case atConstant:
		holds, err := st.constantAt()
		if err != nil || !holds {
			return nil, err
		}
	}
	return st.naiveCartesian(nil)
}

// scanIDs returns every tuple id of binding i. No column is
// materialized, but every record is still validated in full.
func (st *execState) scanIDs(i int) ([]storage.TupleID, error) {
	var out []storage.TupleID
	none := make([]bool, st.bindings[i].schema.Arity())
	err := st.bindings[i].rel.ScanCols(nil, none, nil, func(id storage.TupleID, _ relation.Tuple) bool {
		out = append(out, id)
		return true
	})
	return out, err
}

// naiveMBRs scans binding bi and resolves each tuple's loc MBR against
// the on-clause picture. Tuples whose loc points at another picture or
// a missing object are skipped — the same tuples a spatial index does
// not carry. Ids come back in heap-scan (ascending TupleID) order.
func (st *execState) naiveMBRs(bi int) ([]storage.TupleID, []geom.Rect, error) {
	b := st.bindings[bi]
	if b.picture == "" {
		return nil, nil, fmt.Errorf("psql: relation %q has no picture in the on-clause for direct search", b.name)
	}
	li := b.schema.LocColumn()
	if li < 0 {
		return nil, nil, fmt.Errorf("psql: relation %q has no loc column", b.name)
	}
	ids, err := st.scanIDs(bi)
	if err != nil {
		return nil, nil, err
	}
	var outIDs []storage.TupleID
	var outMBRs []geom.Rect
	for _, id := range ids {
		t, err := b.rel.Get(id)
		if err != nil {
			return nil, nil, err
		}
		mbr, ok := tupleMBR(t, li, b.picture)
		if !ok {
			continue
		}
		outIDs = append(outIDs, id)
		outMBRs = append(outMBRs, mbr)
	}
	return outIDs, outMBRs, nil
}

// naiveWindowFilter keeps binding bi's tuples whose loc satisfies op
// against any window — a full scan standing in for direct search.
func (st *execState) naiveWindowFilter(bi int, op SpatialOp, windows []geom.Rect) ([]storage.TupleID, error) {
	ids, mbrs, err := st.naiveMBRs(bi)
	if err != nil {
		return nil, err
	}
	pred := spatialPred(op)
	var out []storage.TupleID
	for i, id := range ids {
		for _, w := range windows {
			if pred(mbrs[i], w) {
				out = append(out, id)
				break
			}
		}
	}
	return out, nil
}

// naiveJoin is juxtaposition as a nested loop: binding 0 outer, binding
// 1 inner (canonical pair order), with the spatial predicate applied
// respecting which binding the at-clause names first.
func (st *execState) naiveJoin(bi, bj int, op SpatialOp) ([]row, error) {
	if len(st.bindings) != 2 {
		return nil, fmt.Errorf("psql: juxtaposition currently joins exactly two relations, got %d", len(st.bindings))
	}
	ids0, mbrs0, err := st.naiveMBRs(0)
	if err != nil {
		return nil, err
	}
	ids1, mbrs1, err := st.naiveMBRs(1)
	if err != nil {
		return nil, err
	}
	// A disjoined juxtaposition is an unindexed product, capped like
	// one. The cap counts the pairs that pass the where-terms filtering
	// one relation alone (the head run of bound conjuncts — the terms the
	// planned path tests ahead of its nested loop, evaluated here per
	// joined row by the generic evaluator), so both executors refuse the
	// same statements.
	var capped []conjunct
	if op == OpDisjoined {
		capped = st.an.conjuncts[:st.head]
	}
	limit := maxProductRows
	pred := spatialPred(op)
	var rows []row
	for i0, id0 := range ids0 {
		for i1, id1 := range ids1 {
			a, b := mbrs0[i0], mbrs1[i1]
			if bi == 1 {
				a, b = b, a // at-clause names binding 1's loc first
			}
			if !pred(a, b) {
				continue
			}
			t0, err := st.bindings[0].rel.Get(id0)
			if err != nil {
				return nil, err
			}
			t1, err := st.bindings[1].rel.Get(id1)
			if err != nil {
				return nil, err
			}
			r := row{t0, t1}
			if op == OpDisjoined {
				ok, err := st.holdsAll(capped, r)
				if err != nil {
					return nil, err
				}
				if !ok {
					continue
				}
				if len(rows) == limit {
					return nil, errDisjoinedLimit(limit)
				}
			}
			rows = append(rows, r)
		}
	}
	return rows, nil
}

// holdsAll evaluates the conjuncts over r with the generic evaluator.
func (st *execState) holdsAll(conjuncts []conjunct, r row) (bool, error) {
	for _, c := range conjuncts {
		if ok, err := st.truth(c.expr, r); err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}

// naiveCartesian is cartesian with per-id Get instead of batch
// materialization.
func (st *execState) naiveCartesian(fixed map[int][]storage.TupleID) ([]row, error) {
	lists := make([][]storage.TupleID, len(st.bindings))
	product := 1
	limit := maxProductRows
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
		if len(lists) > 1 && product > limit {
			return nil, fmt.Errorf("psql: cartesian product exceeds %d rows; add an at-clause", limit)
		}
	}
	if product == 0 {
		return nil, nil
	}
	rows := make([]row, 0, product)
	idx := make([]int, len(lists))
	for {
		r := make(row, len(lists))
		for i, l := range lists {
			t, err := st.bindings[i].rel.Get(l[idx[i]])
			if err != nil {
				return nil, err
			}
			r[i] = t
		}
		rows = append(rows, r)
		k := len(idx) - 1
		for k >= 0 {
			idx[k]++
			if idx[k] < len(lists[k]) {
				break
			}
			idx[k] = 0
			k--
		}
		if k < 0 {
			return rows, nil
		}
	}
}
