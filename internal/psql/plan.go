package psql

import (
	"fmt"
	"strings"

	"repro/internal/relation"
)

// StepKind names the access-path decision a Step records; each kind's
// comment says which fields it reads.
type StepKind uint8

const (
	StepDirectSearch             StepKind = iota // Rel's R-tree on picture Other, N windows, Op
	StepIndexAt                                  // B-tree on Rel.Column (Cmp) drives the at-clause: Est vs direct Alt
	StepIndexLookup                              // B-tree on Rel.Column (Cmp), no at-clause: Est vs scan Alt
	StepScan                                     // a full scan of N relations
	StepRestrict                                 // join side Rel cut to N of Of by Terms terms: Est vs traversal Alt
	StepProbe                                    // batched direct search of Rel from N surviving Other MBRs, Op: Est vs traversal Alt
	StepTraversal                                // simultaneous R-tree traversal of Rel and Other, Op
	StepNestedLoop                               // every entry of Rel against every entry of Other, Op
	StepDirectOverBTree                          // direct search (Est) kept over the B-tree on Rel.Column (Alt)
	StepScanOverBTree                            // a scan (Est) kept over the B-tree on Rel.Column (Alt)
	StepTraversalOverRestriction                 // the traversal (Est) kept over restricting Rel (Alt)
	StepTraversalOverProbe                       // the traversal (Est) kept over a probe from N surviving Rel MBRs (Alt)

	stepKinds // the number of kinds
)

// Step is one access-path decision of a statement: what was chosen and
// from which estimates. It holds names and numbers only, so a Result
// shares nothing with the statement that made it, and it is rendered
// only when read (String). A restriction reads from a heap scan when
// Column is empty, and was not priced against a traversal when Alt is 0
// (a disjoined join restricts whatever the price).
type Step struct {
	Kind               StepKind
	Op                 SpatialOp
	Cmp                relation.Op
	Depth              int32 // nesting depth: 0 for the outermost query
	N, Of, Terms       int32
	Rel, Other, Column string
	Est, Alt           float64 // the chosen path's estimate and the rejected one's
}

// cmpText spells a comparison as the where-clause wrote it, the column
// on the left.
var cmpText = [...]string{relation.OpEq: "=", relation.OpLt: "<", relation.OpLe: "<=", relation.OpGt: ">", relation.OpGe: ">="}

// String renders the step as one line of the plan, prefixed "nested: "
// once per level of nesting.
func (s Step) String() string {
	return strings.Repeat("nested: ", int(s.Depth)) + s.line()
}

func (s Step) line() string {
	switch s.Kind {
	case StepDirectSearch:
		return fmt.Sprintf("direct spatial search: R-tree of %q on %q, %d window(s), %s", s.Rel, s.Other, s.N, s.Op)
	case StepIndexAt:
		return fmt.Sprintf("index lookup: %s drives the at-clause (est %.1f vs direct %.1f)", s.btree(), s.Est, s.Alt)
	case StepIndexLookup:
		return fmt.Sprintf("index lookup: %s (est %.1f vs scan %.1f)", s.btree(), s.Est, s.Alt)
	case StepScan:
		return fmt.Sprintf("scan: full scan of %d relation(s)", s.N)
	case StepRestrict:
		how, vs := "heap scan", fmt.Sprintf("est %.1f", s.Est)
		if s.Column != "" {
			how = s.btree()
		}
		if s.Alt != 0 {
			vs += fmt.Sprintf(" vs traversal %.1f", s.Alt)
		}
		return fmt.Sprintf("juxtaposition restriction: %q reduced to %d of %d tuple(s) by %d where-term(s), %s (%s)",
			s.Rel, s.N, s.Of, s.Terms, how, vs)
	case StepProbe:
		return fmt.Sprintf("juxtaposition: batched direct search of %q from the %d surviving %q MBR(s) (%s) (est %.1f vs traversal %.1f)",
			s.Rel, s.N, s.Other, s.Op, s.Est, s.Alt)
	case StepTraversal:
		return fmt.Sprintf("juxtaposition: simultaneous R-tree traversal of %q and %q (%s)", s.Rel, s.Other, s.Op)
	case StepNestedLoop:
		return fmt.Sprintf("juxtaposition: nested loop of %q and %q (%s admits no pruning)", s.Rel, s.Other, s.Op)
	case StepDirectOverBTree:
		return fmt.Sprintf("cost: direct spatial search (est %.1f) kept over B-tree on %s.%s (est %.1f)", s.Est, s.Rel, s.Column, s.Alt)
	case StepScanOverBTree:
		return fmt.Sprintf("cost: scan (est %.1f) kept over B-tree on %s.%s (est %.1f)", s.Est, s.Rel, s.Column, s.Alt)
	case StepTraversalOverRestriction:
		return fmt.Sprintf("cost: traversal (est %.1f) kept over restricting %q (est %.1f)", s.Est, s.Rel, s.Alt)
	case StepTraversalOverProbe:
		return fmt.Sprintf("cost: traversal (est %.1f) kept over batched direct search from the %d surviving %q MBR(s) (est %.1f)",
			s.Est, s.N, s.Rel, s.Alt)
	}
	return fmt.Sprintf("StepKind(%d)", s.Kind)
}

// btree names the B-tree a step reads and the term it answers.
func (s Step) btree() string {
	return fmt.Sprintf("B-tree on %s.%s (%s)", s.Rel, s.Column, cmpText[s.Cmp])
}

// Plan is a statement's access-path decisions: the outer query's first,
// then its nested mappings', each in the order they were made.
type Plan []Step

// Lines renders every step, one line each.
func (p Plan) Lines() []string {
	out := make([]string, len(p))
	for i, s := range p {
		out[i] = s.String()
	}
	return out
}
