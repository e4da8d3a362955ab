package psql

import (
	"testing"
	"unsafe"

	"repro/internal/relation"
)

// TestStepStringEveryKind renders one step of every kind, and nested
// ones, against the exact line a reader of Result.Plan sees. A kind
// added without a case in Step.String, or without a row here, fails.
func TestStepStringEveryKind(t *testing.T) {
	tests := []struct {
		step Step
		want string
	}{
		{Step{Kind: StepDirectSearch, Rel: "cities", Other: "us-map", N: 1, Op: OpCoveredBy},
			`direct spatial search: R-tree of "cities" on "us-map", 1 window(s), covered-by`},
		{Step{Kind: StepIndexAt, Rel: "cities", Column: "city", Cmp: relation.OpEq, Est: 10.44, Alt: 27.4},
			`index lookup: B-tree on cities.city (=) drives the at-clause (est 10.4 vs direct 27.4)`},
		{Step{Kind: StepIndexLookup, Rel: "cities", Column: "population", Cmp: relation.OpGt, Est: 37.3, Alt: 48},
			`index lookup: B-tree on cities.population (>) (est 37.3 vs scan 48.0)`},
		{Step{Kind: StepScan, N: 2},
			`scan: full scan of 2 relation(s)`},
		{Step{Kind: StepRestrict, Rel: "time-zones", N: 1, Of: 4, Terms: 1, Est: 4, Alt: 18},
			`juxtaposition restriction: "time-zones" reduced to 1 of 4 tuple(s) by 1 where-term(s), heap scan (est 4.0 vs traversal 18.0)`},
		{Step{Kind: StepRestrict, Rel: "cities", Column: "population", Cmp: relation.OpGe, N: 6, Of: 48, Terms: 2, Est: 37.3},
			`juxtaposition restriction: "cities" reduced to 6 of 48 tuple(s) by 2 where-term(s), B-tree on cities.population (>=) (est 37.3)`},
		{Step{Kind: StepProbe, Rel: "time-zones", Other: "cities", N: 1, Op: OpCovering, Est: 5, Alt: 18},
			`juxtaposition: batched direct search of "time-zones" from the 1 surviving "cities" MBR(s) (covering) (est 5.0 vs traversal 18.0)`},
		{Step{Kind: StepTraversal, Rel: "cities", Other: "time-zones", Op: OpOverlapping},
			`juxtaposition: simultaneous R-tree traversal of "cities" and "time-zones" (overlapping)`},
		{Step{Kind: StepNestedLoop, Rel: "cities", Other: "time-zones", Op: OpDisjoined},
			`juxtaposition: nested loop of "cities" and "time-zones" (disjoined admits no pruning)`},
		{Step{Kind: StepDirectOverBTree, Rel: "cities", Column: "population", Est: 27.4, Alt: 37.3},
			`cost: direct spatial search (est 27.4) kept over B-tree on cities.population (est 37.3)`},
		{Step{Kind: StepScanOverBTree, Rel: "pts", Column: "k", Cmp: relation.OpLt, Est: 100, Alt: 106.6},
			`cost: scan (est 100.0) kept over B-tree on pts.k (est 106.6)`},
		{Step{Kind: StepTraversalOverRestriction, Rel: "cities", Est: 18, Alt: 48},
			`cost: traversal (est 18.0) kept over restricting "cities" (est 48.0)`},
		{Step{Kind: StepTraversalOverProbe, Rel: "time-zones", N: 4, Est: 18, Alt: 79.3},
			`cost: traversal (est 18.0) kept over batched direct search from the 4 surviving "time-zones" MBR(s) (est 79.3)`},
		{Step{Kind: StepDirectSearch, Rel: "states", Other: "state-map", N: 1, Op: OpOverlapping, Depth: 1},
			`nested: direct spatial search: R-tree of "states" on "state-map", 1 window(s), overlapping`},
		{Step{Kind: StepScan, N: 1, Depth: 2},
			`nested: nested: scan: full scan of 1 relation(s)`},
	}
	seen := make(map[StepKind]bool)
	for _, tt := range tests {
		seen[tt.step.Kind] = true
		if got := tt.step.String(); got != tt.want {
			t.Errorf("kind %d:\n got %s\nwant %s", tt.step.Kind, got, tt.want)
		}
	}
	for k := StepKind(0); k < stepKinds; k++ {
		if !seen[k] {
			t.Errorf("no step of kind %d rendered (%s)", k, Step{Kind: k})
		}
	}
	plan := Plan{tests[0].step, tests[13].step}
	if got := plan.Lines(); len(got) != 2 || got[0] != tests[0].want || got[1] != tests[13].want {
		t.Errorf("Lines = %q", got)
	}
}

// TestStepIsCompact holds a step to its names and numbers: a statement
// makes one or two, and a result keeps them.
func TestStepIsCompact(t *testing.T) {
	if size := unsafe.Sizeof(Step{}); size > 88 {
		t.Errorf("a Step is %d bytes, want at most 88", size)
	}
}
