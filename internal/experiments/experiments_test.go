package experiments

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/rtree"
)

func TestTable1ShapeHolds(t *testing.T) {
	// The Table 1 qualitative claims, against the linear-split INSERT
	// baseline: PACK never has more nodes or greater depth, and at
	// large J it wins on average visits and overlap.
	rows := RunTable1(Table1Config{
		Js:             []int{100, 300, 900},
		Queries:        500,
		Seed:           1,
		Split:          rtree.SplitLinear,
		TrimToMultiple: true,
	})
	for _, r := range rows {
		if r.Pack.Nodes >= r.Insert.Nodes {
			t.Errorf("J=%d: PACK nodes %d >= INSERT %d", r.J, r.Pack.Nodes, r.Insert.Nodes)
		}
		if r.Pack.Depth > r.Insert.Depth {
			t.Errorf("J=%d: PACK depth %d > INSERT %d", r.J, r.Pack.Depth, r.Insert.Depth)
		}
		if r.J >= 900 {
			if r.Pack.AvgVisit >= r.Insert.AvgVisit {
				t.Errorf("J=%d: PACK visits %.2f >= INSERT %.2f", r.J, r.Pack.AvgVisit, r.Insert.AvgVisit)
			}
			if r.Pack.Overlap >= r.Insert.Overlap {
				t.Errorf("J=%d: PACK overlap %.0f >= INSERT %.0f", r.J, r.Pack.Overlap, r.Insert.Overlap)
			}
		}
	}
}

func TestTable1MatchesPaperPackStructure(t *testing.T) {
	// Under the multiple-of-four assumption, PACK's N and D columns
	// are fully determined and must equal the paper's published
	// values for every row.
	rows := RunTable1(Table1Config{
		Queries:        1, // structure only; keep it fast
		Seed:           2,
		Split:          rtree.SplitLinear,
		TrimToMultiple: true,
	})
	paper := PaperTable1Pack()
	for _, r := range rows {
		want, ok := paper[r.J]
		if !ok {
			t.Fatalf("paper has no row J=%d", r.J)
		}
		if r.Pack.Nodes != want.N {
			t.Errorf("J=%d: PACK N=%d, paper %d", r.J, r.Pack.Nodes, want.N)
		}
		if r.Pack.Depth != want.D {
			t.Errorf("J=%d: PACK D=%d, paper %d", r.J, r.Pack.Depth, want.D)
		}
	}
}

func TestTable1Defaults(t *testing.T) {
	rows := RunTable1(Table1Config{Js: []int{10}, Queries: 10, Seed: 3})
	if len(rows) != 1 || rows[0].J != 10 {
		t.Fatalf("rows = %+v", rows)
	}
	if rows[0].Insert.Nodes == 0 || rows[0].Pack.Nodes == 0 {
		t.Fatal("zero nodes measured")
	}
	out := FormatTable1(rows)
	if !strings.Contains(out, "GUTTMAN'S INSERT") || !strings.Contains(out, "PACK") {
		t.Errorf("format:\n%s", out)
	}
}

func TestFigure34(t *testing.T) {
	rep := Figure34()
	if !rep.Holds {
		t.Errorf("figure 3.4 claim does not hold:\n%s", rep)
	}
}

func TestFigure33(t *testing.T) {
	rep := Figure33()
	if !rep.Holds {
		t.Errorf("figure 3.3 claim does not hold:\n%s", rep)
	}
}

func TestFigure37(t *testing.T) {
	rep := Figure37()
	if !rep.Holds {
		t.Errorf("figure 3.7 claim does not hold:\n%s", rep)
	}
}

func TestFigure38(t *testing.T) {
	rep := Figure38()
	if !rep.Holds {
		t.Errorf("figure 3.8 walkthrough failed:\n%s", rep)
	}
	if !strings.Contains(rep.Details, "level 0: 1 node") {
		t.Errorf("missing root level: %s", rep.Details)
	}
}

func TestTheorem32(t *testing.T) {
	for _, n := range []int{8, 32, 128} {
		rep := Theorem32(n, int64(n))
		if !rep.Holds {
			t.Errorf("theorem 3.2 fails for n=%d:\n%s", n, rep)
		}
	}
}

func TestTheorem33(t *testing.T) {
	rep := Theorem33()
	if !rep.Holds {
		t.Errorf("theorem 3.3 counterexample admitted a zero-overlap grouping:\n%s", rep)
	}
	// Sanity: the regions themselves must be pairwise disjoint, else
	// the counterexample premise is wrong.
	regions := Theorem33Regions()
	for i := 0; i < len(regions); i++ {
		for j := i + 1; j < len(regions); j++ {
			// Disjoint polygons: no vertex of one inside the other and
			// no edge crossings; approximate via mutual containment +
			// MBR-refined edge test.
			for _, v := range regions[i].Vertices {
				if regions[j].ContainsPoint(v) {
					t.Fatalf("regions %d and %d overlap", i, j)
				}
			}
		}
	}
}

func TestSetPartitions(t *testing.T) {
	// Bell numbers: B(1)=1, B(2)=2, B(3)=5, B(4)=15, B(5)=52.
	want := map[int]int{1: 1, 2: 2, 3: 5, 4: 15, 5: 52}
	for n, count := range want {
		if got := len(setPartitions(n)); got != count {
			t.Errorf("partitions(%d) = %d, want %d", n, got, count)
		}
	}
}

func TestUpdateDrift(t *testing.T) {
	cfg := UpdateDriftConfig{N: 200, Steps: 3, OpsPerStep: 100, Queries: 100, Seed: 4}
	rows := RunUpdateDrift(cfg)
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// The seed fixes the run: the victims and the repacks repeat.
	if again := RunUpdateDrift(cfg); !reflect.DeepEqual(again, rows) {
		t.Errorf("the same config gave two tables:\n%v\n%v", rows, again)
	}
	if rows[0].Coverage != rows[0].FreshCoverage {
		t.Errorf("at 0 ops drifted and fresh must coincide: %.0f vs %.0f",
			rows[0].Coverage, rows[0].FreshCoverage)
	}
	last := rows[len(rows)-1]
	// After many updates the drifted tree should not be better than a
	// fresh repack on visits (§3.4's motivation for local reorganization).
	if last.AvgVisit < last.FreshAvgVisit {
		t.Logf("note: drifted tree beat fresh repack (possible on small N): %.3f < %.3f",
			last.AvgVisit, last.FreshAvgVisit)
	}
	out := FormatUpdateDrift(rows)
	if !strings.Contains(out, "repacked") {
		t.Errorf("format:\n%s", out)
	}
}

func TestFanoutSweep(t *testing.T) {
	rows := RunFanoutSweep(FanoutConfig{N: 2000, Fanouts: []int{4, 16, 64}, Queries: 100, Seed: 5})
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Larger fanout means fewer nodes and shallower trees, for both
	// build modes; visits per query fall as fanout grows from 4.
	for i := 1; i < len(rows); i++ {
		if rows[i].PackNodes >= rows[i-1].PackNodes {
			t.Errorf("pack nodes not decreasing: %+v", rows)
		}
		if rows[i].PackDepth > rows[i-1].PackDepth {
			t.Errorf("pack depth increased with fanout: %+v", rows)
		}
		if rows[i].PackVisits >= rows[i-1].PackVisits {
			t.Errorf("pack visits not decreasing: M=%d %.2f vs M=%d %.2f",
				rows[i].M, rows[i].PackVisits, rows[i-1].M, rows[i-1].PackVisits)
		}
	}
	// Packed beats dynamic at every fanout on visits.
	for _, r := range rows {
		if r.PackVisits >= r.InsVisits {
			t.Errorf("M=%d: packed visits %.2f >= insert %.2f", r.M, r.PackVisits, r.InsVisits)
		}
	}
	out := FormatFanout(rows)
	if !strings.Contains(out, "packed") {
		t.Errorf("format:\n%s", out)
	}
}
