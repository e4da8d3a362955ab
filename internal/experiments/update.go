package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/geom"
	"repro/internal/pack"
	"repro/internal/rtree"
	"repro/internal/workload"
)

// UpdateDriftRow is one step of the §3.4 update experiment.
type UpdateDriftRow struct {
	// OpsApplied counts insert+delete operations applied so far.
	OpsApplied int
	// Packed are the live metrics of the drifting packed tree.
	Coverage float64
	Overlap  float64
	Nodes    int
	AvgVisit float64
	// Fresh are the metrics of a freshly packed tree over the same
	// live items, the repack target.
	FreshCoverage float64
	FreshOverlap  float64
	FreshNodes    int
	FreshAvgVisit float64
}

// UpdateDriftConfig parameterizes the update experiment.
type UpdateDriftConfig struct {
	// N is the initial packed size. Zero means 900 (the paper's max J).
	N int
	// Steps is the number of measurement points. Zero means 10.
	Steps int
	// OpsPerStep is the number of update operations between
	// measurements (alternating insert/delete keeps N stable). Zero
	// means N/5.
	OpsPerStep int
	// Queries per measurement; zero means 500.
	Queries int
	Seed    int64
}

// RunUpdateDrift packs N points, then applies alternating inserts and
// deletes (Guttman's dynamic algorithms on the packed tree, exactly
// the §3.4 regime), measuring how coverage, overlap and search cost
// drift away from a freshly packed tree over the same data.
func RunUpdateDrift(cfg UpdateDriftConfig) []UpdateDriftRow {
	if cfg.N == 0 {
		cfg.N = 900
	}
	if cfg.Steps == 0 {
		cfg.Steps = 10
	}
	if cfg.OpsPerStep == 0 {
		cfg.OpsPerStep = cfg.N / 5
	}
	if cfg.Queries == 0 {
		cfg.Queries = 500
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	params := rtree.Params{Max: 4, Min: 2, Split: rtree.SplitLinear}

	pts := workload.UniformPoints(cfg.N, cfg.Seed)
	// live holds the live items in a seeded order, so the victim each
	// delete picks and every fresh repack are the same on every run.
	live := workload.PointItems(pts)
	nextID := int64(len(live))
	t := pack.Tree(params, live, pack.Options{Method: pack.MethodNN})
	queries := workload.QueryPoints(cfg.Queries, cfg.Seed+13)

	measure := func(ops int) UpdateDriftRow {
		row := UpdateDriftRow{OpsApplied: ops}
		m := t.ComputeMetrics()
		row.Coverage, row.Overlap, row.Nodes = m.Coverage, m.Overlap, m.Nodes
		total := 0
		for _, q := range queries {
			_, v := t.ContainsPoint(q)
			total += v
		}
		row.AvgVisit = float64(total) / float64(len(queries))

		// Fresh repack over the live set.
		f := pack.Tree(params, live, pack.Options{Method: pack.MethodNN})
		fm := f.ComputeMetrics()
		row.FreshCoverage, row.FreshOverlap, row.FreshNodes = fm.Coverage, fm.Overlap, fm.Nodes
		total = 0
		for _, q := range queries {
			_, v := f.ContainsPoint(q)
			total += v
		}
		row.FreshAvgVisit = float64(total) / float64(len(queries))
		return row
	}

	rows := []UpdateDriftRow{measure(0)}
	ops := 0
	for s := 0; s < cfg.Steps; s++ {
		for o := 0; o < cfg.OpsPerStep; o++ {
			if o%2 == 0 {
				// Insert a new random point.
				p := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
				it := rtree.Item{Rect: p.Rect(), Data: nextID}
				nextID++
				t.InsertItem(it)
				live = append(live, it)
			} else {
				// Delete a random live point.
				j := rng.Intn(len(live))
				t.Delete(live[j].Rect, live[j].Data)
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			ops++
		}
		rows = append(rows, measure(ops))
	}
	return rows
}

// FormatUpdateDrift renders the drift table.
func FormatUpdateDrift(rows []UpdateDriftRow) string {
	var b strings.Builder
	b.WriteString("    ops |  drifted: C        O     N     A  |  repacked: C       O     N     A\n")
	b.WriteString("  ------+-----------------------------------+----------------------------------\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %5d | %9.0f %8.0f %5d %6.3f | %9.0f %8.0f %5d %6.3f\n",
			r.OpsApplied, r.Coverage, r.Overlap, r.Nodes, r.AvgVisit,
			r.FreshCoverage, r.FreshOverlap, r.FreshNodes, r.FreshAvgVisit)
	}
	return b.String()
}
