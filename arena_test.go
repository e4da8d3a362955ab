package pictdb_test

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	pictdb "repro"
	"repro/internal/psql"
	"repro/internal/workload"
)

// TestResultOutlivesArena holds that a Result owns its memory. A planned
// statement decodes its tuples into a pooled arena that the next
// statement clears and cuts again; the Result copies what it shows into
// Datums whose strings are allocated apart. So a held window, a
// juxtaposition and a nested mapping must read the same, field for
// field, after a few hundred other statements from two goroutines have
// reused the arenas, and every one of those statements must answer what
// the naive executor, which takes no arena, answers. make arenarace runs
// it under -race, repeated.
func TestResultOutlivesArena(t *testing.T) {
	const sites = 2_000
	db := joinDatabase(t, sites, 80, func(i int) int64 { return int64(i % 8) })
	pts := workload.ClusteredPoints(sites, 50, 30, 1985)
	var stmts []string
	for i := range 24 {
		c, h := pts[(i*83)%sites], 20+float64(i%4)*10
		switch i % 4 {
		case 0:
			stmts = append(stmts, fmt.Sprintf("select name, pop, loc from sites on sitemap at loc covered-by {%g±%g, %g±%g} where pop > %d",
				c.X, h, c.Y, h, 100_000*(i%5)))
		case 1:
			stmts = append(stmts, joinStatement(int64(i%8), 200_000*int64(i%3)))
		case 2:
			stmts = append(stmts, fmt.Sprintf("select name, loc from sites on sitemap at loc covered-by "+
				"(select loc from regions on regionmap at loc overlapping {%g±%g, %g±%g} where kind < %d)",
				c.X, 10*h, c.Y, 10*h, 4+i%5))
		case 3:
			stmts = append(stmts, fmt.Sprintf("select name, pop from sites on sitemap at loc overlapping {%g±%g, %g±%g} "+
				"order by pop desc limit 15", c.X, h, c.Y, h))
		}
	}
	want := make([]string, len(stmts))
	for i, q := range stmts {
		res, err := db.QueryNaive(q)
		if err != nil {
			t.Fatalf("naive %q: %v", q, err)
		}
		want[i] = answer(res)
	}

	// A window, a juxtaposition and a nested mapping, held with a deep
	// copy each.
	held := make([]*pictdb.Result, 3)
	copies := make([]*pictdb.Result, 3)
	for i := range held {
		res, err := db.Query(stmts[i])
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) == 0 {
			t.Fatalf("%q returned no rows: nothing to hold", stmts[i])
		}
		held[i], copies[i] = res, cloneResult(res)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for g := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range 150 {
				i := (7*k + 5*g) % len(stmts)
				res, err := db.Query(stmts[i])
				if err == nil && answer(res) != want[i] {
					err = fmt.Errorf("goroutine %d, statement %d answers\n%s\nthe naive executor\n%s", g, i, answer(res), want[i])
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i := range held {
		if !reflect.DeepEqual(held[i], copies[i]) {
			t.Errorf("the held result of %q changed after other statements ran", stmts[i])
		}
	}
}

// answer renders what both executors must agree on: the columns, the
// rows and the locs.
func answer(res *pictdb.Result) string {
	return res.Format() + fmt.Sprint(res.Locs)
}

// cloneResult deep-copies res: no slice or string of the copy shares
// memory with res.
func cloneResult(res *pictdb.Result) *pictdb.Result {
	c := &pictdb.Result{
		Columns:      cloneStrings(res.Columns),
		Rows:         make([][]psql.Datum, len(res.Rows)),
		Locs:         slices.Clone(res.Locs),
		NodesVisited: res.NodesVisited,
		Plan:         slices.Clone(res.Plan),
	}
	for i, row := range res.Rows {
		c.Rows[i] = slices.Clone(row)
		for j := range c.Rows[i] {
			d := &c.Rows[i][j]
			d.Str, d.Loc.Picture = strings.Clone(d.Str), strings.Clone(d.Loc.Picture)
		}
	}
	for i := range c.Plan {
		st := &c.Plan[i]
		st.Rel, st.Other, st.Column = strings.Clone(st.Rel), strings.Clone(st.Other), strings.Clone(st.Column)
	}
	for i := range c.Locs {
		c.Locs[i].Picture = strings.Clone(c.Locs[i].Picture)
	}
	return c
}

func cloneStrings(s []string) []string {
	out := make([]string, len(s))
	for i, v := range s {
		out[i] = strings.Clone(v)
	}
	return out
}
