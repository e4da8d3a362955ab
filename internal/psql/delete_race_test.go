package psql_test

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	pictdb "repro"
	"repro/internal/psql"
	"repro/internal/storage"
)

// TestFetchBesideDelete deletes rows one at a time beside window
// readers, at one store and at four: no statement fails, and every
// answer is a subset of the rows live when its statement started. A
// window's candidates, a B-tree's and a juxtaposition's pairs are each
// read before their tuples are fetched, so every fetch path meets
// tuples deleted in between. Rows are deleted in ascending n, so the
// rows deleted before a statement started are those below the count of
// deletes done then.
func TestFetchBesideDelete(t *testing.T) {
	for _, stores := range []int{1, 4} {
		t.Run(fmt.Sprintf("stores=%d", stores), func(t *testing.T) {
			db := evaluationOrderDB(t, stores)
			pts, _ := db.Relation("pts")
			if err := pts.CreateIndex("n"); err != nil {
				t.Fatal(err)
			}
			byN := map[int64]storage.TupleID{}
			if err := pts.Scan(func(id storage.TupleID, tu pictdb.Tuple) bool {
				byN[tu[0].Int] = id
				return true
			}); err != nil {
				t.Fatal(err)
			}
			const victims = 450
			// statement returns the statement a reader runs at step i once d
			// rows are deleted: a window search, one whose term is tested at
			// the fetch, a B-tree lookup of the next row to be deleted, and a
			// juxtaposition.
			statement := func(i int, d int64) string {
				switch i % 4 {
				case 0:
					return `select n from pts on m at loc covered-by {500±400, 500±400}`
				case 1:
					return `select n from pts on m at loc covered-by {500±400, 500±400} where v > 20`
				case 2:
					return fmt.Sprintf(`select n from pts on m at loc covered-by {500±500, 500±500} where n = %d`, d)
				default:
					return `select pts.n, zones.z from pts, zones on m, zm at pts.loc covered-by zones.loc`
				}
			}
			key := func(row []psql.Datum) string {
				var b strings.Builder
				for _, v := range row {
					b.WriteString(v.String() + "|")
				}
				return b.String()
			}
			// Every row each statement can answer, before any delete.
			initial := make([]map[string]bool, 4)
			for i := range initial {
				res, err := db.Query(statement(i, 0))
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Rows) == 0 {
					t.Fatalf("%s: no rows: the statement tests nothing", statement(i, 0))
				}
				if want := []string{"", "", "index lookup", "juxtaposition"}[i]; !strings.Contains(strings.Join(res.Plan.Lines(), "; "), want) {
					t.Fatalf("%s: plan %q does not take the %s path", statement(i, 0), res.Plan, want)
				}
				initial[i] = map[string]bool{}
				for _, row := range res.Rows {
					initial[i][key(row)] = true
				}
			}

			var deleted atomic.Int64
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for n := int64(0); n < victims; n++ {
					if err := db.Write(func() error { return pts.Delete(byN[n]) }); err != nil {
						t.Errorf("delete n=%d: %v", n, err)
						deleted.Store(victims)
						return
					}
					deleted.Store(n + 1)
				}
			}()
			for g := 0; g < 2; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := g; ; i++ {
						d := deleted.Load()
						q := statement(i, d)
						res, err := db.Query(q)
						if err != nil {
							t.Errorf("%s with %d rows deleted: %v", q, d, err)
							return
						}
						for _, row := range res.Rows {
							n := row[0].Int
							if n < d || (i%4 != 2 && !initial[i%4][key(row)]) || (i%4 == 2 && n != d) {
								t.Errorf("%s with %d rows deleted: row %v was not live when it started", q, d, row)
								return
							}
						}
						if d == victims {
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}
