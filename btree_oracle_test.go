package pictdb_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	pictdb "repro"
)

// TestBTreePlanMatchesNaive: a statement the planner answers from a
// B-tree returns what QueryNaive returns, where the B-tree's exact keys
// and the executors' float64 comparison part ways: -0 and +0 are two
// keys and one number, 2^53 and 2^53+1 are two int64 keys and one
// float64, and a NaN satisfies <= and >= (it orders as equal) while its
// keys sort past both infinities. 2 000 rows, B-trees on v:float and
// n:int, every operator against literals at those corners.
func TestBTreePlanMatchesNaive(t *testing.T) {
	db := pictdb.New()
	defer db.Close()
	rel, err := db.CreateRelation("t", pictdb.MustSchema("v:float", "n:int"))
	if err != nil {
		t.Fatal(err)
	}
	for i := range 2000 {
		v, n := float64(i-1000)/8, int64(i-1000)
		switch i {
		case 0:
			v = math.Copysign(0, -1)
		case 1:
			v = math.NaN()
		case 2:
			v = -math.NaN()
		case 3:
			v = math.Inf(1)
		case 4:
			v = math.Inf(-1)
		}
		switch i {
		case 5:
			n = 1 << 53
		case 6:
			n = 1<<53 + 1
		case 7:
			n = 1<<53 - 1
		case 8:
			n = math.MinInt64
		case 9:
			n = math.MaxInt64
		}
		if _, err := rel.Insert(pictdb.Tuple{pictdb.F(v), pictdb.I(n)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, col := range []string{"v", "n"} {
		if err := rel.CreateIndex(col); err != nil {
			t.Fatal(err)
		}
	}
	literals := map[string][]string{
		"v": {"0", "-0", "0.5", "-3", "124.875", "99999999999999999999"},
		"n": {"0", "-5", "9007199254740992", "9007199254740993", "9007199254740991", "9223372036854775807", "-9223372036854775807"},
	}
	count := func(q string) int {
		res, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		return res.Len()
	}
	for col, lits := range literals {
		for _, lit := range lits {
			for _, op := range []string{"=", "<", "<=", ">", ">="} {
				q := fmt.Sprintf("select v, n from t where %s %s %s", col, op, lit)
				got, err := db.Query(q)
				if err != nil {
					t.Fatalf("%s: %v", q, err)
				}
				if !strings.Contains(strings.Join(got.Plan.Lines(), "\n"), "B-tree on t."+col) {
					t.Fatalf("%s: not a B-tree plan: %q", q, got.Plan)
				}
				want, err := db.QueryNaive(q)
				if err != nil {
					t.Fatalf("%s naive: %v", q, err)
				}
				assertSameResult(t, q, got, want)
			}
		}
	}
	// The corners the B-tree's keys missed: both zeros, 2^53 and
	// 2^53+1, and the NaNs under >= (both signs).
	for q, want := range map[string]int{
		"select v from t where v = 0":                1 + 1,
		"select n from t where n = 9007199254740992": 2,
		"select v from t where v >= 0":               1000 + 1 + 2 + 1,
	} {
		if got := count(q); got != want {
			t.Errorf("%s: %d rows, want %d", q, got, want)
		}
	}
}
