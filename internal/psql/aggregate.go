package psql

import "fmt"

// Aggregate functions over the qualifying row set. The paper motivates
// them directly: "An aggregate function on a set of highway segments
// is northest which finds the northest coordinates of any point in a
// highway" — expressible here as max(northest(loc)). A query whose
// target list contains an aggregate call collapses to a single row;
// mixing aggregated and plain targets is an error (PSQL has no
// group-by).

// aggNames are the aggregate function names, dispatched by the
// executor rather than the scalar registry.
var aggNames = map[string]bool{
	"count": true, "min": true, "max": true, "sum": true, "avg": true,
}

// isAggregate reports whether e is a top-level aggregate call.
func isAggregate(e Expr) bool {
	f, ok := e.(FuncCall)
	return ok && aggNames[f.Name]
}

// hasAggregate reports whether any aggregate call appears anywhere in
// the expression (used to reject aggregates in the qualification).
func hasAggregate(e Expr) bool {
	switch ex := e.(type) {
	case FuncCall:
		if aggNames[ex.Name] {
			return true
		}
		for _, a := range ex.Args {
			if hasAggregate(a) {
				return true
			}
		}
	case BinaryExpr:
		return hasAggregate(ex.Left) || hasAggregate(ex.Right)
	case UnaryExpr:
		return hasAggregate(ex.Expr)
	}
	return false
}

// evalAggregate computes one aggregate call over the row set.
func (st *execState) evalAggregate(f FuncCall, rows []row) (Datum, error) {
	if f.Name == "count" && len(f.Args) == 0 {
		return intD(int64(len(rows))), nil
	}
	if len(f.Args) != 1 {
		return Datum{}, errf(f.Pos, "%s takes exactly one argument", f.Name)
	}
	arg := f.Args[0]
	if hasAggregate(arg) {
		return Datum{}, errf(f.Pos, "nested aggregates are not allowed")
	}

	var d Datum
	switch f.Name {
	case "count":
		n := int64(0)
		for _, r := range rows {
			if err := st.eval(arg, r, &d); err != nil {
				return Datum{}, err
			}
			if d.Kind != KindNull {
				n++
			}
		}
		return intD(n), nil
	case "min", "max":
		best := null()
		for _, r := range rows {
			if err := st.eval(arg, r, &d); err != nil {
				return Datum{}, err
			}
			if best.Kind == KindNull {
				best = d
				continue
			}
			c, err := compare(&d, &best)
			if err != nil {
				return Datum{}, errf(f.Pos, "%s: %v", f.Name, err)
			}
			if (f.Name == "min" && c < 0) || (f.Name == "max" && c > 0) {
				best = d
			}
		}
		return best, nil
	case "sum", "avg":
		sum := 0.0
		allInt := true
		n := 0
		for _, r := range rows {
			if err := st.eval(arg, r, &d); err != nil {
				return Datum{}, err
			}
			if !d.IsNumeric() {
				return Datum{}, errf(f.Pos, "%s over non-numeric %s", f.Name, d.Kind)
			}
			if d.Kind != KindInt {
				allInt = false
			}
			sum += d.AsFloat()
			n++
		}
		if f.Name == "avg" {
			if n == 0 {
				return null(), nil
			}
			return floatD(sum / float64(n)), nil
		}
		if allInt {
			return intD(int64(sum)), nil
		}
		return floatD(sum), nil
	}
	return Datum{}, fmt.Errorf("psql: unknown aggregate %q", f.Name)
}

// projectAggregates evaluates an all-aggregate target list into a
// single result row.
func (st *execState) projectAggregates(rows []row) (*Result, error) {
	res := st.newResult()
	out := make([]Datum, 0, len(st.items))
	for _, it := range st.items {
		f, ok := it.Expr.(FuncCall)
		if !ok || !aggNames[f.Name] {
			return nil, fmt.Errorf("psql: cannot mix %q with aggregates in the target list (no group-by)", it.Expr)
		}
		d, err := st.evalAggregate(f, rows)
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	res.Rows = append(res.Rows, out)
	return res, nil
}
