// Package corruptwrap enforces the typed-error discipline from PR 2:
// detection sites wrap the sentinels ErrChecksum, ErrCorrupt,
// ErrTruncated, ErrBadMagic, ErrUnsupportedFormat and ErrPoolExhausted
// with %w so errors.Is (and the public IsCorruption predicate) keep
// seeing them through every layer of rewrapping. It reports:
//
//   - a corruption sentinel passed to fmt.Errorf under a %v/%s/%q
//     (or any non-%w) verb — the sentinel's identity is flattened to
//     text and IsCorruption goes blind;
//   - any error value formatted with %v or %s in fmt.Errorf —
//     rewrapping an error that may carry a sentinel without %w severs
//     the chain just as surely (format err.Error() when flattening is
//     really intended);
//   - direct == / != comparisons against a sentinel: every corruption
//     error in this codebase is wrapped at birth, so only errors.Is
//     can match one.
package corruptwrap

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"repro/internal/lint/directive"
	"repro/internal/lint/lintutil"
)

var Analyzer = &analysis.Analyzer{
	Name:     "corruptwrap",
	Doc:      "typed sentinels (ErrChecksum/ErrCorrupt/ErrTruncated/ErrBadMagic/ErrUnsupportedFormat/ErrPoolExhausted) must be wrapped with %w and matched with errors.Is",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

var includeTests = false

func init() {
	Analyzer.Flags.BoolVar(&includeTests, "tests", false, "also check _test.go files")
}

// sentinelNames are the typed sentinels of the engine
// (pager.ErrChecksum/ErrTruncated/ErrBadMagic/ErrUnsupportedFormat/
// ErrPoolExhausted, storage.ErrCorrupt, pictdb's ErrCorrupt and
// re-exports).
var sentinelNames = map[string]bool{
	"ErrChecksum":          true,
	"ErrCorrupt":           true,
	"ErrTruncated":         true,
	"ErrBadMagic":          true,
	"ErrUnsupportedFormat": true,
	"ErrPoolExhausted":     true,
}

// isSentinel reports whether e denotes one of the corruption
// sentinels: a package-level error variable with a sentinel name,
// referenced directly or through a package qualifier.
func isSentinel(info *types.Info, e ast.Expr) bool {
	var id *ast.Ident
	switch x := lintutil.Unparen(e).(type) {
	case *ast.Ident:
		id = x
	case *ast.SelectorExpr:
		id = x.Sel
	default:
		return false
	}
	if !sentinelNames[id.Name] {
		return false
	}
	obj := info.Uses[id]
	v, ok := obj.(*types.Var)
	if !ok || v.Parent() == nil {
		return false
	}
	return lintutil.IsErrorType(v.Type()) && v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

func run(pass *analysis.Pass) (interface{}, error) {
	pass = directive.Apply(pass, false)
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	info := pass.TypesInfo

	ins.Preorder([]ast.Node{(*ast.CallExpr)(nil), (*ast.BinaryExpr)(nil)}, func(n ast.Node) {
		if !includeTests && lintutil.IsTestFile(pass.Fset.Position(n.Pos()).Filename) {
			return
		}
		switch x := n.(type) {
		case *ast.CallExpr:
			checkErrorf(pass, info, x)
		case *ast.BinaryExpr:
			checkComparison(pass, info, x)
		}
	})
	return nil, nil
}

// checkErrorf matches fmt.Errorf verbs to their args and flags
// sentinels (and any error value) formatted with a chain-severing
// verb.
func checkErrorf(pass *analysis.Pass, info *types.Info, call *ast.CallExpr) {
	if !lintutil.PkgFunc(info, call, "fmt", "Errorf") || len(call.Args) < 2 {
		return
	}
	format, ok := constString(info, call.Args[0])
	if !ok {
		return
	}
	verbs := parseVerbs(format)
	args := call.Args[1:]
	for i, v := range verbs {
		if i >= len(args) {
			break
		}
		arg := args[i]
		if v == 'w' {
			continue
		}
		if isSentinel(info, arg) {
			pass.Reportf(arg.Pos(), "corruption sentinel %s formatted with %%%c: wrap it with %%w so errors.Is/IsCorruption still match (PR 2 discipline)",
				exprName(arg), v)
			continue
		}
		if (v == 'v' || v == 's') && lintutil.IsErrorType(info.TypeOf(arg)) {
			pass.Reportf(arg.Pos(), "error formatted with %%%c in fmt.Errorf: if it carries a corruption sentinel the chain is severed; wrap with %%w (or format err.Error() if flattening is intended)", v)
		}
	}
}

// checkComparison flags err == ErrX / err != ErrX on sentinels.
func checkComparison(pass *analysis.Pass, info *types.Info, bin *ast.BinaryExpr) {
	if bin.Op != token.EQL && bin.Op != token.NEQ {
		return
	}
	for _, side := range [...]ast.Expr{bin.X, bin.Y} {
		if isSentinel(info, side) {
			other := bin.X
			if side == bin.X {
				other = bin.Y
			}
			// Comparing the sentinel against nil (or assigning) is fine;
			// comparing an error value against it is the bug.
			if lintutil.IsErrorType(info.TypeOf(other)) {
				pass.Reportf(bin.Pos(), "%s compared with %s: corruption errors are wrapped at birth, use errors.Is (or IsCorruption)",
					exprName(side), bin.Op)
			}
			return
		}
	}
}

func exprName(e ast.Expr) string {
	switch x := lintutil.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		if p, ok := x.X.(*ast.Ident); ok {
			return p.Name + "." + x.Sel.Name
		}
		return x.Sel.Name
	}
	return "sentinel"
}

// constString evaluates e as a constant string.
func constString(info *types.Info, e ast.Expr) (string, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// parseVerbs extracts the verb letters of a printf format string in
// argument order. Flags, width, precision, and explicit argument
// indexes are skipped well enough for lint purposes ([n] resets are
// not modeled; such formats are vanishingly rare here).
func parseVerbs(format string) []byte {
	var verbs []byte
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		i++
		if i < len(format) && format[i] == '%' {
			continue
		}
		// skip flags, width, precision, index digits
		for i < len(format) {
			c := format[i]
			if (c >= '0' && c <= '9') || c == '.' || c == '+' || c == '-' || c == '#' || c == ' ' || c == '*' || c == '[' || c == ']' {
				i++
				continue
			}
			break
		}
		if i < len(format) {
			verbs = append(verbs, format[i])
		}
	}
	return verbs
}
