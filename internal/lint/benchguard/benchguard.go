// Package benchguard keeps the benchmark tooling honest. The bench
// CLIs (cmd/pictbench, cmd/rtreebench) and internal/workload produce
// the numbers the ROADMAP's acceptance criteria are judged by, so they
// get their own discipline, enforced here:
//
//   - No math/rand global state (rand.Intn, rand.Seed, …): workloads
//     must be reproducible run-to-run, so randomness flows from a
//     seeded *rand.Rand (the internal/workload generators all take an
//     explicit seed).
//   - No raw time.Now inside a measured loop outside the established
//     recorder idiom (t0 := time.Now() … time.Since(t0)): stray clock
//     reads inside the hot
//     loop skew exactly the numbers the loop exists to measure.
//   - No dropped errors when persisting results or profiles
//     (os.WriteFile for -out JSON, profile file Close/Sync,
//     json.Encoder.Encode, pprof.WriteHeapProfile): a bench that
//     silently fails to record its numbers poisons the BENCH_*.json
//     trajectory the next PR compares against.
//
// The analyzer applies itself only to packages matching its -pkgs
// regexp (default: the bench CLIs and internal/workload).
package benchguard

import (
	"go/ast"
	"go/types"
	"regexp"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"repro/internal/lint/directive"
	"repro/internal/lint/lintutil"
)

var Analyzer = &analysis.Analyzer{
	Name:     "benchguard",
	Doc:      "benchmark code must use seeded randomness, the latency-recorder timing idiom, and check result/profile write errors",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

var (
	pkgsPattern  = `(^|/)cmd/[^/]*bench[^/]*$|(^|/)internal/workload$`
	includeTests = false
)

func init() {
	Analyzer.Flags.StringVar(&pkgsPattern, "pkgs", pkgsPattern, "regexp of package paths to check")
	Analyzer.Flags.BoolVar(&includeTests, "tests", false, "also check _test.go files")
}

// seededConstructors are the math/rand entry points that do NOT touch
// global state.
var seededConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true,
}

// droppedErrorCallees lists calls whose error result must be checked
// in bench code: the results/profile persistence surface.
type callee struct {
	recvPkg, recvType, method string // method match ("" recvType = package func)
}

var droppedErrorCallees = []callee{
	{"os", "File", "Close"},
	{"os", "File", "Sync"},
	{"os", "", "WriteFile"},
	{"json", "Encoder", "Encode"},
	{"pprof", "", "WriteHeapProfile"},
	{"pprof", "Profile", "WriteTo"},
}

func run(pass *analysis.Pass) (interface{}, error) {
	re, err := regexp.Compile(pkgsPattern)
	if err != nil {
		return nil, err
	}
	if !re.MatchString(pass.Pkg.Path()) {
		return nil, nil
	}
	pass = directive.Apply(pass, false)
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	info := pass.TypesInfo

	skip := func(n ast.Node) bool {
		return !includeTests && lintutil.IsTestFile(pass.Fset.Position(n.Pos()).Filename)
	}

	// Rule 1: math/rand global state.
	ins.Preorder([]ast.Node{(*ast.SelectorExpr)(nil)}, func(n ast.Node) {
		if skip(n) {
			return
		}
		sel := n.(*ast.SelectorExpr)
		obj := info.Uses[sel.Sel]
		if obj == nil || obj.Pkg() == nil {
			return
		}
		path := obj.Pkg().Path()
		if path != "math/rand" && path != "math/rand/v2" && lintutil.PkgBase(path) != "rand" {
			return
		}
		if _, isFunc := obj.(*types.Func); !isFunc {
			return
		}
		if obj.Pkg().Scope().Lookup(obj.Name()) != obj {
			return // a method (e.g. (*Rand).Intn), not the global-state top-level func
		}
		if seededConstructors[obj.Name()] {
			return
		}
		pass.Reportf(sel.Pos(), "rand.%s uses math/rand global state: benchmarks must be reproducible, use a seeded *rand.Rand (rand.New(rand.NewSource(seed)))", obj.Name())
	})

	// Rules 2 and 3 work per function.
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		if skip(n) {
			return
		}
		fd := n.(*ast.FuncDecl)
		if fd.Body == nil {
			return
		}
		checkTimeNowInLoops(pass, info, fd.Body)
		checkDroppedErrors(pass, info, fd.Body)
	})
	return nil, nil
}

// checkTimeNowInLoops flags time.Now() calls inside for/range bodies
// unless the result feeds the t0/time.Since (or t0/.Sub) recorder
// idiom somewhere in the same function.
func checkTimeNowInLoops(pass *analysis.Pass, info *types.Info, body *ast.BlockStmt) {
	// Pass 1a: objects measured with time.Since(x) or y.Sub(x).
	measured := make(map[types.Object]bool)
	// Pass 1b: which time.Now() call each variable is bound to.
	binding := make(map[*ast.CallExpr]types.Object)
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			if len(x.Lhs) != len(x.Rhs) {
				return true
			}
			for i := range x.Rhs {
				if call, ok := lintutil.Unparen(x.Rhs[i]).(*ast.CallExpr); ok && lintutil.PkgFunc(info, call, "time", "Now") {
					if obj := lintutil.ObjOf(info, x.Lhs[i]); obj != nil {
						binding[call] = obj
					}
				}
			}
		case *ast.CallExpr:
			if lintutil.PkgFunc(info, x, "time", "Since") && len(x.Args) == 1 {
				if obj := lintutil.ObjOf(info, x.Args[0]); obj != nil {
					measured[obj] = true
				}
			}
			if _, recvType, ok := lintutil.MethodCall(info, x, "Sub"); ok && lintutil.IsNamed(recvType, "time", "Time") && len(x.Args) == 1 {
				// end.Sub(t0) measures both ends of the interval.
				if obj := lintutil.ObjOf(info, x.Args[0]); obj != nil {
					measured[obj] = true
				}
				if sel, isSel := x.Fun.(*ast.SelectorExpr); isSel {
					if obj := lintutil.ObjOf(info, sel.X); obj != nil {
						measured[obj] = true
					}
				}
			}
		}
		return true
	})

	// Pass 2: time.Now() calls lexically inside a loop.
	var inLoop func(n ast.Node, depth int) bool
	inLoop = func(n ast.Node, depth int) bool {
		ast.Inspect(n, func(m ast.Node) bool {
			if m == n {
				return true
			}
			switch st := m.(type) {
			case *ast.ForStmt:
				inLoop(st.Body, depth+1)
				return false
			case *ast.RangeStmt:
				inLoop(st.Body, depth+1)
				return false
			case *ast.CallExpr:
				if depth > 0 && lintutil.PkgFunc(info, st, "time", "Now") {
					obj := binding[st]
					if obj == nil || !measured[obj] {
						pass.Reportf(st.Pos(), "time.Now inside a measured loop outside the t0 := time.Now(); time.Since(t0) recorder idiom: hoist it out of the loop")
					}
				}
			}
			return true
		})
		return true
	}
	inLoop(body, 0)
}

// checkDroppedErrors flags discarded error results from the bench
// result/profile persistence surface: expression statements, deferred
// calls, and assignments to blank.
func checkDroppedErrors(pass *analysis.Pass, info *types.Info, body *ast.BlockStmt) {
	flag := func(call *ast.CallExpr, how string) {
		name := calleeName(info, call)
		if name == "" {
			return
		}
		pass.Reportf(call.Pos(), "%s error dropped (%s): a bench that fails to persist its results or profile corrupts the BENCH_*.json trajectory; check and propagate it", name, how)
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.ExprStmt:
			if call, ok := st.X.(*ast.CallExpr); ok {
				flag(call, "call result unused")
			}
		case *ast.DeferStmt:
			flag(st.Call, "deferred without checking")
		case *ast.GoStmt:
			flag(st.Call, "goroutine result unused")
		case *ast.AssignStmt:
			for i, lhs := range st.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" && i < len(st.Rhs) {
					if call, ok := lintutil.Unparen(st.Rhs[i]).(*ast.CallExpr); ok {
						flag(call, "assigned to _")
					}
				}
			}
		}
		return true
	})
}

// calleeName matches a call against droppedErrorCallees, returning a
// human name ("" if not matched or the callee returns no error).
func calleeName(info *types.Info, call *ast.CallExpr) string {
	for _, c := range droppedErrorCallees {
		if c.recvType == "" {
			if lintutil.PkgFunc(info, call, c.recvPkg, c.method) {
				return c.recvPkg + "." + c.method
			}
			continue
		}
		if _, recvType, ok := lintutil.MethodCall(info, call, c.method); ok &&
			lintutil.IsNamed(recvType, c.recvPkg, c.recvType) {
			return "(" + c.recvType + ")." + c.method
		}
	}
	return ""
}
