// Package pinlifetime enforces the zero-copy pin lifetime rules of
// DESIGN.md §10 at compile time:
//
//   - Every pager.Pager.Pin view, Pager.BeginRead reader and
//     Pager.Fetch page must be released (View.Unpin / Reader.End /
//     Pager.Unpin) on every path out of the acquiring function,
//     including early error returns — or handed off explicitly
//     (returned, stored, passed along), which transfers the obligation
//     to the new owner. Lending a reader to a helper (&r) is not a
//     hand-off: the function that began the batch ends it.
//   - A View's bytes (View.Data) and a Reader's (Reader.Page) must not
//     outlive the pin: returning them, storing them into a field, or
//     sending them over a channel escapes memory that Unpin, End, the
//     reader's next Page (or a remap) may invalidate.
//   - Discarding the result of Pin/BeginRead/Fetch leaks the pin
//     permanently.
//
// The check is intraprocedural over the control-flow graph of each
// function: paths on which the acquisition itself failed (guarded by
// the returned error, while that error variable is still unclobbered)
// are exempt, since a failed Pin returns nothing to release. Paths
// that end in panic or a no-return call (os.Exit, log.Fatal) are
// likewise exempt — unwinding is the crash path, not the leak path.
package pinlifetime

import (
	"go/ast"
	"go/token"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"golang.org/x/tools/go/cfg"

	"repro/internal/lint/directive"
	"repro/internal/lint/lintutil"
)

var Analyzer = &analysis.Analyzer{
	Name:     "pinlifetime",
	Doc:      "check that pager pins (Pin views, BeginRead readers, Fetch pages) are released on all paths and their bytes do not escape the pin",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

// IncludeTests is a test hook: fixtures run with test files included.
var includeTests = false

func init() {
	Analyzer.Flags.BoolVar(&includeTests, "tests", false, "also check _test.go files")
}

// resource is one tracked acquisition.
type resource struct {
	assign  *ast.AssignStmt // the acquiring statement
	call    *ast.CallExpr   // the Pin/Fetch call
	obj     types.Object    // the view / page variable
	errObj  types.Object    // the error result variable (nil if blank)
	method  string          // "Pin", "BeginRead" or "Fetch"
	release string          // human name of the releasing call
}

func run(pass *analysis.Pass) (interface{}, error) {
	pass = directive.Apply(pass, true)
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)

	nodeFilter := []ast.Node{(*ast.FuncDecl)(nil), (*ast.FuncLit)(nil)}
	ins.Preorder(nodeFilter, func(n ast.Node) {
		var body *ast.BlockStmt
		switch fn := n.(type) {
		case *ast.FuncDecl:
			body = fn.Body
		case *ast.FuncLit:
			// Function literals are visited by Preorder as well; their
			// bodies are analyzed independently (a pin acquired in a
			// closure must be released by the closure).
			body = fn.Body
		}
		if body == nil {
			return
		}
		if !includeTests && lintutil.IsTestFile(pass.Fset.Position(n.Pos()).Filename) {
			return
		}
		checkFunc(pass, body)
	})
	return nil, nil
}

// releases names, per acquiring Pager method, the call that releases
// what it returned.
var releases = map[string]string{"Pin": "View.Unpin", "BeginRead": "Reader.End", "Fetch": "Pager.Unpin"}

// acquisitionMethod returns which of the Pager's acquiring methods call
// is, "" if none.
func acquisitionMethod(info *types.Info, call *ast.CallExpr) string {
	for _, m := range [...]string{"Pin", "BeginRead", "Fetch"} {
		if _, recvType, ok := lintutil.MethodCall(info, call, m); ok &&
			lintutil.IsNamed(recvType, "pager", "Pager") {
			return m
		}
	}
	return ""
}

func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	info := pass.TypesInfo

	// Gather acquisitions in this body, excluding those inside nested
	// function literals (each literal is checked on its own visit).
	var resources []*resource
	skipNested := func(n ast.Node) bool {
		_, lit := n.(*ast.FuncLit)
		return !lit
	}
	inspectShallow(body, skipNested, func(n ast.Node) {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if len(st.Rhs) != 1 {
				return
			}
			call, ok := st.Rhs[0].(*ast.CallExpr)
			if !ok {
				return
			}
			m := acquisitionMethod(info, call)
			if m == "" {
				return
			}
			if len(st.Lhs) == 0 {
				return
			}
			res := &resource{assign: st, call: call, method: m, release: releases[m]}
			if id, ok := st.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
				res.obj = lintutil.ObjOf(info, id)
			}
			if len(st.Lhs) > 1 {
				if id, ok := st.Lhs[1].(*ast.Ident); ok && id.Name != "_" {
					res.errObj = lintutil.ObjOf(info, id)
				}
			}
			if res.obj == nil {
				pass.Reportf(call.Pos(), "result of %s discarded: the pin can never be released", m)
				return
			}
			resources = append(resources, res)
		case *ast.ExprStmt:
			if call, ok := st.X.(*ast.CallExpr); ok {
				if m := acquisitionMethod(info, call); m != "" {
					pass.Reportf(call.Pos(), "result of %s discarded: the pin can never be released", m)
				}
			}
		}
	})

	if len(resources) > 0 {
		g := cfg.New(body, mayReturn(info))
		// Map each acquisition assign node to its (block, index).
		type loc struct {
			b   *cfg.Block
			idx int
		}
		at := make(map[*ast.AssignStmt]loc)
		for _, b := range g.Blocks {
			for i, n := range b.Nodes {
				if a, ok := n.(*ast.AssignStmt); ok {
					at[a] = loc{b, i}
				}
			}
		}
		for _, res := range resources {
			l, ok := at[res.assign]
			if !ok {
				continue // dead code
			}
			walkPaths(pass, info, res, body, l.b, l.idx+1)
		}
	}

	checkDataEscape(pass, info, body)
}

// inspectShallow walks n but does not descend into nodes rejected by
// descend.
func inspectShallow(n ast.Node, descend func(ast.Node) bool, f func(ast.Node)) {
	ast.Inspect(n, func(m ast.Node) bool {
		if m == nil {
			return false
		}
		if m != n && !descend(m) {
			return false
		}
		f(m)
		return true
	})
}

// mayReturn is the CFG callback deciding whether a call can return.
func mayReturn(info *types.Info) func(*ast.CallExpr) bool {
	return func(call *ast.CallExpr) bool {
		switch fun := lintutil.Unparen(call.Fun).(type) {
		case *ast.Ident:
			return fun.Name != "panic"
		case *ast.SelectorExpr:
			switch fun.Sel.Name {
			case "Fatal", "Fatalf", "Fatalln", "Exit", "Goexit":
				return false
			}
		}
		return true
	}
}

// event classifies what one CFG node does to a tracked resource.
type event int

const (
	evNone event = iota
	evRelease
	evEscape
)

// walkPaths explores every CFG path from the acquisition forward and
// reports paths that reach a return (or fall off the function end)
// without releasing or escaping the resource. The diagnostic is
// anchored at the acquisition so a //lint:ignore on the Pin/Fetch line
// suppresses it (the leaking exit is named in the message instead).
func walkPaths(pass *analysis.Pass, info *types.Info, res *resource, body *ast.BlockStmt, start *cfg.Block, startIdx int) {
	type stateKey struct {
		b        *cfg.Block
		errValid bool
	}
	seen := make(map[stateKey]bool)
	reported := false

	report := func(pos token.Pos, where string) {
		if reported {
			return // one diagnostic per acquisition is enough
		}
		reported = true
		rp := pass.Fset.Position(pos)
		pass.Reportf(res.assign.Pos(), "%s is not released on %s ending at %s:%d (missing %s on that path)",
			res.method, where, shortFile(rp.Filename), rp.Line, res.release)
	}

	var visit func(b *cfg.Block, idx int, errValid bool)
	visit = func(b *cfg.Block, idx int, errValid bool) {
		if reported {
			return
		}
		if idx == 0 {
			k := stateKey{b, errValid}
			if seen[k] {
				return
			}
			seen[k] = true
		}
		for i := idx; i < len(b.Nodes); i++ {
			n := b.Nodes[i]
			switch classifyNode(info, res, n) {
			case evRelease, evEscape:
				return // obligation met or transferred on this path
			}
			if res.errObj != nil && reassigns(info, n, res.errObj) {
				errValid = false
			}
			if ret, ok := n.(*ast.ReturnStmt); ok {
				// go/cfg synthesizes an implicit return at the closing
				// brace for functions that fall off the end.
				if ret.Pos() >= body.Rbrace {
					report(ret.Pos(), "the fall-through path")
				} else {
					report(ret.Pos(), "a return path")
				}
				return
			}
		}
		if len(b.Succs) == 0 {
			// Fell off the end of the function (or a no-return call).
			if terminatesAbnormally(info, b) {
				return
			}
			report(body.Rbrace, "the fall-through path")
			return
		}
		// Conditional on the acquisition's own error: the branch where
		// the error is non-nil carries no resource (Pin/Fetch failed),
		// as long as the error variable still holds that result.
		if len(b.Succs) == 2 && errValid && res.errObj != nil {
			if skip, ok := errBranch(info, b, res.errObj); ok {
				for si, s := range b.Succs {
					if si != skip {
						visit(s, 0, errValid)
					}
				}
				return
			}
		}
		for _, s := range b.Succs {
			visit(s, 0, errValid)
		}
	}
	visit(start, startIdx, res.errObj != nil)
}

// errBranch inspects a two-successor block whose last node is a
// comparison of the tracked error against nil and returns the index
// of the successor taken when the error is non-nil.
func errBranch(info *types.Info, b *cfg.Block, errObj types.Object) (skip int, ok bool) {
	if len(b.Nodes) == 0 {
		return 0, false
	}
	bin, isBin := lintutil.Unparen(asExpr(b.Nodes[len(b.Nodes)-1])).(*ast.BinaryExpr)
	if !isBin {
		return 0, false
	}
	var other ast.Expr
	switch {
	case lintutil.ObjOf(info, bin.X) == errObj:
		other = bin.Y
	case lintutil.ObjOf(info, bin.Y) == errObj:
		other = bin.X
	default:
		return 0, false
	}
	if id, isId := lintutil.Unparen(other).(*ast.Ident); !isId || id.Name != "nil" {
		return 0, false
	}
	switch bin.Op {
	case token.NEQ: // err != nil: true branch (Succs[0]) is the failure path
		return 0, true
	case token.EQL: // err == nil: false branch (Succs[1]) is the failure path
		return 1, true
	}
	return 0, false
}

func asExpr(n ast.Node) ast.Expr {
	if e, ok := n.(ast.Expr); ok {
		return e
	}
	return nil
}

// terminatesAbnormally reports whether the block's last node is a call
// that never returns (panic, os.Exit, log.Fatal, …).
func terminatesAbnormally(info *types.Info, b *cfg.Block) bool {
	if len(b.Nodes) == 0 {
		return false
	}
	last := b.Nodes[len(b.Nodes)-1]
	abnormal := false
	ast.Inspect(last, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && !mayReturn(info)(call) {
			abnormal = true
		}
		return !abnormal
	})
	return abnormal
}

// reassigns reports whether node n assigns a new value to obj.
func reassigns(info *types.Info, n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if a, ok := m.(*ast.AssignStmt); ok {
			for _, lhs := range a.Lhs {
				if lintutil.ObjOf(info, lhs) == obj {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// classifyNode decides what node n does with the resource: releases
// it, escapes it (ownership transfer), or neither. Uses of the
// resource as the receiver of its own methods (v.Data(), pg.MarkDirty)
// are neutral; any other value use is a conservative escape so the
// analyzer never second-guesses an explicit hand-off.
func classifyNode(info *types.Info, res *resource, n ast.Node) event {
	ev := evNone
	parents := parentMap(n)
	ast.Inspect(n, func(m ast.Node) bool {
		if ev == evRelease {
			return false
		}
		if call, ok := m.(*ast.CallExpr); ok {
			if isRelease(info, res, call) {
				ev = evRelease
				return false
			}
		}
		id, ok := m.(*ast.Ident)
		if !ok || lintutil.ObjOf(info, id) != res.obj {
			return true
		}
		switch use := identUse(parents, id); {
		case use == useReceiver, use == useLHS:
			// method receiver or plain reassignment target: neutral
		case use == useLent && res.method == "BeginRead":
			// &r handed to a helper that reads through it: a loan
		default:
			if ev == evNone {
				ev = evEscape
			}
		}
		return true
	})
	return ev
}

// isRelease matches v.Unpin() (views), r.End() (readers) and
// p.Unpin(pg) (pages).
func isRelease(info *types.Info, res *resource, call *ast.CallExpr) bool {
	if res.method == "BeginRead" {
		recv, recvType, ok := lintutil.MethodCall(info, call, "End")
		return ok && lintutil.IsNamed(recvType, "pager", "Reader") && lintutil.ObjOf(info, recv) == res.obj
	}
	recv, recvType, ok := lintutil.MethodCall(info, call, "Unpin")
	if !ok {
		return false
	}
	switch res.method {
	case "Pin":
		return lintutil.IsNamed(recvType, "pager", "View") && lintutil.ObjOf(info, recv) == res.obj
	case "Fetch":
		return lintutil.IsNamed(recvType, "pager", "Pager") &&
			len(call.Args) == 1 && lintutil.ObjOf(info, call.Args[0]) == res.obj
	}
	return false
}

type use int

const (
	useValue use = iota
	useReceiver
	useLHS
	useLent // operand of &
)

// parentMap builds child->parent links for the subtree rooted at n.
func parentMap(n ast.Node) map[ast.Node]ast.Node {
	parents := make(map[ast.Node]ast.Node)
	var stack []ast.Node
	ast.Inspect(n, func(m ast.Node) bool {
		if m == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		if len(stack) > 0 {
			parents[m] = stack[len(stack)-1]
		}
		stack = append(stack, m)
		return true
	})
	return parents
}

// identUse classifies how the identifier id is used, given parent links.
func identUse(parents map[ast.Node]ast.Node, id *ast.Ident) use {
	p := parents[id]
	if sel, ok := p.(*ast.SelectorExpr); ok && sel.X == id {
		// Any member access — v.Method(...), pg.ID, pg.Data[:] — reads
		// through the pin without moving the pin itself; the release
		// obligation stays put. Only using the identifier directly as a
		// value (call argument, RHS, return, send) is a hand-off.
		return useReceiver
	}
	if a, ok := p.(*ast.AssignStmt); ok {
		for _, l := range a.Lhs {
			if l == id {
				return useLHS
			}
		}
	}
	if u, ok := p.(*ast.UnaryExpr); ok && u.Op == token.AND {
		return useLent
	}
	return useValue
}

// --- View.Data / Reader.Page escape --------------------------------------

// pinnedBytes names the source of a call's pinned bytes — v.Data() or
// r.Page(id) — and when they die, "" if e is neither.
func pinnedBytes(info *types.Info, e ast.Expr) (source, dies string) {
	call, ok := lintutil.Unparen(e).(*ast.CallExpr)
	if !ok {
		return "", ""
	}
	if _, recvType, ok := lintutil.MethodCall(info, call, "Data"); ok && lintutil.IsNamed(recvType, "pager", "View") {
		return "View.Data", "the view's Unpin"
	}
	if _, recvType, ok := lintutil.MethodCall(info, call, "Page"); ok && lintutil.IsNamed(recvType, "pager", "Reader") {
		return "Reader.Page", "the reader's next Page or End"
	}
	return "", ""
}

// checkDataEscape flags pinned bytes outliving their pin: returning the
// raw Data() or Page() slice, assigning it to a field, or sending it on
// a channel. Derived copies (append, copy, decode) are fine — only the
// aliasing slice itself is tracked.
func checkDataEscape(pass *analysis.Pass, info *types.Info, body *ast.BlockStmt) {
	// Objects bound directly to a v.Data() or r.Page() result, with the
	// (source, dies) wording of their diagnostics.
	dataObjs := make(map[types.Object][2]string)
	ast.Inspect(body, func(n ast.Node) bool {
		a, ok := n.(*ast.AssignStmt)
		if !ok || len(a.Lhs) != len(a.Rhs) && len(a.Rhs) != 1 {
			return true
		}
		// b, err := r.Page(id) binds the bytes to the first name.
		for i := range a.Rhs {
			if src, dies := pinnedBytes(info, a.Rhs[i]); src != "" {
				if obj := lintutil.ObjOf(info, a.Lhs[i]); obj != nil {
					dataObjs[obj] = [2]string{src, dies}
				}
			}
		}
		return true
	})
	escaping := func(e ast.Expr) (source, dies string) {
		if e == nil {
			return "", ""
		}
		if src, dies := pinnedBytes(info, e); src != "" {
			return src, dies
		}
		if obj := lintutil.ObjOf(info, e); obj != nil {
			w := dataObjs[obj]
			return w[0], w[1]
		}
		return "", ""
	}
	report := func(e ast.Expr, how string) {
		if src, dies := escaping(e); src != "" {
			pass.Reportf(e.Pos(), "%s bytes escape %s: the slice dies with %s (copy it instead)", src, how, dies)
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.ReturnStmt:
			for _, r := range st.Results {
				report(r, "via return")
			}
		case *ast.SendStmt:
			report(st.Value, "via channel send")
		case *ast.AssignStmt:
			for i, lhs := range st.Lhs {
				if i >= len(st.Rhs) {
					break
				}
				switch lintutil.Unparen(lhs).(type) {
				case *ast.SelectorExpr:
					report(st.Rhs[i], "into a struct field")
				case *ast.IndexExpr:
					report(st.Rhs[i], "into a container")
				}
			}
		}
		return true
	})
}

func shortFile(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[i+1:]
		}
	}
	return path
}
