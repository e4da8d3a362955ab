// Package locksync machine-checks the pager's locking protocol
// (DESIGN.md §13):
//
//   - No backend I/O that can block on the disk — Sync (fsync),
//     WriteAt, Truncate — while holding a pool shard mutex, the header
//     mutex, or a WAL mutex (qmu/imu). Group commit exists precisely
//     so the single fsync happens outside every hot lock; an fsync
//     smuggled under one serializes all readers behind the disk.
//     Exception: WriteAt under hmu — the dual-slot header write is the
//     one I/O the header mutex exists to serialize.
//   - No blocking channel operation (send, receive, or range over a
//     channel) while holding one of those mutexes: the peer may need
//     the same lock, and the group-commit handshake deadlocks.
//     A select with a default branch is non-blocking and allowed.
//   - Lock ordering inside internal/pager: hmu before any shard.mu,
//     and pager mutexes (hmu, shard.mu) strictly before WAL mutexes
//     (qmu, imu). Acquiring against that order is flagged even if no
//     I/O happens under it.
//   - The relation's locks (DESIGN.md §15): the directory mutex
//     (Relation.smu) and a store's heap mutex (store.mu) are never
//     nested in either order — an operation resolves ids under smu,
//     releases it, then touches a heap — and neither lock may cover
//     backend I/O or a blocking channel op.
//
// The walk is intraprocedural and syntactic over each function body:
// a Lock/RLock on a recognized mutex marks it held until the matching
// Unlock; defer Unlock keeps it held to function end (which is the
// point — code after the defer still runs under the lock). Helper
// functions documented as "caller holds mu" are the caller's
// responsibility and outside this analyzer's reach; keep them free of
// backend Sync calls by construction.
package locksync

import (
	"go/ast"
	"go/token"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"repro/internal/lint/directive"
	"repro/internal/lint/lintutil"
)

var Analyzer = &analysis.Analyzer{
	Name:     "locksync",
	Doc:      "forbid backend fsync/write and blocking channel ops under pool/WAL mutexes, and check pager lock ordering",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

var includeTests = false

func init() {
	Analyzer.Flags.BoolVar(&includeTests, "tests", false, "also check _test.go files")
}

// mutexClass ranks the recognized mutexes. Unknown mutexes are
// tracked for release bookkeeping but trigger no diagnostics: commitMu
// (the designated fsync serializer) and writeGate are *supposed* to be
// held across disk I/O.
type mutexClass int

const (
	classOther     mutexClass = iota
	classHeader               // Pager.hmu
	classPool                 // shard.mu (pager buffer pool)
	classWAL                  // walState.qmu / walState.imu
	classRelDir               // Relation.smu (id, index and spatial directories)
	classStoreHeap            // store.mu (one store's heap)
)

// knownMutexes is how a mutex is recognized: by the name of the struct
// that owns it, the package that struct is declared in, and the field.
// A rename there must be made here too; TestKnownMutexesExist fails
// until it is, rather than the rule going quiet.
var knownMutexes = []struct {
	pkg, owner, field string
	class             mutexClass
}{
	{"pager", "Pager", "hmu", classHeader},
	{"pager", "shard", "mu", classPool},
	{"pager", "walState", "qmu", classWAL},
	{"pager", "walState", "imu", classWAL},
	{"relation", "Relation", "smu", classRelDir},
	{"relation", "store", "mu", classStoreHeap},
}

func (c mutexClass) String() string {
	switch c {
	case classHeader:
		return "header mutex (hmu)"
	case classPool:
		return "pool shard mutex"
	case classWAL:
		return "WAL mutex"
	case classRelDir:
		return "relation directory mutex (smu)"
	case classStoreHeap:
		return "store heap mutex"
	}
	return "mutex"
}

// held is one currently held lock.
type held struct {
	key   string // canonical receiver text, e.g. "sh.mu"
	class mutexClass
}

func run(pass *analysis.Pass) (interface{}, error) {
	pass = directive.Apply(pass, false)
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil), (*ast.FuncLit)(nil)}, func(n ast.Node) {
		var body *ast.BlockStmt
		switch fn := n.(type) {
		case *ast.FuncDecl:
			body = fn.Body
		case *ast.FuncLit:
			body = fn.Body
		}
		if body == nil {
			return
		}
		if !includeTests && lintutil.IsTestFile(pass.Fset.Position(n.Pos()).Filename) {
			return
		}
		w := &walker{pass: pass, info: pass.TypesInfo}
		w.stmts(body.List, nil)
	})
	return nil, nil
}

type walker struct {
	pass *analysis.Pass
	info *types.Info
}

// classify resolves a mutex receiver expression (the X of X.Lock())
// to its class by the owning type and field name.
func (w *walker) classify(recv ast.Expr) (string, mutexClass, bool) {
	t := w.info.TypeOf(recv)
	if t == nil || !isMutexType(t) {
		return "", classOther, false
	}
	key := exprKey(recv)
	sel, ok := lintutil.Unparen(recv).(*ast.SelectorExpr)
	if !ok {
		return key, classOther, true
	}
	owner := lintutil.NamedType(w.info.TypeOf(sel.X))
	if owner == nil || owner.Obj() == nil {
		return key, classOther, true
	}
	for _, k := range knownMutexes {
		if owner.Obj().Name() == k.owner && sel.Sel.Name == k.field {
			return key, k.class, true
		}
	}
	return key, classOther, true
}

func isMutexType(t types.Type) bool {
	return lintutil.IsNamed(t, "sync", "Mutex") || lintutil.IsNamed(t, "sync", "RWMutex")
}

// exprKey renders a stable key for a lock receiver: "p.hmu", "sh.mu".
func exprKey(e ast.Expr) string {
	switch x := lintutil.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprKey(x.X) + "." + x.Sel.Name
	case *ast.IndexExpr:
		return exprKey(x.X) + "[]"
	case *ast.UnaryExpr:
		return exprKey(x.X)
	case *ast.StarExpr:
		return exprKey(x.X)
	case *ast.CallExpr:
		return exprKey(x.Fun) + "()"
	}
	return "?"
}

// stmts walks a statement list with the current held set; branches get
// copies so a lock taken in one arm does not poison the other.
func (w *walker) stmts(list []ast.Stmt, locks []held) []held {
	for _, s := range list {
		locks = w.stmt(s, locks)
	}
	return locks
}

func copyLocks(locks []held) []held {
	return append([]held(nil), locks...)
}

func (w *walker) stmt(s ast.Stmt, locks []held) []held {
	switch st := s.(type) {
	case *ast.ExprStmt:
		return w.expr(st.X, locks)
	case *ast.AssignStmt:
		for _, r := range st.Rhs {
			locks = w.exprValue(r, locks)
		}
		return locks
	case *ast.DeferStmt:
		// defer mu.Unlock() keeps mu held for the remainder of the
		// function — that is its purpose — so it does NOT release here.
		// Any other deferred call is scanned for violations (it runs
		// with whatever is still held at exit; approximate with the
		// current set).
		if w.lockCall(st.Call) == "" {
			w.exprValue(st.Call, locks)
		}
		return locks
	case *ast.GoStmt:
		// The goroutine runs without the caller's locks.
		w.exprValue(st.Call, nil)
		return locks
	case *ast.BlockStmt:
		return w.stmts(st.List, locks)
	case *ast.IfStmt:
		if st.Init != nil {
			locks = w.stmt(st.Init, locks)
		}
		locks = w.exprValue(st.Cond, locks)
		w.stmt(st.Body, copyLocks(locks))
		if st.Else != nil {
			w.stmt(st.Else, copyLocks(locks))
		}
		return locks
	case *ast.ForStmt:
		if st.Init != nil {
			locks = w.stmt(st.Init, locks)
		}
		if st.Cond != nil {
			locks = w.exprValue(st.Cond, locks)
		}
		inner := w.stmts(st.Body.List, copyLocks(locks))
		if st.Post != nil {
			w.stmt(st.Post, inner)
		}
		return locks
	case *ast.RangeStmt:
		// range over a channel is a blocking receive per iteration.
		if t := w.info.TypeOf(st.X); t != nil {
			if _, isChan := t.Underlying().(*types.Chan); isChan {
				w.checkBlockingChan(st.X.Pos(), "range over channel", locks)
			}
		}
		locks = w.exprValue(st.X, locks)
		w.stmts(st.Body.List, copyLocks(locks))
		return locks
	case *ast.SwitchStmt:
		if st.Init != nil {
			locks = w.stmt(st.Init, locks)
		}
		if st.Tag != nil {
			locks = w.exprValue(st.Tag, locks)
		}
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.stmts(cc.Body, copyLocks(locks))
			}
		}
		return locks
	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			locks = w.stmt(st.Init, locks)
		}
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.stmts(cc.Body, copyLocks(locks))
			}
		}
		return locks
	case *ast.SelectStmt:
		// A select with a default branch never blocks; without one it
		// blocks until some case is ready.
		hasDefault := false
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			w.checkBlockingChan(st.Pos(), "select without default", locks)
		}
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				w.stmts(cc.Body, copyLocks(locks))
			}
		}
		return locks
	case *ast.SendStmt:
		w.checkBlockingChan(st.Arrow, "channel send", locks)
		locks = w.exprValue(st.Chan, locks)
		return w.exprValue(st.Value, locks)
	case *ast.ReturnStmt:
		for _, r := range st.Results {
			locks = w.exprValue(r, locks)
		}
		return locks
	case *ast.LabeledStmt:
		return w.stmt(st.Stmt, locks)
	case *ast.IncDecStmt, *ast.BranchStmt, *ast.DeclStmt, *ast.EmptyStmt:
		return locks
	}
	return locks
}

// lockCall recognizes X.Lock/RLock/Unlock/RUnlock on a mutex and
// returns the method name ("" otherwise).
func (w *walker) lockCall(call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return ""
	}
	if t := w.info.TypeOf(sel.X); t == nil || !isMutexType(t) {
		return ""
	}
	return sel.Sel.Name
}

// expr handles an expression statement: lock transitions and nested
// violations.
func (w *walker) expr(e ast.Expr, locks []held) []held {
	if call, ok := lintutil.Unparen(e).(*ast.CallExpr); ok {
		switch w.lockCall(call) {
		case "Lock", "RLock":
			sel := call.Fun.(*ast.SelectorExpr)
			key, class, ok := w.classify(sel.X)
			if !ok {
				return locks
			}
			w.checkOrder(call, key, class, locks)
			return append(copyLocks(locks), held{key: key, class: class})
		case "Unlock", "RUnlock":
			sel := call.Fun.(*ast.SelectorExpr)
			key := exprKey(sel.X)
			out := make([]held, 0, len(locks))
			removed := false
			// Release the most recent matching acquisition.
			for i := len(locks) - 1; i >= 0; i-- {
				if !removed && locks[i].key == key {
					removed = true
					continue
				}
				out = append(out, locks[i])
			}
			// out is reversed; restore order.
			for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
				out[i], out[j] = out[j], out[i]
			}
			return out
		}
	}
	return w.exprValue(e, locks)
}

// exprValue scans an arbitrary expression for violations under the
// current held set (calls that fsync, channel ops are statements and
// handled elsewhere).
func (w *walker) exprValue(e ast.Expr, locks []held) []held {
	if e == nil {
		return locks
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			// A literal's body runs when called, not here; if it is
			// immediately invoked the surrounding CallExpr still gets
			// scanned. Approximate by scanning it with the same held
			// set only when directly invoked.
			return false
		case *ast.CallExpr:
			w.checkCall(x, locks)
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				w.checkBlockingChan(x.Pos(), "channel receive", locks)
			}
		}
		return true
	})
	return locks
}

// worstHeld returns the most protocol-critical lock currently held
// (pool/WAL/header), or nil.
func worstHeld(locks []held) *held {
	for i := len(locks) - 1; i >= 0; i-- {
		if locks[i].class != classOther {
			return &locks[i]
		}
	}
	return nil
}

// checkCall flags blocking backend I/O under a protocol mutex. One
// exemption: a buffered WriteAt under the header mutex IS the designed
// dual-slot header protocol — hmu exists to make the slot flip atomic
// with the write, and it is never on the read path. Sync and Truncate
// stay banned there (writeHeader deliberately leaves fsync ordering to
// its callers).
func (w *walker) checkCall(call *ast.CallExpr, locks []held) {
	h := worstHeld(locks)
	if h == nil {
		return
	}
	for _, m := range [...]string{"Sync", "WriteAt", "Truncate"} {
		_, recvType, ok := lintutil.MethodCall(w.info, call, m)
		if !ok {
			continue
		}
		if !isBackendLike(recvType) {
			continue
		}
		if m == "WriteAt" && h.class == classHeader {
			continue
		}
		w.pass.Reportf(call.Pos(), "backend %s while holding %s %q: disk I/O under a hot lock serializes the read path (see DESIGN.md §13; move it outside the critical section)",
			m, h.class, h.key)
	}
}

// checkOrder enforces the pager's lock hierarchy — hmu before any
// shard.mu, and both before the WAL's qmu/imu — plus the relation's
// discipline: the directory mutex (Relation.smu) and a store's heap
// mutex (store.mu) are NEVER nested, in either order. Every operation
// resolves ids under smu, releases it, then touches the heap under the
// store lock (and re-acquires smu afterwards if it must publish);
// holding both would couple the directory hot path to heap page I/O
// and, with writers on several stores running concurrently, hand two
// lock orders to deadlock against each other.
func (w *walker) checkOrder(call *ast.CallExpr, key string, class mutexClass, locks []held) {
	for _, h := range locks {
		switch {
		case class == classHeader && h.class == classPool:
			w.pass.Reportf(call.Pos(), "lock order violation: acquiring header mutex %q while holding pool shard mutex %q (hmu must be taken before any shard.mu)", key, h.key)
		case (class == classHeader || class == classPool) && h.class == classWAL:
			w.pass.Reportf(call.Pos(), "lock order violation: acquiring pager mutex %q while holding WAL mutex %q (pager mutexes come before WAL mutexes)", key, h.key)
		case class == classRelDir && h.class == classStoreHeap:
			w.pass.Reportf(call.Pos(), "lock order violation: acquiring relation directory mutex %q while holding store heap mutex %q (smu and a store's heap lock are never nested; see DESIGN.md §15)", key, h.key)
		case class == classStoreHeap && h.class == classRelDir:
			w.pass.Reportf(call.Pos(), "lock order violation: acquiring store heap mutex %q while holding relation directory mutex %q (resolve the id, release smu, then touch the heap; see DESIGN.md §15)", key, h.key)
		}
	}
}

// isBackendLike matches the pager's Backend interface, anything that
// implements it, and *os.File.
func isBackendLike(t types.Type) bool {
	if t == nil {
		return false
	}
	if lintutil.IsNamed(t, "pager", "Backend") || lintutil.IsNamed(t, "os", "File") {
		return true
	}
	// Structural check: has WriteAt+Sync+Truncate, i.e. can be a page
	// or WAL store.
	return hasMethod(t, "Sync") && hasMethod(t, "WriteAt") && hasMethod(t, "Truncate")
}

func hasMethod(t types.Type, name string) bool {
	ms := types.NewMethodSet(t)
	for i := 0; i < ms.Len(); i++ {
		if ms.At(i).Obj().Name() == name {
			return true
		}
	}
	if _, isPtr := t.(*types.Pointer); !isPtr {
		ms = types.NewMethodSet(types.NewPointer(t))
		for i := 0; i < ms.Len(); i++ {
			if ms.At(i).Obj().Name() == name {
				return true
			}
		}
	}
	return false
}

// checkBlockingChan flags a potentially blocking channel operation
// under a protocol mutex.
func (w *walker) checkBlockingChan(pos token.Pos, what string, locks []held) {
	h := worstHeld(locks)
	if h == nil {
		return
	}
	w.pass.Reportf(pos, "blocking %s while holding %s %q: the peer may need the same lock (group-commit handshake deadlock; see DESIGN.md §13)",
		what, h.class, h.key)
}
