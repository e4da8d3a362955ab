package locksync

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"testing"
)

// TestKnownMutexesExist parses the packages the analyzer names locks
// in and fails when a (type, field) of knownMutexes is no longer a
// sync.Mutex or sync.RWMutex field there: the analyzer matches by
// name, so a rename would otherwise switch its rule off silently.
func TestKnownMutexesExist(t *testing.T) {
	fields := map[string]map[[2]string]bool{} // package → {struct, field} → is a sync mutex
	for _, k := range knownMutexes {
		if fields[k.pkg] == nil {
			fields[k.pkg] = mutexFields(t, filepath.Join("..", "..", k.pkg))
		}
		if !fields[k.pkg][[2]string{k.owner, k.field}] {
			t.Errorf("internal/%s has no struct %s with a sync mutex field %s: update knownMutexes", k.pkg, k.owner, k.field)
		}
	}
}

// mutexFields lists the sync.Mutex and sync.RWMutex fields of every
// struct declared in dir's non-test files.
func mutexFields(t *testing.T, dir string) map[[2]string]bool {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no Go files in %s: %v", dir, err)
	}
	out := map[[2]string]bool{}
	fset := token.NewFileSet()
	for _, path := range paths {
		if matched, _ := filepath.Match("*_test.go", filepath.Base(path)); matched {
			continue
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, f := range st.Fields.List {
				sel, ok := f.Type.(*ast.SelectorExpr)
				if !ok {
					continue
				}
				pkg, ok := sel.X.(*ast.Ident)
				if !ok || pkg.Name != "sync" || (sel.Sel.Name != "Mutex" && sel.Sel.Name != "RWMutex") {
					continue
				}
				for _, name := range f.Names {
					out[[2]string{ts.Name.Name, name.Name}] = true
				}
			}
			return true
		})
	}
	return out
}
