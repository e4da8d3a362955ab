package pictdb_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/constant"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestCorruptWrap holds the module's non-test code to the typed-error
// rule (DESIGN.md §14). A sentinel — a package-level error variable of
// this module, such as pager.ErrChecksum, storage.ErrCorrupt or
// pager.ErrReadOnly — is wrapped with %w, so errors.Is and IsCorruption
// still see it through every layer, and matched with errors.Is, never
// with == or != (every sentinel is wrapped at birth, so identity never
// matches). No error value is formatted with %v or %s in fmt.Errorf
// either: if it carries a sentinel, the chain is cut; format err.Error()
// where flattening is meant. The check uses only the standard library:
// go/parser, go/types, and go/importer's source importer for the
// standard packages.
func TestCorruptWrap(t *testing.T) {
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "source", nil)

	t.Run("wrapfixture", func(t *testing.T) {
		const header = `package wrapfixture

import (
	"errors"
	"fmt"
	"io"
)

var (
	ErrChecksum  = errors.New("checksum")
	ErrCorrupt   = errors.New("corrupt")
	ErrTruncated = errors.New("truncated")
	ErrBadMagic  = errors.New("bad magic")
	ErrReadOnly  = errors.New("read-only")
	errStop      = errors.New("stop")
	_            = fmt.Sprint
	_            = io.EOF
)

func f(err error, page int) any { return `
		for _, tc := range []struct{ name, expr, want string }{
			{"wrap with %w", `fmt.Errorf("page %d: %w", page, ErrChecksum)`, ""},
			{"two %w", `fmt.Errorf("wal sync: %w (%w)", err, ErrReadOnly)`, ""},
			{"match with errors.Is", `errors.Is(err, ErrCorrupt)`, ""},
			{"nil check", `err != nil`, ""},
			{"Sprintf is not Errorf", `fmt.Sprintf("warning: %v", err)`, ""},
			{"flatten with Error()", `fmt.Errorf("page %d failed (%s); continuing", page, err.Error())`, ""},
			{"standard sentinel", `err == io.EOF`, ""},
			{"literal percent", `fmt.Errorf("100%%: %w", err)`, ""},
			{"sentinel under %v", `fmt.Errorf("page %d: %v", page, ErrChecksum)`, "sentinel ErrChecksum formatted with %v"},
			{"sentinel under %s", `fmt.Errorf("load: %s", ErrTruncated)`, "sentinel ErrTruncated formatted with %s"},
			{"sentinel under %q", `fmt.Errorf("load: %q", ErrTruncated)`, "sentinel ErrTruncated formatted with %q"},
			{"sentinel mid-format", `fmt.Errorf("verify: %v (data unsafe)", ErrChecksum)`, "sentinel ErrChecksum formatted with %v"},
			{"error under %v", `fmt.Errorf("while scanning: %v", err)`, "error formatted with %v"},
			{"error under %s", `fmt.Errorf("while scanning: %s", err)`, "error formatted with %s"},
			{"compare ==", `err == ErrBadMagic`, "ErrBadMagic compared with =="},
			{"compare !=", `err != ErrCorrupt`, "ErrCorrupt compared with !="},
			{"compare parenthesized", `(ErrCorrupt) == err`, "ErrCorrupt compared with =="},
			{"compare unexported", `err == errStop`, "errStop compared with =="},
		} {
			file, err := parser.ParseFile(fset, tc.name+".go", header+tc.expr+" }\n", 0)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			c := newWrapChecker(fset, std)
			if _, err := c.check("wrapfixture", []*ast.File{file}); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			got := c.findings()
			switch {
			case tc.want == "" && len(got) > 0:
				t.Errorf("%s: unexpected finding %q", tc.name, got)
			case tc.want != "" && (len(got) != 1 || !strings.Contains(got[0], tc.want)):
				t.Errorf("%s: findings %q, want one containing %q", tc.name, got, tc.want)
			}
		}
	})

	t.Run("module", func(t *testing.T) {
		mod, err := os.ReadFile("go.mod")
		if err != nil {
			t.Fatal(err)
		}
		modPath, _, _ := strings.Cut(strings.TrimPrefix(string(mod), "module "), "\n")
		c := newWrapChecker(fset, std)
		err = filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if name := d.Name(); dir != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			path := modPath
			if dir != "." {
				path += "/" + filepath.ToSlash(dir)
			}
			c.dirs[path] = dir
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for path := range c.dirs {
			if _, err := c.Import(path); err != nil {
				t.Fatal(err)
			}
		}
		if len(c.checked) < 20 {
			t.Fatalf("type-checked %d packages; the walk missed the module", len(c.checked))
		}
		for _, f := range c.findings() {
			t.Error(f)
		}
	})
}

// wrapChecker type-checks the packages it is pointed at from source,
// resolving the module's own imports to the directories in dirs and
// every other import through the standard library's source importer.
type wrapChecker struct {
	fset    *token.FileSet
	std     types.Importer
	dirs    map[string]string // import path → directory
	checked map[string]*types.Package
	files   []*ast.File
	info    *types.Info
}

func newWrapChecker(fset *token.FileSet, std types.Importer) *wrapChecker {
	return &wrapChecker{
		fset:    fset,
		std:     std,
		dirs:    make(map[string]string),
		checked: make(map[string]*types.Package),
		info: &types.Info{
			Types: make(map[ast.Expr]types.TypeAndValue),
			Uses:  make(map[*ast.Ident]types.Object),
		},
	}
}

// Import implements types.Importer over the module's directories.
func (c *wrapChecker) Import(path string) (*types.Package, error) {
	dir, ok := c.dirs[path]
	if !ok {
		return c.std.Import(path)
	}
	if p, ok := c.checked[path]; ok {
		return p, nil
	}
	bp, err := build.ImportDir(dir, 0)
	if _, none := err.(*build.NoGoError); none {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(c.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return c.check(path, files)
}

func (c *wrapChecker) check(path string, files []*ast.File) (*types.Package, error) {
	conf := types.Config{Importer: c}
	p, err := conf.Check(path, c.fset, files, c.info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	c.checked[path] = p
	c.files = append(c.files, files...)
	return p, nil
}

// findings applies the rule to every file checked so far.
func (c *wrapChecker) findings() []string {
	var out []string
	report := func(n ast.Node, format string, args ...any) {
		out = append(out, fmt.Sprintf("%s: %s", c.fset.Position(n.Pos()), fmt.Sprintf(format, args...)))
	}
	for _, f := range c.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				verbs, ok := c.errorfVerbs(n)
				if !ok {
					break
				}
				for i, arg := range n.Args[1:] {
					if i >= len(verbs) || verbs[i] == 'w' {
						continue
					}
					if name, ok := c.sentinel(arg); ok {
						report(arg, "sentinel %s formatted with %%%c in fmt.Errorf: wrap it with %%w", name, verbs[i])
					} else if (verbs[i] == 'v' || verbs[i] == 's') && isError(c.info.TypeOf(arg)) {
						report(arg, "error formatted with %%%c in fmt.Errorf cuts any sentinel it carries: wrap it with %%w or format err.Error()", verbs[i])
					}
				}
			case *ast.BinaryExpr:
				if n.Op != token.EQL && n.Op != token.NEQ {
					break
				}
				for _, side := range []ast.Expr{n.X, n.Y} {
					if name, ok := c.sentinel(side); ok {
						report(n, "%s compared with %s: sentinels are wrapped at birth, match with errors.Is", name, n.Op)
						break
					}
				}
			}
			return true
		})
	}
	slices.Sort(out)
	return out
}

// errorfVerbs returns the verbs of call's format, in argument order,
// when call is fmt.Errorf with a constant format.
func (c *wrapChecker) errorfVerbs(call *ast.CallExpr) ([]byte, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || len(call.Args) == 0 {
		return nil, false
	}
	fn, ok := c.info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "fmt" || fn.Name() != "Errorf" {
		return nil, false
	}
	tv := c.info.Types[call.Args[0]]
	if tv.Value == nil || tv.Value.Kind() != constant.String {
		return nil, false
	}
	format := constant.StringVal(tv.Value)
	var verbs []byte
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		// Skip flags, width, precision and argument indexes.
		for i++; i < len(format) && strings.IndexByte("0123456789.+-# *[]", format[i]) >= 0; i++ {
		}
		if i < len(format) && format[i] != '%' {
			verbs = append(verbs, format[i])
		}
	}
	return verbs, true
}

// sentinel reports whether e names a package-level error variable of a
// package this checker type-checked from source.
func (c *wrapChecker) sentinel(e ast.Expr) (string, bool) {
	var id *ast.Ident
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = x
	case *ast.SelectorExpr:
		id = x.Sel
	default:
		return "", false
	}
	v, ok := c.info.Uses[id].(*types.Var)
	if !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() || c.checked[v.Pkg().Path()] != v.Pkg() {
		return "", false
	}
	return id.Name, types.Identical(v.Type(), types.Universe.Lookup("error").Type())
}

func isError(t types.Type) bool {
	return t != nil && types.Implements(t, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
}
