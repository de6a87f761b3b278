package sharp_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// deadExportAllow lists the functions the guard tolerates without
// a caller it can see, each with the reason it stays.
var deadExportAllow = map[string]string{
	"internal/record.ReadFileInto": "BenchmarkReplayReuse1e6 gates reuse_allocs and mmap_speedup_x on it (BENCH_pr9.json)",
}

// deadCode parses every Go file under root, including modules nested there
// (perfbench), and reports the top-level functions and methods declared in
// non-test files under internal/, cmd/ and examples/ that nothing uses:
//
//   - an exported one that no non-test file names, nor any test file of
//     another package (a package's own tests do not keep it alive);
//   - an unexported one that no file of its own package names, tests
//     included.
//
// A reference is an identifier with the function's name, so the scan never
// reports a function that is called, and may miss one whose name another
// function shares. A package is a directory; init and main are entry points.
// Each finding reads "dir.Name" or "dir.Recv.Name", with dir relative to
// root.
func deadCode(root string) ([]string, error) {
	type decl struct {
		key, dir, name string
		exported       bool
	}
	var decls []decl
	// names[dir][name] counts the identifiers with that name in dir, split
	// by whether they appear in a test file.
	type counts struct{ prod, test int }
	names := map[string]map[string]*counts{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			base := d.Name()
			if path != root && (base == "testdata" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(rel)
		test := strings.HasSuffix(path, "_test.go")
		declared := map[*ast.Ident]bool{}
		if !test && scanned(dir) {
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok || fn.Recv == nil && (fn.Name.Name == "init" || fn.Name.Name == "main") {
					continue
				}
				declared[fn.Name] = true
				key := dir + "."
				if fn.Recv != nil && len(fn.Recv.List) == 1 {
					key += recvName(fn.Recv.List[0].Type) + "."
				}
				decls = append(decls, decl{key + fn.Name.Name, dir, fn.Name.Name, fn.Name.IsExported()})
			}
		}
		byName := names[dir]
		if byName == nil {
			byName = map[string]*counts{}
			names[dir] = byName
		}
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || declared[id] {
				return true
			}
			c := byName[id.Name]
			if c == nil {
				c = &counts{}
				byName[id.Name] = c
			}
			if test {
				c.test++
			} else {
				c.prod++
			}
			return true
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	var dead []string
	for _, d := range decls {
		used := false
		for dir, byName := range names {
			c := byName[d.name]
			if c == nil {
				continue
			}
			switch {
			case !d.exported:
				used = dir == d.dir && c.prod+c.test > 0
			case dir == d.dir:
				used = c.prod > 0
			default:
				used = c.prod+c.test > 0
			}
			if used {
				break
			}
		}
		if !used {
			dead = append(dead, d.key)
		}
	}
	sort.Strings(dead)
	return dead, nil
}

// scanned reports whether deadCode checks the functions declared in dir.
func scanned(dir string) bool {
	for _, top := range []string{"internal", "cmd", "examples"} {
		if dir == top || strings.HasPrefix(dir, top+"/") {
			return true
		}
	}
	return false
}

// recvName is the type name of a method receiver: T for T, *T, T[P] and *T[P].
func recvName(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.ParenExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return "?"
		}
	}
}

// TestDeadExportGuard fails on internal API, and on functions of commands
// and examples, that nothing calls: delete such a function, move it into the _test.go file that still uses it, or, when
// it must stay, add it to deadExportAllow with the reason.
func TestDeadExportGuard(t *testing.T) {
	dead, err := deadCode(".")
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, key := range dead {
		found[key] = true
		if _, ok := deadExportAllow[key]; !ok {
			t.Errorf("%s has no caller the guard accepts", key)
		}
	}
	for key := range deadExportAllow {
		if !found[key] {
			t.Errorf("allowlist entry %s has a caller now, or is gone: drop it", key)
		}
	}
}

// TestDeadExportScanFixture plants one function of each kind in a small
// tree of two internal packages and a command, and checks the scan reports
// exactly the dead ones.
func TestDeadExportScanFixture(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"go.mod": "module fixture\n\ngo 1.22\n",
		"internal/a/a.go": `package a

// Dead is named by nothing.
func Dead() {}

// OwnTestOnly is named only by this package's test.
func OwnTestOnly() {}

// OtherTestOnly is named by another package's test.
func OtherTestOnly() {}

// Used is named by non-test code in another package.
func Used() { helper() }

type T struct{}

// Method is named only by this package's test.
func (*T) Method() {}

func helper() {}

func orphan() {}
`,
		"internal/a/a_test.go": `package a

import "testing"

func TestA(t *testing.T) { OwnTestOnly(); new(T).Method() }
`,
		"internal/b/b.go": `package b

import "fixture/internal/a"

// run is unexported and named only by this package's test.
func run() { a.Used() }
`,
		"internal/b/b_test.go": `package b

import (
	"testing"

	"fixture/internal/a"
)

func TestB(t *testing.T) { a.OtherTestOnly(); run() }
`,
		"internal/b/testdata/skip.go": "package skip\n\nfunc Dead() {}\n",
		"cmd/x/main.go": `package main

func main() { run() }

func run() {}

// orphanHelper is named by nothing.
func orphanHelper() {}
`,
	}
	for name, body := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	dead, err := deadCode(root)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"cmd/x.orphanHelper",
		"internal/a.Dead",
		"internal/a.OwnTestOnly",
		"internal/a.T.Method",
		"internal/a.orphan",
	}
	if !reflect.DeepEqual(dead, want) {
		t.Fatalf("deadCode = %q, want %q", dead, want)
	}
}
