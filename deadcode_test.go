package sharp_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// deadExportAllow lists the functions the guard tolerates without
// a caller it can see, each with the reason it stays.
var deadExportAllow = map[string]string{}

// deadCode type-checks every Go package under root, including modules
// nested there (perfbench), from the files the build on this platform
// compiles, and reports the top-level functions and methods declared in
// non-test files under internal/, cmd/ and examples/ that nothing uses:
//
//   - an exported one that no non-test file refers to, nor any test file of
//     another package (a package's own tests do not keep it alive);
//   - an unexported one that no file of its own package refers to, tests
//     included.
//
// A reference is an identifier go/types resolves to the function, so a
// method is told apart from a type or a function that shares its name. A
// method that satisfies an interface the program can see (one its code
// names, one declared in a package it imports, or error) may be called
// through it, and stays alive. A package is a directory; init and main are
// entry points. Each finding reads "dir.Name" or "dir.Recv.Name", with dir
// relative to root.
func deadCode(root string) ([]string, error) {
	s := &deadScan{
		fset: token.NewFileSet(), files: map[string]*dirFiles{}, modules: map[string]string{},
		stdlib: importer.Default(), pkgs: map[string]*types.Package{},
		uses: map[string]map[string]*useCount{}, ifaces: map[string][]*types.Interface{},
	}
	if err := s.parse(root); err != nil {
		return nil, err
	}
	dirs := make([]string, 0, len(s.files))
	for dir := range s.files {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)
	for _, dir := range dirs {
		if err := s.checkDir(dir); err != nil {
			return nil, err
		}
	}
	if err := s.seeInterfaces(); err != nil {
		return nil, err
	}

	var dead []string
	for _, dir := range dirs {
		if !scanned(dir) {
			continue
		}
		pkg := s.pkgs[s.pathOf(dir)]
		for _, f := range s.files[dir].pkg {
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok || fn.Recv == nil && (fn.Name.Name == "init" || fn.Name.Name == "main") {
					continue
				}
				key, recv := dir+".", ""
				if fn.Recv != nil && len(fn.Recv.List) == 1 {
					recv = recvName(fn.Recv.List[0].Type)
					key += recv + "."
				}
				key += fn.Name.Name
				if !s.used(key, dir, fn.Name.IsExported()) && !s.satisfies(pkg, recv, fn.Name.Name) {
					dead = append(dead, key)
				}
			}
		}
	}
	sort.Strings(dead)
	return dead, nil
}

// checkDir type-checks the packages of a directory: the package, the
// package with its in-package tests, and its external test package.
func (s *deadScan) checkDir(dir string) error {
	df, importPath := s.files[dir], s.pathOf(dir)
	var pkg *types.Package
	var err error
	if len(df.pkg) > 0 {
		if pkg, err = s.load(importPath); err != nil {
			return err
		}
	}
	if len(df.test) > 0 {
		files := append(append([]*ast.File{}, df.pkg...), df.test...)
		if pkg, err = s.check(importPath, files, nil, true); err != nil {
			return err
		}
	}
	if len(df.xtest) > 0 {
		_, err = s.check(importPath+"_test", df.xtest, pkg, true)
	}
	return err
}

// seeInterfaces indexes the named interfaces of every package the program
// imports, at any depth, and those of the errors protocol: errors.Is, As
// and Unwrap call methods through interfaces declared in their function
// bodies, which no package scope shows.
func (s *deadScan) seeInterfaces() error {
	protocols, err := parser.ParseFile(s.fset, "protocols.go", `package protocols
type wrapper interface{ Unwrap() error }
type multiWrapper interface{ Unwrap() []error }
type matcher interface{ Is(error) bool }
type converter interface{ As(any) bool }
`, 0)
	if err != nil {
		return err
	}
	pp, err := new(types.Config).Check("protocols", s.fset, []*ast.File{protocols}, nil)
	if err != nil {
		return err
	}
	seen := map[*types.Package]bool{}
	var see func(p *types.Package)
	see = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				s.addInterface(tn.Type())
			}
		}
		for _, q := range p.Imports() {
			see(q)
		}
	}
	see(pp)
	for _, p := range s.pkgs {
		see(p)
	}
	s.addInterface(types.Universe.Lookup("error").Type())
	return nil
}

// dirFiles holds the parsed files of a directory: its package, the tests
// inside it and its external (_test) test package.
type dirFiles struct{ pkg, test, xtest []*ast.File }

// useCount counts references from one directory, split by whether they
// come from a test file.
type useCount struct{ prod, test int }

// deadScan is deadCode's state: the parsed tree, the type-checked packages
// and what refers to each function.
type deadScan struct {
	fset    *token.FileSet
	files   map[string]*dirFiles      // by directory
	modules map[string]string         // module path -> directory
	stdlib  types.Importer            // packages outside root
	pkgs    map[string]*types.Package // import path -> the package its importers see
	// uses[key][dir] counts the references from dir to the function key.
	uses map[string]map[string]*useCount
	// ifaces indexes the interfaces the program can see by method name.
	ifaces map[string][]*types.Interface
}

// parse reads the go.mod files and the Go files the build compiles under
// root.
func (s *deadScan) parse(root string) error {
	return filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
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
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(rel)
		if d.Name() == "go.mod" {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, line := range strings.Split(string(data), "\n") {
				if mod, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					s.modules[strings.TrimSpace(mod)] = dir
				}
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(path), d.Name()); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(s.fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		df := s.files[dir]
		if df == nil {
			df = &dirFiles{}
			s.files[dir] = df
		}
		switch {
		case !strings.HasSuffix(path, "_test.go"):
			df.pkg = append(df.pkg, f)
		case strings.HasSuffix(f.Name.Name, "_test"):
			df.xtest = append(df.xtest, f)
		default:
			df.test = append(df.test, f)
		}
		return nil
	})
}

// pathOf is the import path of a directory under root: its module, the
// deepest one holding it, joined with the rest of the directory.
func (s *deadScan) pathOf(dir string) string {
	mod, mdir := "", ""
	for m, d := range s.modules {
		if (d == "." || dir == d || strings.HasPrefix(dir, d+"/")) && (mod == "" || len(d) > len(mdir)) {
			mod, mdir = m, d
		}
	}
	if mdir == "." {
		return path.Join(mod, dir)
	}
	return path.Join(mod, strings.TrimPrefix(dir, mdir))
}

// dirOf is the directory of an import path under root: its module's, the
// longest module path matching, joined with the rest of the path.
func (s *deadScan) dirOf(importPath string) (string, bool) {
	mod := ""
	for m := range s.modules {
		if (importPath == m || strings.HasPrefix(importPath, m+"/")) && len(m) > len(mod) {
			mod = m
		}
	}
	if mod == "" {
		return "", false
	}
	return path.Join(s.modules[mod], strings.TrimPrefix(importPath, mod)), true
}

// load returns the package at an import path under root as its importers
// see it, type-checking its non-test files on first use.
func (s *deadScan) load(importPath string) (*types.Package, error) {
	if pkg := s.pkgs[importPath]; pkg != nil {
		return pkg, nil
	}
	dir, _ := s.dirOf(importPath)
	df := s.files[dir]
	if df == nil || len(df.pkg) == 0 {
		return nil, fmt.Errorf("no package at %s", importPath)
	}
	pkg, err := s.check(importPath, df.pkg, nil, false)
	if err != nil {
		return nil, err
	}
	s.pkgs[importPath] = pkg
	return pkg, nil
}

// check type-checks files as the package at importPath and counts their
// references, only those from test files when testsOnly is set (the
// package's own files were counted when it was loaded). An external test
// package imports underTest, its package with the in-package tests, in
// place of the one other importers see.
func (s *deadScan) check(importPath string, files []*ast.File, underTest *types.Package, testsOnly bool) (*types.Package, error) {
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
	conf := types.Config{Importer: importerFunc(func(p string) (*types.Package, error) {
		if underTest != nil && p == underTest.Path() {
			return underTest, nil
		}
		if _, ok := s.dirOf(p); ok {
			return s.load(p)
		}
		return s.stdlib.Import(p)
	})}
	pkg, err := conf.Check(importPath, s.fset, files, info)
	if err != nil {
		return nil, err
	}
	dir, _ := s.dirOf(strings.TrimSuffix(importPath, "_test"))
	for id, obj := range info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		key, ok := s.funcKey(fn)
		if !ok {
			continue
		}
		test := strings.HasSuffix(s.fset.File(id.Pos()).Name(), "_test.go")
		if testsOnly && !test {
			continue
		}
		byDir := s.uses[key]
		if byDir == nil {
			byDir = map[string]*useCount{}
			s.uses[key] = byDir
		}
		c := byDir[dir]
		if c == nil {
			c = &useCount{}
			byDir[dir] = c
		}
		if test {
			c.test++
		} else {
			c.prod++
		}
	}
	for _, tv := range info.Types {
		s.addInterface(tv.Type)
	}
	return pkg, nil
}

// funcKey names a function or concrete method declared under root as
// deadCode reports it.
func (s *deadScan) funcKey(fn *types.Func) (string, bool) {
	fn = fn.Origin()
	if fn.Pkg() == nil {
		return "", false
	}
	dir, ok := s.dirOf(strings.TrimSuffix(fn.Pkg().Path(), "_test"))
	if !ok {
		return "", false
	}
	key := dir + "."
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok {
			return "", false // an interface's method
		}
		key += named.Obj().Name() + "."
	}
	return key + fn.Name(), true
}

// addInterface indexes t by its methods when it is an interface.
func (s *deadScan) addInterface(t types.Type) {
	if t == nil {
		return
	}
	it, ok := t.Underlying().(*types.Interface)
	if !ok {
		return
	}
	for i := 0; i < it.NumMethods(); i++ {
		name := it.Method(i).Name()
		s.ifaces[name] = append(s.ifaces[name], it)
	}
}

// used reports whether the references to the function key keep it alive.
func (s *deadScan) used(key, dir string, exported bool) bool {
	for from, c := range s.uses[key] {
		switch {
		case !exported && from == dir && c.prod+c.test > 0:
			return true
		case exported && (c.prod > 0 || from != dir && c.test > 0):
			return true
		}
	}
	return false
}

// satisfies reports whether the method name of the type recv in pkg
// implements a method of an interface the program can see.
func (s *deadScan) satisfies(pkg *types.Package, recv, name string) bool {
	tn, ok := pkg.Scope().Lookup(recv).(*types.TypeName)
	if recv == "" || !ok {
		return false
	}
	t := tn.Type()
	for _, it := range s.ifaces[name] {
		if types.Implements(t, it) || types.Implements(types.NewPointer(t), it) {
			return true
		}
	}
	return false
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

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
// tree of two internal packages and a command (among them a method that
// shares its name with a type, and methods that satisfy interfaces), and
// checks the scan reports exactly the dead ones.
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

// Ledger is a type that shares its name with a method.
type Ledger struct{}

type Scheduler struct{ l Ledger }

// Ledger is named by nothing: the type of the same name does not count.
func (s *Scheduler) Ledger() Ledger { return s.l }

// Namer is an interface the program declares.
type Namer interface{ Name() string }

// Name satisfies Namer, so it may be called through it.
func (*Scheduler) Name() string { return "s" }

type wrapped struct{ err error }

func (w wrapped) Error() string { return w.err.Error() }

// Unwrap is called by errors.Unwrap through an interface in its body.
func (w wrapped) Unwrap() error { return w.err }
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
		"internal/a.Scheduler.Ledger",
		"internal/a.T.Method",
		"internal/a.orphan",
	}
	if !reflect.DeepEqual(dead, want) {
		t.Fatalf("deadCode = %q, want %q", dead, want)
	}
}
