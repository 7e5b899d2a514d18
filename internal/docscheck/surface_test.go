package docscheck

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyAllowlist names the exported functions and methods in
// internal/ that only tests call and that stay anyway, each with the
// reason. They are cross-package test fixtures, so they cannot move
// into an export_test.go file.
var testOnlyAllowlist = map[string]string{
	"internal/oprf.NewServerFromKey": "fixed-key OPRF fixture for the backend tests",
	"internal/vec.ForceGeneric":      "generic-kernel reference the blind tests compare SIMD against",
	"internal/store.(*Disk).Seal":    "seals the active segment for the repl tests",
}

// TestNoTestOnlyExports type-checks every non-test package of the
// module, plus the benchmark module under bench/, and lists each
// exported function and method of an exported type declared in
// internal/ that none of them uses. A method counts as used when its
// type satisfies a module interface, error or fmt.Stringer through it.
// The list must equal testOnlyAllowlist: a new entry is code only
// tests call (delete it, or move it into a _test.go file), and an
// allowlisted entry that gained a caller or no longer exists must
// leave the allowlist, so the list can only shrink.
func TestNoTestOnlyExports(t *testing.T) {
	root := repoRoot(t)
	found := make(map[string]bool)
	for _, name := range testOnlyExports(t, root) {
		found[name] = true
		if _, ok := testOnlyAllowlist[name]; !ok {
			t.Errorf("%s: exported, but no non-test code uses it", name)
		}
	}
	for name := range testOnlyAllowlist {
		if !found[name] {
			t.Errorf("%s: allowlisted, but it is gone or has a non-test use; drop it from testOnlyAllowlist", name)
		}
	}
}

// srcImporter type-checks the module's packages (import paths under
// "eyewnder") from their non-test sources, honouring build tags, and
// leaves every other import to the default importer.
type srcImporter struct {
	root  string
	fset  *token.FileSet
	info  *types.Info
	std   types.Importer
	pkgs  map[string]*types.Package
	files map[string][]*ast.File // import path -> parsed non-test files
}

// dir maps a module import path to its directory; the benchmark module
// eyewnder/bench lives in bench/ beside the main module.
func (s *srcImporter) dir(path string) (string, bool) {
	if path == "eyewnder" {
		return s.root, true
	}
	rel, ok := strings.CutPrefix(path, "eyewnder/")
	if !ok {
		return "", false
	}
	return filepath.Join(s.root, filepath.FromSlash(rel)), true
}

func (s *srcImporter) Import(path string) (*types.Package, error) {
	dir, ok := s.dir(path)
	if !ok {
		return s.std.Import(path)
	}
	if pkg, ok := s.pkgs[path]; ok {
		return pkg, nil
	}
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range append(bp.GoFiles, bp.CgoFiles...) {
		f, err := parser.ParseFile(s.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: s}
	pkg, err := conf.Check(path, s.fset, files, s.info)
	if err != nil {
		return nil, err
	}
	s.pkgs[path] = pkg
	s.files[path] = files
	return pkg, nil
}

// testOnlyExports returns, sorted, "internal/pkg.Func" and
// "internal/pkg.(*T).Method" for every exported function and method of
// an exported type in internal/ that no non-test code of the module or
// of bench/ uses.
func testOnlyExports(t *testing.T, root string) []string {
	t.Helper()
	s := &srcImporter{
		root: root,
		fset: token.NewFileSet(),
		info: &types.Info{
			Defs: make(map[*ast.Ident]types.Object),
			Uses: make(map[*ast.Ident]types.Object),
		},
		std:   importer.Default(),
		pkgs:  make(map[string]*types.Package),
		files: make(map[string][]*ast.File),
	}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if name := d.Name(); path != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		ipath := "eyewnder"
		if rel != "." {
			ipath += "/" + filepath.ToSlash(rel)
		}
		if _, err := s.Import(ipath); err != nil {
			if _, ok := err.(*build.NoGoError); !ok {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	used := make(map[types.Object]bool)
	for _, obj := range s.info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			used[fn.Origin()] = true
		}
	}
	// A method that satisfies an interface is reached through it.
	fmtPkg, err := s.std.Import("fmt")
	if err != nil {
		t.Fatal(err)
	}
	ifaces := []*types.Interface{
		types.Universe.Lookup("error").Type().Underlying().(*types.Interface),
		fmtPkg.Scope().Lookup("Stringer").Type().Underlying().(*types.Interface),
	}
	var named []*types.Named
	for _, pkg := range s.pkgs {
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				ifaces = append(ifaces, it)
			} else if n, ok := tn.Type().(*types.Named); ok {
				named = append(named, n)
			}
		}
	}
	for _, n := range named {
		ptr := types.NewPointer(n)
		for _, it := range ifaces {
			if it.NumMethods() == 0 || !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				if obj, _, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name()); obj != nil {
					used[obj.(*types.Func).Origin()] = true
				}
			}
		}
	}

	var out []string
	for path, files := range s.files {
		if !strings.HasPrefix(path, "eyewnder/internal/") {
			continue
		}
		label := strings.TrimPrefix(path, "eyewnder/")
		for _, f := range files {
			for _, decl := range f.Decls {
				d, ok := decl.(*ast.FuncDecl)
				if !ok || !d.Name.IsExported() || !receiverExported(d) {
					continue
				}
				if used[s.info.Defs[d.Name]] {
					continue
				}
				out = append(out, label+"."+methodLabel(d))
			}
		}
	}
	sort.Strings(out)
	return out
}

// methodLabel renders "Func", "T.Method" or "(*T).Method".
func methodLabel(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return d.Name.Name
	}
	recv := funcLabel(d)
	if _, ptr := d.Recv.List[0].Type.(*ast.StarExpr); ptr {
		typ, name, _ := strings.Cut(recv, ".")
		return "(*" + typ + ")." + name
	}
	return recv
}
