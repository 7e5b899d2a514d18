// Package docscheck holds the repository's documentation checks: godoc
// coverage over the protocol/durability packages, relative-link
// integrity across every markdown file, README coverage of every
// command-line flag the main binaries define, the reverse (every flag a
// README flag-table row names exists), and the package guide's coverage
// of every internal package. Two structure checks ride along: no
// exported function in internal/ that only tests call, and no round
// lifecycle write in internal/backend outside round.go. CI's lint and
// docs jobs run these tests (see scripts/checkdocs.sh for the local
// entry point); they exist so the documentation cannot silently drift
// from the code, nor the code grow a second door.
package docscheck

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// repoRoot returns the module root, two levels above this package.
func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("repo root not found at %s: %v", root, err)
	}
	return root
}

// godocPackages are the packages whose exported surface must be fully
// documented: the wire protocol, the durable store, and replication —
// the packages OPERATIONS.md and ARCHITECTURE.md send readers to
// `go doc` for.
var godocPackages = []string{
	"internal/store",
	"internal/wire",
	"internal/repl",
}

// TestGodocCoverage fails if any exported identifier in the packages
// above lacks a doc comment (the `revive exported`-style check the CI
// lint job runs). A documented const/var/type group covers its members;
// methods on unexported types are exempt, being unreachable from godoc.
func TestGodocCoverage(t *testing.T) {
	root := repoRoot(t)
	var missing []string
	for _, pkg := range godocPackages {
		dir := filepath.Join(root, pkg)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("%s: %v", pkg, err)
		}
		fset := token.NewFileSet()
		for _, e := range entries {
			name := e.Name()
			if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
			if err != nil {
				t.Fatalf("%s/%s: %v", pkg, name, err)
			}
			missing = append(missing, undocumented(f, pkg+"/"+name)...)
		}
	}
	for _, m := range missing {
		t.Errorf("exported identifier without a doc comment: %s", m)
	}
}

// undocumented returns "file: Name" for every exported top-level
// identifier in f that carries no doc comment.
func undocumented(f *ast.File, file string) []string {
	var out []string
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || !receiverExported(d) {
				continue
			}
			if d.Doc == nil {
				out = append(out, file+": "+funcLabel(d))
			}
		case *ast.GenDecl:
			if d.Doc != nil && len(d.Specs) == 1 {
				continue // doc on the decl covers its only spec
			}
			grouped := d.Doc != nil
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() && s.Doc == nil && s.Comment == nil && !grouped {
						out = append(out, file+": type "+s.Name.Name)
					}
				case *ast.ValueSpec:
					if s.Doc != nil || s.Comment != nil || grouped {
						continue
					}
					for _, n := range s.Names {
						if n.IsExported() {
							out = append(out, file+": "+n.Name)
						}
					}
				}
			}
		}
	}
	return out
}

// receiverExported reports whether d is a plain function or a method on
// an exported type; methods on unexported types never surface in godoc.
func receiverExported(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	typ := d.Recv.List[0].Type
	for {
		switch v := typ.(type) {
		case *ast.StarExpr:
			typ = v.X
		case *ast.IndexExpr:
			typ = v.X
		case *ast.IndexListExpr:
			typ = v.X
		case *ast.Ident:
			return v.IsExported()
		default:
			return true
		}
	}
}

// funcLabel renders "Recv.Name" for methods and "Name" for functions.
func funcLabel(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return d.Name.Name
	}
	typ := d.Recv.List[0].Type
	for {
		switch v := typ.(type) {
		case *ast.StarExpr:
			typ = v.X
		case *ast.IndexExpr:
			typ = v.X
		case *ast.IndexListExpr:
			typ = v.X
		case *ast.Ident:
			return v.Name + "." + d.Name.Name
		default:
			return d.Name.Name
		}
	}
}

// mdLinkRE matches the target of an inline markdown link or image:
// [text](target) / ![alt](target). Targets containing spaces or nested
// parens are not used in this repo.
var mdLinkRE = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// TestMarkdownLinks resolves every relative link in every markdown file
// in the repository and fails on any that points at a missing file.
// External (scheme-prefixed) links and pure #fragments are skipped —
// the check is hermetic, no network.
func TestMarkdownLinks(t *testing.T) {
	root := repoRoot(t)
	var mdFiles []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == ".git" || name == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(d.Name(), ".md") {
			mdFiles = append(mdFiles, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(mdFiles) == 0 {
		t.Fatal("no markdown files found")
	}
	for _, md := range mdFiles {
		raw, err := os.ReadFile(md)
		if err != nil {
			t.Fatal(err)
		}
		rel, _ := filepath.Rel(root, md)
		for _, m := range mdLinkRE.FindAllStringSubmatch(string(raw), -1) {
			target := m[1]
			if strings.Contains(target, "://") ||
				strings.HasPrefix(target, "mailto:") ||
				strings.HasPrefix(target, "#") {
				continue
			}
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if target == "" {
				continue
			}
			resolved := filepath.Join(filepath.Dir(md), filepath.FromSlash(target))
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: broken relative link %q (%v)", rel, m[1], err)
			}
		}
	}
}

// flagDefRE matches a standard-library flag definition and captures the
// flag name: flag.String("name", ...), flag.Int("name", ...), etc.
var flagDefRE = regexp.MustCompile(`\bflag\.[A-Za-z0-9]+\(\s*"([^"]+)"`)

// flagCoveredBinaries are the commands whose every flag OPERATIONS.md
// and the README promise is documented in the README.
var flagCoveredBinaries = []string{
	"cmd/eyewnder-server",
	"cmd/eyewnder-sim",
	"cmd/eyewnder-eval",
}

// definedFlags returns every flag name the non-test sources of the
// command in dir define.
func definedFlags(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range flagDefRE.FindAllStringSubmatch(string(src), -1) {
			names = append(names, m[1])
		}
	}
	return names
}

// TestREADMEFlagCoverage extracts every flag the server, sim, and eval
// binaries define from their sources and fails if the README never
// mentions `-name`. This is the flag-drift check: adding a flag without
// documenting it (or renaming one and leaving the old name in the
// README's tables) breaks the docs job.
func TestREADMEFlagCoverage(t *testing.T) {
	root := repoRoot(t)
	raw, err := os.ReadFile(filepath.Join(root, "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	readme := string(raw)
	for _, cmd := range flagCoveredBinaries {
		names := definedFlags(t, filepath.Join(root, cmd))
		for _, name := range names {
			if !strings.Contains(readme, "-"+name) {
				t.Errorf("%s defines -%s but README.md never mentions it", cmd, name)
			}
		}
		if len(names) == 0 {
			t.Errorf("%s: no flag definitions found — extractor regex out of date?", cmd)
		}
	}
}

// flagRowRE captures the first cell of a README table row that names
// flags: a row starting with a backticked -name.
var flagRowRE = regexp.MustCompile("(?m)^\\|\\s*(`-[^|]*)\\|")

// flagNameRE captures the name of each backticked -name in a cell
// (`-churn N` names -churn).
var flagNameRE = regexp.MustCompile("`-([A-Za-z0-9][A-Za-z0-9-]*)")

// TestREADMEFlagRowsExist is the reverse of TestREADMEFlagCoverage:
// every flag a README flag-table row names must be defined by some
// binary under cmd/, so deleting a flag without its row breaks the
// docs job too.
func TestREADMEFlagRowsExist(t *testing.T) {
	root := repoRoot(t)
	raw, err := os.ReadFile(filepath.Join(root, "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	cmds, err := os.ReadDir(filepath.Join(root, "cmd"))
	if err != nil {
		t.Fatal(err)
	}
	defined := make(map[string]bool)
	for _, c := range cmds {
		if c.IsDir() {
			for _, name := range definedFlags(t, filepath.Join(root, "cmd", c.Name())) {
				defined[name] = true
			}
		}
	}
	rows := flagRowRE.FindAllStringSubmatch(string(raw), -1)
	if len(rows) == 0 {
		t.Fatal("no flag-table rows found in README.md — row regex out of date?")
	}
	for _, row := range rows {
		for _, m := range flagNameRE.FindAllStringSubmatch(row[1], -1) {
			if !defined[m[1]] {
				t.Errorf("README.md flag table names -%s, which no cmd/ binary defines", m[1])
			}
		}
	}
}

// TestInternalPackageGuide fails if a directory under internal/ has no
// bold entry (**`name`**) in internal/README.md, the package guide: a
// package added without one is invisible to the one-screen orientation.
func TestInternalPackageGuide(t *testing.T) {
	root := repoRoot(t)
	guide, err := os.ReadFile(filepath.Join(root, "internal", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(filepath.Join(root, "internal"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() && !strings.Contains(string(guide), "**`"+e.Name()+"`**") {
			t.Errorf("internal/README.md has no **`%s`** entry", e.Name())
		}
	}
}
