package docscheck

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"eyewnder/internal/experiments"
)

// TestREADMEStudyCoverage fails if a study of experiments.Studies is not
// named, backticked, in README.md's eyewnder-eval paragraph (the one
// that opens "`eyewnder-eval <study>"): a study added to the table
// without a line of documentation breaks the docs job.
func TestREADMEStudyCoverage(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(repoRoot(t), "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, para, ok := strings.Cut(string(raw), "\n`eyewnder-eval <study>")
	if !ok {
		t.Fatal("README.md has no paragraph opening \"`eyewnder-eval <study>\"")
	}
	para, _, _ = strings.Cut(para, "\n\n")
	for _, s := range experiments.Studies {
		if !strings.Contains(para, "`"+s.Name+"`") {
			t.Errorf("study %q is not named in README.md's eyewnder-eval paragraph", s.Name)
		}
	}
}

// metricConstructors are the obs.Registry methods that register a
// metric under the name passed as their first argument.
var metricConstructors = map[string]bool{
	"Counter": true, "ShardedCounter": true, "GaugeFunc": true,
	"Histogram": true, "CountHistogram": true,
}

// TestOperationsMetricCoverage fails if a metric that non-test code
// under internal/ or cmd/ registers — an "eyewnder_…" string literal
// passed first to a registry constructor — is not named literally in
// OPERATIONS.md, the metric reference. A family abbreviated in a table
// row (`…_sealed_…`) does not count: each name is written out.
func TestOperationsMetricCoverage(t *testing.T) {
	root := repoRoot(t)
	raw, err := os.ReadFile(filepath.Join(root, "OPERATIONS.md"))
	if err != nil {
		t.Fatal(err)
	}
	ops := string(raw)
	found := 0
	for _, dir := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(filepath.Join(root, dir), func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
			if err != nil {
				return err
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				lit, isLit := call.Args[0].(*ast.BasicLit)
				if !ok || !metricConstructors[sel.Sel.Name] || !isLit || lit.Kind != token.STRING {
					return true
				}
				name, err := strconv.Unquote(lit.Value)
				if err != nil || !strings.HasPrefix(name, "eyewnder_") {
					return true
				}
				found++
				if !strings.Contains(ops, "`"+name+"`") && !strings.Contains(ops, "`"+name+"{") {
					rel, _ := filepath.Rel(root, path)
					t.Errorf("%s registers %s, which OPERATIONS.md never names", rel, name)
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if found == 0 {
		t.Fatal("no metric registrations found — constructor list out of date?")
	}
}
