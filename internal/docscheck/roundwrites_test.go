package docscheck

import (
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"path/filepath"
	"testing"
)

// TestRoundLifecycleWritesInRoundGo holds the back-end's one door into
// a round's lifecycle: in non-test internal/backend code only round.go
// may set a round's sealed or closed flag, write retiredBelow[…], add
// to the rounds map (rounds[…] =) or delete from it. A write anywhere
// else is a second path that can open, seal, close or retire a round
// without the checks round.go makes.
func TestRoundLifecycleWritesInRoundGo(t *testing.T) {
	dir := filepath.Join(repoRoot(t), "internal", "backend")
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range bp.GoFiles {
		if name == "round.go" {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, pos := range lifecycleWrites(f) {
			t.Errorf("%s: round lifecycle write outside round.go", fset.Position(pos))
		}
	}
}

// lifecycleWrites returns the position of every assignment to a .sealed
// or .closed field or to an element of a .retiredBelow or .rounds map,
// and of every delete from a .rounds map, in f.
func lifecycleWrites(f *ast.File) []token.Pos {
	var out []token.Pos
	isWrite := func(e ast.Expr) bool {
		switch v := e.(type) {
		case *ast.SelectorExpr:
			return v.Sel.Name == "sealed" || v.Sel.Name == "closed"
		case *ast.IndexExpr:
			sel, ok := v.X.(*ast.SelectorExpr)
			return ok && (sel.Sel.Name == "retiredBelow" || sel.Sel.Name == "rounds")
		}
		return false
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				if isWrite(lhs) {
					out = append(out, lhs.Pos())
				}
			}
		case *ast.IncDecStmt:
			if isWrite(s.X) {
				out = append(out, s.X.Pos())
			}
		case *ast.CallExpr:
			if id, ok := s.Fun.(*ast.Ident); ok && id.Name == "delete" && len(s.Args) > 0 {
				if sel, ok := s.Args[0].(*ast.SelectorExpr); ok && sel.Sel.Name == "rounds" {
					out = append(out, s.Pos())
				}
			}
		}
		return true
	})
	return out
}
