package lint

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"
)

// BenchOnly keeps the compatibility surface the benchmark module (bench/)
// compiles against out of production: what a compat.go declares at top
// level, and any declaration whose doc has a paragraph "Deprecated:
// bench/ only" (mapred.Split.Replica), is used only inside those
// declarations — and from tests, which hailint does not load. Each use
// resolves to the object it names, so Split.Replica is told from
// CacheKey.Replica, and a use inside the declaring package counts, which
// staticcheck's SA1019 skips; an object fact carries the mark to
// importers.
var BenchOnly = &Analyzer{
	Name:      "benchonly",
	Doc:       "what a compat.go declares or Deprecated: bench/ only tags is used only from a compat.go",
	Run:       runBenchOnly,
	FactTypes: []Fact{new(benchOnlyFact)},
}

type benchOnlyFact struct{}

func (*benchOnlyFact) AFact() {}

func runBenchOnly(pass *Pass) error {
	var surface []ast.Node // the marked declarations, which may use each other
	mark := func(n ast.Node, compat bool, names []*ast.Ident, docs ...*ast.CommentGroup) {
		for _, doc := range docs {
			compat = compat || doc != nil && strings.Contains("\n"+doc.Text(), "\nDeprecated: bench/ only")
		}
		if !compat {
			return
		}
		surface = append(surface, n)
		for _, id := range names {
			if obj := pass.Info.Defs[id]; obj != nil {
				pass.ExportObjectFact(obj, new(benchOnlyFact))
			}
		}
	}
	for _, f := range pass.Files {
		compat := filepath.Base(pass.Fset.Position(f.Pos()).Filename) == "compat.go"
		for _, decl := range f.Decls {
			ast.Inspect(decl, func(n ast.Node) bool {
				switch d := n.(type) {
				case *ast.FuncDecl:
					mark(d, compat, []*ast.Ident{d.Name}, d.Doc)
					return false
				case *ast.TypeSpec:
					mark(d, compat, []*ast.Ident{d.Name}, d.Doc, decl.(*ast.GenDecl).Doc)
				case *ast.ValueSpec:
					mark(d, compat, d.Names, d.Doc, decl.(*ast.GenDecl).Doc)
				case *ast.Field: // a field is marked by its tag alone
					mark(d, false, d.Names, d.Doc)
				}
				return true
			})
		}
	}
	for id, obj := range pass.Info.Uses {
		if v, ok := obj.(*types.Var); ok {
			obj = v.Origin()
		} else if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
		}
		if !pass.ImportObjectFact(obj, new(benchOnlyFact)) {
			continue
		}
		inside := false
		for _, n := range surface {
			inside = inside || n.Pos() <= id.Pos() && id.Pos() < n.End()
		}
		if !inside {
			pass.Reportf(id.Pos(), "%s is bench/'s compatibility surface: production code outside a compat.go uses its replacement", id.Name)
		}
	}
	return nil
}
