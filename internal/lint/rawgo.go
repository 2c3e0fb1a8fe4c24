package lint

import (
	"go/ast"
	"go/types"
)

// RawGo flags raw concurrency outside the allowed packages (internal/par by
// default): go statements, sync.WaitGroup, and channel construction. All
// parallelism in the solver must flow through the deterministic chunked
// fork-join helpers (par.For / par.ForMin), whose chunk boundaries — and
// therefore results — depend only on n, so they are identical for every
// worker count. A bare goroutine fan-out reintroduces scheduling order
// into results.
var RawGo = &Analyzer{
	Name: "rawgo",
	Doc:  "flag raw concurrency primitives outside internal/par",
	Run:  runRawGo,
}

func runRawGo(p *Pass) {
	if p.InParAllowed() {
		return
	}
	info := p.Pkg.Info
	for _, file := range p.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				p.Reportf(n.Pos(), "go statement outside internal/par: route parallelism through par.For/par.ForMin")
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && n.Sel.Name == "WaitGroup" {
					if pkg, ok := info.Uses[x].(*types.PkgName); ok && pkg.Imported().Path() == "sync" {
						p.Reportf(n.Pos(), "sync.WaitGroup outside internal/par: route parallelism through par.For/par.ForMin")
					}
				}
			case *ast.CallExpr:
				if isBuiltin(info, n.Fun, "make") && len(n.Args) > 0 {
					if t := info.TypeOf(n); t != nil {
						if _, ok := t.Underlying().(*types.Chan); ok {
							p.Reportf(n.Pos(), "channel construction outside internal/par: route fan-out through par.For/par.ForMin")
						}
					}
				}
			}
			return true
		})
	}
}
