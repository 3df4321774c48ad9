package lint

import (
	"go/ast"
	"go/types"
)

// checkMaporder flags map iterations whose visitation order can reach other
// replicas. Go randomizes map iteration per run, so bytes or call sequences
// derived from an unsorted map range differ across replicas processing the
// same ordered event — exactly the "small nondeterministic divergence" that
// breaks active replication (PAPER §2: replicas must be deterministic state
// machines; WALDEN shows clock-sync protocols failing through such drift).
//
// Two shapes are flagged, only in packages that can put bytes on the wire
// (they import the wire/transport layers or are one, per Config):
//
//  1. a map-range body that directly calls a send primitive
//     (Multicast/Broadcast/Send/SendTo) or a wire-package function — the
//     send order itself becomes nondeterministic;
//  2. a map-range body that appends range variables to a slice that is
//     never sorted later in the same function — the collected order leaks
//     to whatever consumes the slice (the sanctioned pattern is
//     collect-then-sort, as in gcs.broadcastGroups).
func checkMaporder(p *Package, cfg Config) []Finding {
	if !p.importsAny(cfg.OrderedImports) && !hasAnySuffix(p.Path, cfg.OrderedPkgSuffixes) {
		return nil
	}
	var out []Finding
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				t, ok := p.Info.Types[rs.X]
				if !ok || t.Type == nil {
					return true
				}
				if _, isMap := t.Type.Underlying().(*types.Map); !isMap {
					return true
				}
				out = append(out, p.mapRangeFindings(f, fd, rs)...)
				return true
			})
		}
	}
	return out
}

var sendMethods = map[string]bool{
	"Multicast": true,
	"Broadcast": true,
	"Send":      true,
	"SendTo":    true,
}

// mapRangeFindings analyzes one map-range statement inside fn.
func (p *Package) mapRangeFindings(f *ast.File, fn *ast.FuncDecl, rs *ast.RangeStmt) []Finding {
	iterVars := map[string]bool{}
	for _, v := range []ast.Expr{rs.Key, rs.Value} {
		if id, ok := v.(*ast.Ident); ok && id.Name != "_" {
			iterVars[id.Name] = true
		}
	}
	if len(iterVars) == 0 {
		return nil // order unobservable without the key/value
	}

	var out []Finding
	appendDests := map[string]ast.Node{} // slice expr → first offending append
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sendMethods[sel.Sel.Name] {
				out = append(out, p.finding("maporder", n,
					"map iteration order reaches a %s call; collect, sort, then send", sel.Sel.Name))
			}
			if fname, ok := p.pkgCall(f, n, "wire"); ok {
				out = append(out, p.finding("maporder", n,
					"map iteration order reaches wire encoding (wire.%s); collect, sort, then encode", fname))
			}
		case *ast.AssignStmt:
			// dest = append(dest, ...iterVar...) collects in map order.
			if len(n.Lhs) != 1 || len(n.Rhs) != 1 {
				return true
			}
			call, ok := n.Rhs[0].(*ast.CallExpr)
			if !ok {
				return true
			}
			if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "append" {
				return true
			}
			usesIter := false
			for _, arg := range call.Args[1:] {
				ast.Inspect(arg, func(an ast.Node) bool {
					if id, ok := an.(*ast.Ident); ok && iterVars[id.Name] {
						usesIter = true
					}
					return true
				})
			}
			if usesIter {
				dest := types.ExprString(n.Lhs[0])
				if _, seen := appendDests[dest]; !seen {
					appendDests[dest] = n
				}
			}
		}
		return true
	})

	for dest, node := range appendDests {
		if !sortedAfter(p, fn, rs, dest) {
			out = append(out, p.finding("maporder", node,
				"map iteration order collected into %s, which is never sorted in %s; sort before it is encoded or sent", dest, fn.Name.Name))
		}
	}
	return out
}

// sortedAfter reports whether fn sorts dest (sort.Slice/sort.Sort/... or a
// slices.Sort* call with dest as first argument) after the range statement.
func sortedAfter(p *Package, fn *ast.FuncDecl, rs *ast.RangeStmt, dest string) bool {
	sorted := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		isSort := pkg.Name == "sort" || pkg.Name == "slices"
		if !isSort {
			return true
		}
		if types.ExprString(call.Args[0]) == dest {
			sorted = true
		}
		return true
	})
	return sorted
}
