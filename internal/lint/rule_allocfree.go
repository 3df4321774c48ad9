package lint

// checkAllocfree proves the annotated hot paths allocation-free. A function
// carrying `//cts:allocfree` in its doc comment is a root; every function
// reachable from a root through the call graph must contain no allocating
// construct — make/new/append, string concatenation and conversions,
// composite literals, map writes, closure creation, interface boxing,
// variadic argument slices — and no call into code the analysis cannot see
// (stdlib bodies, dynamic calls) unless the reviewed assume list vouches for
// it. Each finding carries the call chain from the root so the fix site is
// obvious even three frames down.
//
// The serving hot path justifies the strictness: the timeserve edge serves
// over a million queries per second (DESIGN.md §7), where one allocation per
// datagram is a GC death sentence, and core.LeaseRead is the per-query clock
// read every datagram performs.

import (
	"go/token"
	"strings"
)

// checkAllocfree walks the shared graph from every annotated root.
func checkAllocfree(g *Graph) []Finding {
	var out []Finding
	out = append(out, checkRequiredRoots(g)...)

	type siteKey struct {
		pos  token.Pos
		desc string
	}
	reported := make(map[siteKey]bool)
	report := func(n *FuncNode, chain []string, s site) {
		k := siteKey{s.pos, s.desc}
		if reported[k] {
			return
		}
		reported[k] = true
		f := Finding{
			Rule:  "allocfree",
			Pos:   g.position(s.pkg, s.pos),
			Scope: s.pkg.scopeOf(s.pos),
			Msg:   s.desc + " on allocfree path (chain: " + strings.Join(chain, " → ") + ")",
		}
		out = append(out, f)
	}

	// Per-root BFS. visited is global across roots: a function reachable from
	// two roots reports its sites once, attributed to the first root in
	// declaration order (sites are deduplicated by position anyway).
	visited := make(map[*FuncNode]bool)
	for _, root := range g.funcs {
		if !root.allocFree {
			continue
		}
		type item struct {
			n     *FuncNode
			chain []string
		}
		queue := []item{{root, []string{root.name}}}
		for len(queue) > 0 {
			it := queue[0]
			queue = queue[1:]
			if visited[it.n] {
				continue
			}
			visited[it.n] = true
			sum := it.n.sum
			for _, s := range sum.allocs {
				report(it.n, it.chain, s)
			}
			for _, s := range sum.unknowns {
				report(it.n, it.chain, s)
			}
			for _, c := range sum.calls {
				for _, t := range c.targets {
					callee := g.nodeOf(t)
					if callee == nil {
						report(it.n, it.chain, site{c.pkg, c.pos,
							"call of " + t.Name() + " without an analyzable body (assumed to allocate)"})
						continue
					}
					if !visited[callee] {
						queue = append(queue, item{callee, append(append([]string(nil), it.chain...), callee.name)})
					}
				}
			}
		}
	}
	return out
}

// checkRequiredRoots enforces Config.AllocfreeRequire: the named functions
// must exist and carry the //cts:allocfree annotation whenever their package
// is part of the analyzed tree. This stops the annotation from silently
// disappearing in a refactor — the rule would then pass vacuously.
func checkRequiredRoots(g *Graph) []Finding {
	var out []Finding
	for _, req := range g.cfg.AllocfreeRequire {
		var pkg *Package
		for _, p := range g.pkgs {
			if hasAnySuffix(p.Path, []string{req.PkgSuffix}) {
				pkg = p
				break
			}
		}
		if pkg == nil {
			continue // package not in this load (corpus runs)
		}
		var node *FuncNode
		for _, n := range g.funcs {
			if n.pkg == pkg && scopeName(n.decl) == req.Func {
				node = n
				break
			}
		}
		switch {
		case node == nil:
			out = append(out, Finding{
				Rule:  "allocfree",
				Pos:   g.position(pkg, pkg.Files[0].Pos()),
				Scope: "-",
				Msg:   "required allocfree root " + req.Func + " not found in " + pkg.Path,
			})
		case !node.allocFree:
			out = append(out, Finding{
				Rule:  "allocfree",
				Pos:   g.position(pkg, node.decl.Pos()),
				Scope: scopeName(node.decl),
				Msg:   "required allocfree root " + req.Func + " is missing its //cts:allocfree annotation",
			})
		}
	}
	return out
}
