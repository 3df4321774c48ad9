package lint

// callgraph.go is the interprocedural analysis substrate: a call graph over
// go/types covering every package Load returned, with per-function summaries
// (allocation sites, lock acquisitions, blocking operations, calls into
// unknown code) computed in one pass per function body. The allocfree and
// lockorder rules are whole-path properties — "does anything reachable from
// Server.serveLoop allocate?", "can these two mutexes be taken in both
// orders?" — that the single-function rules structurally cannot answer.
//
// Resolution tiers (DESIGN.md §8 documents the soundness trade-offs):
//
//   - static calls: package-level functions and methods on concrete module
//     types resolve through go/types to their declarations.
//   - interface dispatch: a call through a module interface fans out to
//     every module type whose method set implements it (types.Implements),
//     bounded by dispatchBound; beyond the bound the call is treated as
//     unknown.
//   - stdlib calls: Load resolves the standard library to synthetic empty
//     packages, so stdlib calls have no bodies. A small reviewed assume
//     list (allocfreeAssume) marks the ones the hot path needs
//     (binary.BigEndian puts, typed atomics, time.Now); everything else is
//     "unknown code", which allocfree reports conservatively.
//   - dynamic calls (func values, method values) are unknown.
//
// Known unsoundness, deliberately accepted: function literals are analyzed
// as their own anonymous bodies for lock discipline but are not linked as
// callees (their invocation context is unknowable without pointer analysis);
// allocfree instead flags closure *creation* on the hot path, which subsumes
// the problem for the alloc-free property.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"sync/atomic"
)

// graphBuilds counts BuildGraph invocations so tests can assert the graph is
// built once per Run and shared by every interprocedural rule.
var graphBuilds atomic.Int64

// GraphBuilds reports how many times a call graph has been constructed in
// this process. The single-build test asserts the delta across one Run.
func GraphBuilds() int64 { return graphBuilds.Load() }

// FuncNode is one declared function or method in the analyzed module.
type FuncNode struct {
	fn        *types.Func
	pkg       *Package
	decl      *ast.FuncDecl
	name      string // display name: "pkg.Recv.Name" or "pkg.Name"
	allocFree bool   // carries the //cts:allocfree annotation
	sum       *summary

	// Tarjan bookkeeping for the SCC pass.
	index, lowlink int
	onStack        bool
}

// Graph is the module call graph plus everything the interprocedural rules
// share: per-function summaries, anonymous function-literal summaries, and
// bottom-up SCC order.
type Graph struct {
	pkgs  []*Package
	cfg   Config
	nodes map[*types.Func]*FuncNode
	funcs []*FuncNode // deterministic (package, position) order
	anon  []*summary  // function-literal bodies, lock events only
	named []*types.Named
	sccs  [][]*FuncNode // callees before callers

	dispatchCache map[dispatchKey][]*types.Func
}

// dispatchBound caps interface-dispatch fan-out in the call graph; beyond
// it a call is treated as unknown code.
const dispatchBound = 12

// allocfreeAssume is the reviewed list of unanalyzable (stdlib/dynamic)
// calls allocfree trusts not to allocate. Entries: exact rendered call
// ("time.Now"), "pkg.Recv." prefix wildcard ("binary.BigEndian."), or a
// bare method name matched against any receiver ("Load").
var allocfreeAssume = []string{
	// Exact stdlib calls the hot path is allowed to make.
	"time.Now",
	"errors.Is",
	// Prefix wildcards: the whole binary.BigEndian/LittleEndian put/get
	// families are value-level.
	"binary.BigEndian.",
	"binary.LittleEndian.",
	// Bare method names: receivers are synthetic stdlib types (typed atomic
	// fields, net.PacketConn, time.Time) the checker cannot resolve. All
	// reviewed as non-allocating.
	"Load",
	"Store",
	"Add",
	"Swap",
	"CompareAndSwap",
	"ReadFrom",
	"WriteTo",
	"ReadFromUDP",
	"WriteToUDP",
	// syscall.RawConn dispatch in the batched serve loop: Read/Write invoke
	// a pre-built closure over the raw fd and park on the netpoller; neither
	// allocates in steady state. Keyed to the rendered receiver so unrelated
	// Read/Write calls stay flagged.
	"rc.Read",
	"rc.Write",
	"UnixNano",
	"Nanoseconds",
	"Seconds",
	"Milliseconds",
	"Microseconds",
	"Done",
}

type dispatchKey struct {
	iface  *types.Interface
	method string
}

// BuildGraph constructs the shared substrate over pkgs. Rules obtain it
// lazily through Run so one build serves every enabled interprocedural rule.
func BuildGraph(pkgs []*Package, cfg Config) *Graph {
	graphBuilds.Add(1)
	g := &Graph{
		pkgs:          pkgs,
		cfg:           cfg,
		nodes:         make(map[*types.Func]*FuncNode),
		dispatchCache: make(map[dispatchKey][]*types.Func),
	}

	// Collect named types (for interface dispatch) and function nodes.
	for _, p := range pkgs {
		scope := p.Types.Scope()
		for _, nm := range scope.Names() {
			if tn, ok := scope.Lookup(nm).(*types.TypeName); ok {
				if named, ok := tn.Type().(*types.Named); ok {
					g.named = append(g.named, named)
				}
			}
		}
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, _ := p.Info.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				g.nodes[obj] = &FuncNode{
					fn:        obj,
					pkg:       p,
					decl:      fd,
					name:      displayName(p, fd),
					allocFree: allocFreeAnnotated(fd),
				}
			}
		}
	}
	for _, n := range g.nodes {
		g.funcs = append(g.funcs, n)
	}
	sort.Slice(g.funcs, func(i, j int) bool {
		a, b := g.funcs[i], g.funcs[j]
		if a.pkg.Path != b.pkg.Path {
			return a.pkg.Path < b.pkg.Path
		}
		return a.decl.Pos() < b.decl.Pos()
	})

	// Summarize every body, then order SCCs bottom-up for the rules that
	// need transitive closures.
	for _, n := range g.funcs {
		n.sum = summarize(g, n)
	}
	// Package-level literals (var f = func() {...}) have no enclosing body;
	// summarize them as anonymous bodies too.
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				if gd, ok := d.(*ast.GenDecl); ok {
					ast.Inspect(gd, func(n ast.Node) bool {
						lit, ok := n.(*ast.FuncLit)
						if ok {
							g.anon = append(g.anon, summarizeLit(g, p, pkgName(p), lit))
						}
						return !ok
					})
				}
			}
		}
	}
	g.buildSCCs()
	return g
}

// displayName renders a function's cross-package name: the package name
// (last import-path element for main packages), the receiver type if any,
// and the function name — "timeserve.Server.serveLoop".
func displayName(p *Package, fd *ast.FuncDecl) string {
	return pkgName(p) + "." + scopeName(fd)
}

// pkgName is the package qualifier of display names: the package name, or
// the last import-path element for main packages.
func pkgName(p *Package) string {
	if name := p.Types.Name(); name != "main" {
		return name
	}
	return p.Path[strings.LastIndex(p.Path, "/")+1:]
}

// scopeName is displayName without the package qualifier, matching
// Finding.Scope ("Server.serveLoop").
func scopeName(fd *ast.FuncDecl) string {
	name := fd.Name.Name
	if fd.Recv != nil && len(fd.Recv.List) == 1 {
		if t := receiverTypeName(fd.Recv.List[0].Type); t != "" {
			name = t + "." + name
		}
	}
	return name
}

// allocFreeAnnotated reports whether the declaration carries a
// `//cts:allocfree` directive in its doc comment.
func allocFreeAnnotated(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.HasPrefix(strings.TrimPrefix(c.Text, "//"), "cts:allocfree") {
			return true
		}
	}
	return false
}

// nodeOf maps a resolved callee to its graph node; nil for functions without
// an analyzable body in the module.
func (g *Graph) nodeOf(fn *types.Func) *FuncNode { return g.nodes[fn] }

// callClass is the outcome of resolving one call expression.
type callClass int

const (
	callResolved  callClass = iota // targets hold module declarations
	callAssumed                    // trusted not to allocate (assume list, free conversion, safe builtin)
	callAllocates                  // the construct itself allocates (desc explains)
	callUnknown                    // unanalyzable; allocfree reports it (desc explains)
)

// classified is one resolved call site.
type classified struct {
	class   callClass
	targets []*types.Func
	desc    string
}

// classifyCall resolves one CallExpr against the module, the dispatch
// machinery, and the allocfree assume list.
func (g *Graph) classifyCall(p *Package, call *ast.CallExpr) classified {
	fun := ast.Unparen(call.Fun)
	// Generic instantiation: f[T](...) — unwrap to the identifier.
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(ix.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(ix.X)
	}

	switch fn := fun.(type) {
	case *ast.Ident:
		switch obj := p.Info.Uses[fn].(type) {
		case *types.Builtin:
			return g.classifyBuiltin(fn.Name)
		case *types.Func:
			return classified{class: callResolved, targets: []*types.Func{obj}}
		case *types.TypeName:
			return g.classifyConversion(p, call)
		case *types.Var:
			return classified{class: callUnknown, desc: "dynamic call of " + fn.Name}
		case *types.Nil:
		}
		return classified{class: callUnknown, desc: "unresolved call of " + fn.Name}

	case *ast.SelectorExpr:
		if sel := p.Info.Selections[fn]; sel != nil {
			switch sel.Kind() {
			case types.MethodVal, types.MethodExpr:
				m := sel.Obj().(*types.Func)
				if recv := sel.Recv(); recv != nil && types.IsInterface(recv) {
					iface, _ := recv.Underlying().(*types.Interface)
					if iface != nil {
						if targets, ok := g.dispatch(iface, m.Name()); ok {
							return classified{class: callResolved, targets: targets}
						}
						return classified{class: callUnknown,
							desc: "interface call " + types.ExprString(fn) + " exceeds dispatch bound"}
					}
				}
				return classified{class: callResolved, targets: []*types.Func{m}}
			case types.FieldVal:
				return g.classifyUnresolved(fn, "dynamic call of field "+types.ExprString(fn))
			}
		}
		// Package-qualified selector: module package, stdlib, or a type
		// conversion (time.Duration(x)).
		if id, ok := fn.X.(*ast.Ident); ok {
			if pn, ok := p.Info.Uses[id].(*types.PkgName); ok {
				return g.classifyQualified(p, call, pn, fn.Sel.Name)
			}
		}
		return g.classifyUnresolved(fn, "")

	case *ast.ArrayType, *ast.MapType, *ast.ChanType, *ast.StarExpr, *ast.InterfaceType, *ast.StructType, *ast.FuncType:
		return g.classifyConversion(p, call)

	case *ast.FuncLit:
		// Immediately-invoked literal: creation is flagged separately as a
		// closure site; the invocation itself resolves nowhere.
		return classified{class: callAssumed}
	}
	return classified{class: callUnknown, desc: "unresolved call " + types.ExprString(call.Fun)}
}

// classifyQualified handles pkg.Name(...) for a resolved package qualifier.
func (g *Graph) classifyQualified(p *Package, call *ast.CallExpr, pn *types.PkgName, name string) classified {
	imported := pn.Imported()
	qual := imported.Name() + "." + name
	if obj := imported.Scope().Lookup(name); obj != nil {
		switch obj := obj.(type) {
		case *types.Func:
			return classified{class: callResolved, targets: []*types.Func{obj}}
		case *types.TypeName:
			return g.classifyConversion(p, call)
		case *types.Var:
			return classified{class: callUnknown, desc: "dynamic call of " + qual}
		}
	}
	// Synthetic (stdlib) package: no scope entries. Consult the reviewed
	// lists: time.Duration, the one stdlib value-type conversion the hot
	// path makes, then the assume list.
	if qual == "time.Duration" || assumed(qual) {
		return classified{class: callAssumed}
	}
	return classified{class: callUnknown,
		desc: "call into unanalyzed " + qual + " (assumed to allocate)"}
}

// classifyUnresolved handles method calls whose receiver type is unknown
// (stdlib interfaces, atomics, fields of synthetic types). The assume list
// may vouch for the rendered call or the bare method name.
func (g *Graph) classifyUnresolved(sel *ast.SelectorExpr, fallback string) classified {
	rendered := types.ExprString(sel)
	if assumed(rendered) || assumed(sel.Sel.Name) {
		return classified{class: callAssumed}
	}
	desc := fallback
	if desc == "" {
		desc = "call into unanalyzed " + rendered + " (assumed to allocate)"
	}
	return classified{class: callUnknown, desc: desc}
}

// assumed consults allocfreeAssume: exact rendered match, "pkg."
// prefix wildcard, or bare method name (entries without a dot).
func assumed(rendered string) bool {
	last := rendered[strings.LastIndex(rendered, ".")+1:]
	for _, a := range allocfreeAssume {
		switch {
		case strings.HasSuffix(a, "."):
			if strings.HasPrefix(rendered, a) {
				return true
			}
		case !strings.Contains(a, "."):
			if rendered == a || last == a {
				return true
			}
		default:
			if rendered == a {
				return true
			}
		}
	}
	return false
}

// classifyBuiltin maps builtin calls: make/new allocate, append may grow,
// everything else is value-level.
func (g *Graph) classifyBuiltin(name string) classified {
	switch name {
	case "make":
		return classified{class: callAllocates, desc: "make allocates"}
	case "new":
		return classified{class: callAllocates, desc: "new allocates"}
	case "append":
		return classified{class: callAllocates, desc: "append may grow its backing array"}
	}
	return classified{class: callAssumed}
}

// classifyConversion decides whether a type conversion allocates: string ↔
// byte/rune slices do, interface targets box, numeric and struct-value
// conversions are free. Invalid types (synthetic stdlib) default to free.
func (g *Graph) classifyConversion(p *Package, call *ast.CallExpr) classified {
	if len(call.Args) != 1 {
		return classified{class: callAssumed}
	}
	tv, ok := p.Info.Types[call.Fun]
	if !ok || tv.Type == nil {
		return classified{class: callAssumed}
	}
	target := tv.Type
	arg := call.Args[0]
	argT := types.Type(nil)
	argConst := false
	if atv, ok := p.Info.Types[arg]; ok {
		argT = atv.Type
		argConst = atv.Value != nil
	}
	switch under := target.Underlying().(type) {
	case *types.Basic:
		if under.Info()&types.IsString != 0 && !argConst {
			if argT == nil || !isStringish(argT) {
				return classified{class: callAllocates, desc: "conversion to string allocates"}
			}
		}
	case *types.Slice:
		if argConst || (argT != nil && isStringish(argT)) {
			return classified{class: callAllocates, desc: "conversion from string to slice allocates"}
		}
	case *types.Interface:
		if argT != nil && !types.IsInterface(argT) {
			if _, ptr := argT.Underlying().(*types.Pointer); !ptr && !isNilIdent(arg) {
				return classified{class: callAllocates, desc: "conversion to interface boxes its operand"}
			}
		}
	}
	return classified{class: callAssumed}
}

func isStringish(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsString|types.IsUntyped) != 0
}

func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// dispatch fans an interface method call out to every module implementation,
// bounded by dispatchBound. ok=false means the bound was exceeded (or
// no implementation was found) and the caller must treat the call as unknown.
func (g *Graph) dispatch(iface *types.Interface, method string) ([]*types.Func, bool) {
	key := dispatchKey{iface, method}
	if cached, ok := g.dispatchCache[key]; ok {
		return cached, len(cached) > 0
	}
	var targets []*types.Func
	seen := make(map[*types.Func]bool)
	for _, named := range g.named {
		if types.IsInterface(named) || named.TypeParams().Len() > 0 {
			continue
		}
		ptr := types.NewPointer(named)
		if !types.Implements(ptr, iface) && !types.Implements(named, iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(ptr, true, named.Obj().Pkg(), method)
		if fn, ok := obj.(*types.Func); ok && !seen[fn] {
			seen[fn] = true
			targets = append(targets, fn)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].Pos() < targets[j].Pos() })
	if len(targets) == 0 || len(targets) > dispatchBound {
		g.dispatchCache[key] = nil
		return nil, false
	}
	g.dispatchCache[key] = targets
	return targets, true
}

// buildSCCs runs Tarjan over the resolved call edges. Tarjan emits each
// strongly connected component only after every component it calls into, so
// g.sccs is already in bottom-up (callees-first) order.
func (g *Graph) buildSCCs() {
	index := 1
	var stack []*FuncNode
	var strongconnect func(n *FuncNode)
	strongconnect = func(n *FuncNode) {
		n.index, n.lowlink = index, index
		index++
		stack = append(stack, n)
		n.onStack = true
		for _, c := range n.sum.calls {
			for _, t := range c.targets {
				m := g.nodes[t]
				if m == nil {
					continue
				}
				if m.index == 0 {
					strongconnect(m)
					if m.lowlink < n.lowlink {
						n.lowlink = m.lowlink
					}
				} else if m.onStack && m.index < n.lowlink {
					n.lowlink = m.index
				}
			}
		}
		if n.lowlink == n.index {
			var scc []*FuncNode
			for {
				m := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				m.onStack = false
				scc = append(scc, m)
				if m == n {
					break
				}
			}
			g.sccs = append(g.sccs, scc)
		}
	}
	for _, n := range g.funcs {
		if n.index == 0 {
			strongconnect(n)
		}
	}
}

// position renders a short file:line for cross-references inside messages.
func (g *Graph) position(p *Package, pos token.Pos) token.Position {
	return p.Fset.Position(pos)
}
