package lint

// summary.go computes per-function summaries for the interprocedural rules.
// It is the one held-lock walker in the suite: a statement-ordered,
// flow-insensitive walk of each body tracking the set of held mutexes
// (Lock/RLock adds the receiver's lock class, Unlock/RUnlock removes it, a
// deferred unlock holds to the end of the function) while recording
//
//   - allocation sites: make/new/append, string concatenation and
//     conversions, slice/map literals, &composite literals, map writes,
//     closures and method values, go statements, defers inside loops,
//     variadic argument slices, and interface boxing at resolved calls;
//   - call sites with their resolved targets and the locks held;
//   - calls into unknown code (reported conservatively by allocfree);
//   - lock acquisitions with the locks already held (order edges);
//   - blocking operations with the locks held (lockorder hazards): channel
//     sends and receives, range over a channel, select without default,
//     time.Sleep, net calls, Wait() and sync.Cond Broadcasts.
//
// Function literals are summarized as separate anonymous bodies with an
// empty held set (they run in an unknown context, not at creation time);
// their creation is an allocation site in the enclosing function.

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"sort"
)

// site is one allocation or unknown-call site.
type site struct {
	pkg  *Package
	pos  token.Pos
	desc string
}

// callEvent is one resolved call with the lock context it runs under.
type callEvent struct {
	pkg      *Package
	pos      token.Pos
	targets  []*types.Func
	held     []string
	deferred bool
}

// acquireEvent is one mutex acquisition and the locks already held.
type acquireEvent struct {
	pkg   *Package
	pos   token.Pos
	class string
	held  []string
}

// blockEvent is one operation that must not run under a mutex: it parks the
// goroutine (channel op, blocking select, Sleep, net I/O, Wait) or wakes
// waiters into a mutex the caller still holds (sync.Cond Broadcast).
type blockEvent struct {
	pkg  *Package
	pos  token.Pos
	desc string
	held []string
}

// summary is everything the interprocedural rules need from one body.
type summary struct {
	name     string
	allocs   []site
	unknowns []site
	calls    []callEvent
	acquires []acquireEvent
	blocks   []blockEvent
	// releases are the lock classes the body unlocks without having locked
	// them: a callee like sim.Kernel.runLocked that its caller enters
	// holding the lock, and that releases it before doing anything else.
	releases map[string]bool
}

// summarize walks one declared function.
func summarize(g *Graph, n *FuncNode) *summary {
	w := &bodyWalker{g: g, p: n.pkg, sum: &summary{name: n.name}, held: map[string]token.Pos{}, scope: scopeName(n.decl)}
	w.block(n.decl.Body)
	return w.sum
}

// summarizeLit walks one function literal as an anonymous body.
func summarizeLit(g *Graph, p *Package, parent string, lit *ast.FuncLit) *summary {
	w := &bodyWalker{g: g, p: p, sum: &summary{name: parent + "$lit"}, held: map[string]token.Pos{}, scope: parent}
	w.block(lit.Body)
	return w.sum
}

type bodyWalker struct {
	g        *Graph
	p        *Package
	sum      *summary
	scope    string
	held     map[string]token.Pos
	loopDep  int
	deferred bool // scanning a deferred call's own expression
}

func (w *bodyWalker) heldList() []string {
	if len(w.held) == 0 {
		return nil
	}
	out := make([]string, 0, len(w.held))
	for c := range w.held {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

func (w *bodyWalker) alloc(n ast.Node, desc string) {
	w.sum.allocs = append(w.sum.allocs, site{w.p, n.Pos(), desc})
}

func (w *bodyWalker) unknown(n ast.Node, desc string) {
	w.sum.unknowns = append(w.sum.unknowns, site{w.p, n.Pos(), desc})
}

func (w *bodyWalker) blockOp(n ast.Node, desc string, held []string) {
	w.sum.blocks = append(w.sum.blocks, blockEvent{w.p, n.Pos(), desc, held})
}

// lockOp classifies x.Lock()/x.RLock()/x.Unlock()/x.RUnlock(), returning the
// canonical lock class of the receiver.
func (w *bodyWalker) lockOp(call *ast.CallExpr) (class string, acquire, release bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || len(call.Args) != 0 {
		return "", false, false
	}
	if id, ok := sel.X.(*ast.Ident); ok {
		if _, isPkg := w.p.Info.Uses[id].(*types.PkgName); isPkg {
			return "", false, false
		}
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		return w.lockClass(sel.X), true, false
	case "Unlock", "RUnlock":
		return w.lockClass(sel.X), false, true
	}
	return "", false, false
}

// lockClass canonicalizes a mutex expression to a cross-package identity so
// order edges observed in different functions meet in one graph:
//
//	s.mu         field of a named type        → "core.TimeService.mu"
//	pkgVar       package-level variable       → "core.registryMu"
//	local        function-local variable      → "core.Func$mu" (per function)
//	otherwise    printed expression, package-scoped
//
// Distinct instances of one class are deliberately merged: a lock order
// must hold for the *class*, or two instances taken in both orders by two
// goroutines deadlock just the same.
func (w *bodyWalker) lockClass(x ast.Expr) string {
	x = ast.Unparen(x)
	pkg := w.p.Types.Name()
	if sel, ok := x.(*ast.SelectorExpr); ok {
		if s := w.p.Info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
			if named := namedOf(s.Recv()); named != "" {
				return named + "." + sel.Sel.Name
			}
		}
		if id, ok := sel.X.(*ast.Ident); ok {
			if pn, ok := w.p.Info.Uses[id].(*types.PkgName); ok {
				return pn.Imported().Name() + "." + sel.Sel.Name
			}
		}
	}
	if id, ok := x.(*ast.Ident); ok {
		if obj := w.p.Info.Uses[id]; obj != nil && obj.Parent() == w.p.Types.Scope() {
			return pkg + "." + id.Name
		}
		return pkg + "." + w.scope + "$" + id.Name
	}
	if tv, ok := w.p.Info.Types[x]; ok && tv.Type != nil {
		if named := namedOf(tv.Type); named != "" {
			return named
		}
	}
	return pkg + ":" + types.ExprString(x)
}

// namedOf renders the named type behind t (through pointers) as "pkg.Type".
func namedOf(t types.Type) string {
	for {
		ptr, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	return named.Obj().Pkg().Name() + "." + named.Obj().Name()
}

func (w *bodyWalker) block(b *ast.BlockStmt) {
	if b == nil {
		return
	}
	for _, s := range b.List {
		w.stmt(s)
	}
}

func (w *bodyWalker) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if class, acq, rel := w.lockOp(call); acq || rel {
				if acq {
					w.sum.acquires = append(w.sum.acquires,
						acquireEvent{w.p, call.Pos(), class, w.heldList()})
					w.held[class] = call.Pos()
				} else if _, ok := w.held[class]; ok {
					delete(w.held, class)
				} else {
					if w.sum.releases == nil {
						w.sum.releases = make(map[string]bool)
					}
					w.sum.releases[class] = true
				}
				return
			}
		}
		w.expr(s.X)
	case *ast.DeferStmt:
		if _, _, rel := w.lockOp(s.Call); rel {
			return // deferred unlock: held to the end of the body
		}
		if w.loopDep > 0 {
			w.alloc(s, "defer inside a loop allocates")
		}
		// The deferred call runs at return, typically after unlocks: record
		// the call edge without the current lock context.
		w.deferredCall(s.Call)
	case *ast.GoStmt:
		w.alloc(s, "go statement allocates a goroutine")
		w.exprs(s.Call.Args)
	case *ast.SendStmt:
		w.blockOp(s, "channel send", w.heldList())
		w.expr(s.Chan)
		w.expr(s.Value)
	case *ast.AssignStmt:
		w.assign(s.Lhs, s.Rhs)
	case *ast.IncDecStmt:
		w.mapWrite(s.X)
		w.expr(s.X)
	case *ast.ReturnStmt:
		w.exprs(s.Results)
	case *ast.IfStmt:
		w.stmt(s.Init)
		w.expr(s.Cond)
		w.branch(s.Body)
		if b, ok := s.Else.(*ast.BlockStmt); ok {
			w.branch(b)
		} else {
			w.stmt(s.Else)
		}
	case *ast.ForStmt:
		w.stmt(s.Init)
		if s.Cond != nil {
			w.expr(s.Cond)
		}
		w.loopDep++
		w.stmt(s.Post)
		w.block(s.Body)
		w.loopDep--
	case *ast.RangeStmt:
		if tv, ok := w.p.Info.Types[s.X]; ok && tv.Type != nil {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				w.blockOp(s, "range over channel", w.heldList())
			}
		}
		w.expr(s.X)
		w.loopDep++
		w.block(s.Body)
		w.loopDep--
	case *ast.SelectStmt:
		hasDefault := false
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			w.blockOp(s, "select without default", w.heldList())
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				w.comm(cc.Comm)
				for _, bs := range cc.Body {
					w.stmt(bs)
				}
			}
		}
	case *ast.SwitchStmt:
		w.stmt(s.Init)
		if s.Tag != nil {
			w.expr(s.Tag)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.exprs(cc.List)
				for _, bs := range cc.Body {
					w.stmt(bs)
				}
			}
		}
	case *ast.TypeSwitchStmt:
		w.stmt(s.Init)
		w.stmt(s.Assign)
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, bs := range cc.Body {
					w.stmt(bs)
				}
			}
		}
	case *ast.BlockStmt:
		w.block(s)
	case *ast.LabeledStmt:
		w.stmt(s.Stmt)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					w.exprs(vs.Values)
				}
			}
		}
	}
}

// branch walks one arm of an if. An arm that ends in a return does not fall
// through, so the locks it releases (the early-return unlock of
// `mu.Lock(); if closed { mu.Unlock(); return }`) are still held after it.
func (w *bodyWalker) branch(b *ast.BlockStmt) {
	if n := len(b.List); n > 0 {
		if _, ok := b.List[n-1].(*ast.ReturnStmt); ok {
			held := maps.Clone(w.held)
			w.block(b)
			w.held = held
			return
		}
	}
	w.block(b)
}

func (w *bodyWalker) assign(lhs, rhs []ast.Expr) {
	for _, e := range lhs {
		w.mapWrite(e)
	}
	w.exprs(rhs)
	w.exprs(lhs)
}

// mapWrite records an assignment target that writes a map entry.
func (w *bodyWalker) mapWrite(e ast.Expr) {
	ix, ok := ast.Unparen(e).(*ast.IndexExpr)
	if !ok {
		return
	}
	if tv, ok := w.p.Info.Types[ix.X]; ok && tv.Type != nil {
		if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
			w.alloc(e, "map write may allocate")
		}
	}
}

// comm walks one select case's communication. The select statement is the
// blocking event (unless it has a default), so the case's send or receive
// is not one: only its operands are scanned. Otherwise a non-blocking poll
// would read as a receive at every caller holding a lock.
func (w *bodyWalker) comm(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.SendStmt:
		w.expr(s.Chan)
		w.expr(s.Value)
	case *ast.ExprStmt:
		w.expr(recvOperand(s.X))
	case *ast.AssignStmt:
		w.assign(s.Lhs, []ast.Expr{recvOperand(s.Rhs[0])})
	}
}

// recvOperand strips the receive from a select case's <-ch.
func recvOperand(e ast.Expr) ast.Expr {
	if u, ok := ast.Unparen(e).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
		return u.X
	}
	return e
}

// deferredCall records a deferred (non-unlock) call: its arguments evaluate
// now, the call itself runs at return with no lock context assumed.
func (w *bodyWalker) deferredCall(call *ast.CallExpr) {
	w.exprs(call.Args)
	w.handleCall(call, nil, true)
}

func (w *bodyWalker) exprs(es []ast.Expr) {
	for _, e := range es {
		w.expr(e)
	}
}

// expr scans one expression tree for allocation sites, calls, channel
// receives, closures, and method values.
func (w *bodyWalker) expr(e ast.Expr) {
	if e == nil {
		return
	}
	funs := map[ast.Expr]bool{} // call Fun nodes: not method values
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			w.alloc(n, "function literal allocates a closure")
			w.g.anon = append(w.g.anon, summarizeLit(w.g, w.p, w.sum.name, n))
			return false
		case *ast.CallExpr:
			funs[ast.Unparen(n.Fun)] = true
			w.handleCall(n, w.heldList(), false)
			return true
		case *ast.SelectorExpr:
			if !funs[n] {
				if s := w.p.Info.Selections[n]; s != nil && s.Kind() == types.MethodVal {
					w.alloc(n, "method value allocates its bound receiver")
				}
			}
		case *ast.UnaryExpr:
			switch n.Op {
			case token.ARROW:
				w.blockOp(n, "channel receive", w.heldList())
			case token.AND:
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					w.alloc(n, "&composite literal escapes to the heap")
					// Still descend for nested allocs inside the literal.
				}
			}
		case *ast.CompositeLit:
			if tv, ok := w.p.Info.Types[n]; ok && tv.Type != nil {
				switch tv.Type.Underlying().(type) {
				case *types.Slice:
					w.alloc(n, "slice literal allocates")
				case *types.Map:
					w.alloc(n, "map literal allocates")
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				if tv, ok := w.p.Info.Types[n]; ok && tv.Type != nil && tv.Value == nil {
					if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
						w.alloc(n, "string concatenation allocates")
					}
				}
			}
		}
		return true
	})
}

// handleCall classifies one call site. Lock method calls reaching here via
// expression context (rare: lock ops inside larger expressions) are treated
// as ordinary unresolved-but-assumed calls by the classifier.
func (w *bodyWalker) handleCall(call *ast.CallExpr, held []string, deferred bool) {
	if desc := w.blockingCall(call); desc != "" {
		w.blockOp(call, desc, held)
	}
	c := w.g.classifyCall(w.p, call)
	switch c.class {
	case callResolved:
		w.sum.calls = append(w.sum.calls, callEvent{w.p, call.Pos(), c.targets, held, deferred})
		w.checkArgBoxing(call, c.targets)
	case callAllocates:
		w.alloc(call, c.desc)
	case callUnknown:
		w.unknown(call, c.desc)
	}
}

// blockingCall describes the call if it must not run under a mutex, else
// returns "": time.Sleep and any net call (resolved through the package
// name, so renamed imports count and shadowing locals do not), and an
// argument-less x.Wait() or x.Broadcast() — the WaitGroup/Cond wait that
// parks, and the Cond wakeup that, issued under the lock, stampedes every
// waiter into a mutex they cannot take. A module method of either name has
// a declaration the call chain analyzes instead.
func (w *bodyWalker) blockingCall(call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	if id, ok := sel.X.(*ast.Ident); ok {
		if pn, ok := w.p.Info.Uses[id].(*types.PkgName); ok {
			switch path := pn.Imported().Path(); {
			case path == "time" && sel.Sel.Name == "Sleep":
				return "time.Sleep"
			case path == "net":
				return "net." + sel.Sel.Name + " call"
			}
			return ""
		}
	}
	if len(call.Args) != 0 {
		return ""
	}
	if s := w.p.Info.Selections[sel]; s != nil && s.Kind() == types.MethodVal {
		if fn, ok := s.Obj().(*types.Func); ok && w.g.nodeOf(fn) != nil {
			return ""
		}
	}
	switch sel.Sel.Name {
	case "Wait":
		return types.ExprString(sel) + "() call"
	case "Broadcast":
		return "sync.Cond.Broadcast"
	}
	return ""
}

// checkArgBoxing flags interface boxing and variadic slice construction at
// calls with resolved module signatures.
func (w *bodyWalker) checkArgBoxing(call *ast.CallExpr, targets []*types.Func) {
	if len(targets) == 0 {
		return
	}
	sig, ok := targets[0].Type().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	np := params.Len()
	if sig.Variadic() && call.Ellipsis == token.NoPos && len(call.Args) >= np {
		if len(call.Args) > np-1 {
			w.alloc(call, "variadic call allocates its argument slice")
		}
	}
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case i < np-1 || (i < np && !sig.Variadic()):
			pt = params.At(i).Type()
		case sig.Variadic() && call.Ellipsis == token.NoPos:
			if sl, ok := params.At(np - 1).Type().(*types.Slice); ok {
				pt = sl.Elem()
			}
		case i < np:
			pt = params.At(i).Type()
		}
		if pt == nil || !types.IsInterface(pt) {
			continue
		}
		tv, ok := w.p.Info.Types[arg]
		if !ok || tv.Type == nil || types.IsInterface(tv.Type) || isNilIdent(arg) {
			continue
		}
		if _, isPtr := tv.Type.Underlying().(*types.Pointer); isPtr {
			continue
		}
		w.alloc(arg, "interface boxing of argument")
	}
}
