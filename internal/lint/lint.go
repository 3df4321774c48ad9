// Package lint is ctslint's analysis engine: a stdlib-only (go/ast,
// go/parser, go/types — no x/tools) static-analysis suite enforcing the
// determinism and concurrency invariants the consistent time service depends
// on. The CCS algorithm of PAPER §3 only yields a consistent group clock if
// every replica's clock reads flow through the synchronized offset and
// replicas process ordered events deterministically; these rules turn that
// from review discipline into a machine-checked CI gate.
//
// Rules (each independently toggleable, see DESIGN.md §8 for rationale):
//
//   - allocfree: functions annotated `//cts:allocfree` (the timeserve serve
//     path, core.LeaseRead) must reach no allocating construct through any
//     call chain — interprocedural, built on the callgraph.go substrate.
//   - lockorder: mutex-acquisition order cycles, and no blocking operation
//     (channel send/receive, select without default, Wait, sleeps, net
//     calls) or sync.Cond Broadcast while a mutex is held — in the same
//     body or through any call chain.
//   - notime: direct time.Now/Sleep/After/... calls are banned outside the
//     clock abstraction packages (internal/hwclock, internal/timesource,
//     internal/sim, internal/testutil) and _test.go files.
//   - maporder: map iteration whose results reach wire encoding or multicast
//     send paths unsorted is cross-replica nondeterminism.
//   - atomicmix: a field accessed through sync/atomic functions anywhere must
//     be accessed that way everywhere.
//   - errdrop: error returns on transport/wire encode-decode paths must not
//     be silently discarded by a bare call statement.
//
// Findings carry file:line positions plus the enclosing declaration, so
// intentional exceptions can be pinned in a reviewed lint.allow baseline
// (see Baseline) without being line-number brittle.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"runtime"
	"sort"
	"strings"
	"time"

	"cts/internal/hwclock"
)

// AllRules lists every rule name, in report order.
var AllRules = []string{"allocfree", "atomicmix", "errdrop", "lockorder", "maporder", "notime"}

// Finding is one rule violation.
type Finding struct {
	Rule string
	// Pos locates the offending node.
	Pos token.Position
	// Scope names the enclosing function declaration ("Type.Method" or
	// "Func"), or "-" at package scope. Baseline entries match on it, so
	// exceptions survive unrelated line drift.
	Scope string
	Msg   string
	// Chain is the interprocedural call chain (root first) for findings from
	// graph-based rules; nil for single-function rules.
	Chain []string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s [%s]",
		f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Rule, f.Msg, f.Scope)
}

// Config selects and parameterizes rules. The zero value runs every rule
// with the project defaults.
type Config struct {
	// Rules enables a subset by name; nil or empty enables all.
	Rules map[string]bool

	// NotimeAllowed lists package-path suffixes exempt from notime: the
	// packages that *are* the clock abstraction.
	NotimeAllowed []string

	// OrderedImports and OrderedPkgSuffixes decide which packages maporder
	// watches: any package importing one of OrderedImports, or whose import
	// path ends in one of OrderedPkgSuffixes, can put bytes on the wire and
	// must not let map iteration order reach them.
	OrderedImports     []string
	OrderedPkgSuffixes []string

	// AllocfreeAssume is the reviewed list of unanalyzable (stdlib/dynamic)
	// calls allocfree trusts not to allocate. Entries: exact rendered call
	// ("time.Now"), "pkg.Recv." prefix wildcard ("atomic."), or a bare
	// method name matched against any receiver ("Load").
	AllocfreeAssume []string

	// AllocfreeConvFree lists stdlib value-type conversions that are free
	// ("time.Duration"); with synthetic stdlib types the checker cannot see
	// for itself that they are numeric.
	AllocfreeConvFree []string

	// AllocfreeRequire pins functions that must exist and carry the
	// //cts:allocfree annotation whenever their package is analyzed, so the
	// hot-path contract cannot silently vanish in a refactor.
	AllocfreeRequire []RequiredRoot

	// DispatchBound caps interface-dispatch fan-out in the call graph;
	// beyond it a call is treated as unknown code. 0 means the default (12).
	DispatchBound int
}

// RequiredRoot names one mandatory //cts:allocfree root: the function Func
// ("Type.Method" or "Func") in the package whose import path ends in
// PkgSuffix.
type RequiredRoot struct {
	PkgSuffix string
	Func      string
}

// DefaultConfig returns the project rule parameters.
func DefaultConfig() Config {
	cfg := Config{
		NotimeAllowed: []string{
			"internal/hwclock",
			"internal/timesource",
			"internal/sim",
			"internal/testutil",
		},
		OrderedImports: []string{
			"cts/internal/wire",
			"cts/internal/transport",
			"cts/internal/udptransport",
		},
		OrderedPkgSuffixes: []string{
			"internal/wire",
			"internal/timeserve",
			"internal/transport",
		},
		AllocfreeAssume: []string{
			// Exact stdlib calls the hot path is allowed to make.
			"time.Now",
			"errors.Is",
			// Prefix wildcards: the whole binary.BigEndian/LittleEndian put/
			// get families and every sync/atomic entry point are value-level.
			"binary.BigEndian.",
			"binary.LittleEndian.",
			"atomic.",
			// Bare method names: receivers are synthetic stdlib types
			// (atomic.Pointer fields, net.PacketConn, time.Time) the checker
			// cannot resolve. All reviewed as non-allocating.
			"Load",
			"Store",
			"Add",
			"Swap",
			"CompareAndSwap",
			"ReadFrom",
			"WriteTo",
			"ReadFromUDP",
			"WriteToUDP",
			// syscall.RawConn dispatch in the batched serve loop: Read/Write
			// invoke a pre-built closure over the raw fd and park on the
			// netpoller; neither allocates in steady state. Keyed to the
			// rendered receiver so unrelated Read/Write calls stay flagged.
			"rc.Read",
			"rc.Write",
			"UnixNano",
			"Nanoseconds",
			"Seconds",
			"Milliseconds",
			"Microseconds",
			"Done",
		},
		AllocfreeConvFree: []string{
			"time.Duration",
		},
		// The serving hot path: the sequential loop, the one per-datagram
		// answer loop both I/O paths share, the lease read.
		AllocfreeRequire: []RequiredRoot{
			{PkgSuffix: "internal/timeserve", Func: "Server.serveLoop"},
			{PkgSuffix: "internal/timeserve", Func: "Server.answerDatagram"},
			{PkgSuffix: "internal/core", Func: "TimeService.LeaseRead"},
		},
	}
	// The batched drain-serve cycle exists where mmsg_linux.go builds; the
	// loader follows the host's build constraints.
	if runtime.GOOS == "linux" && (runtime.GOARCH == "amd64" || runtime.GOARCH == "arm64") {
		cfg.AllocfreeRequire = append(cfg.AllocfreeRequire,
			RequiredRoot{PkgSuffix: "internal/timeserve", Func: "Server.serveBatch"})
	}
	return cfg
}

func (c Config) enabled(rule string) bool {
	if len(c.Rules) == 0 {
		return true
	}
	return c.Rules[rule]
}

// Run analyzes pkgs under cfg and returns findings sorted by position.
func Run(pkgs []*Package, cfg Config) []Finding {
	out, _ := RunStats(pkgs, cfg)
	return out
}

// RuleStat is one rule's share of a RunStats invocation, for `ctslint -v`.
type RuleStat struct {
	Rule     string
	Duration time.Duration
	Findings int
}

// RunStats is Run plus per-rule wall time. The interprocedural rules
// (allocfree, lockorder) share one lazily built call graph: the graph is
// constructed at most once per invocation, and not at all when neither rule
// is enabled — adding the graph-based passes must not double lint wall time
// over the already-loaded package set.
func RunStats(pkgs []*Package, cfg Config) ([]Finding, []RuleStat) {
	var (
		out   []Finding
		stats []RuleStat
		g     *Graph
	)
	graph := func() *Graph {
		if g == nil {
			g = BuildGraph(pkgs, cfg)
		}
		return g
	}
	mono := hwclock.Monotonic()
	run := func(rule string, fn func() []Finding) {
		if !cfg.enabled(rule) {
			return
		}
		start := mono()
		fs := fn()
		stats = append(stats, RuleStat{Rule: rule, Duration: mono() - start, Findings: len(fs)})
		out = append(out, fs...)
	}
	eachPkg := func(fn func(p *Package) []Finding) func() []Finding {
		return func() []Finding {
			var fs []Finding
			for _, p := range pkgs {
				fs = append(fs, fn(p)...)
			}
			return fs
		}
	}
	run("allocfree", func() []Finding { return checkAllocfree(graph()) })
	run("atomicmix", eachPkg(checkAtomicmix))
	run("errdrop", eachPkg(checkErrdrop))
	run("lockorder", func() []Finding { return checkLockorder(graph()) })
	run("maporder", eachPkg(func(p *Package) []Finding { return checkMaporder(p, cfg) }))
	run("notime", eachPkg(func(p *Package) []Finding { return checkNotime(p, cfg) }))
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
	return out, stats
}

// finding builds a Finding at node, deriving the enclosing scope.
func (p *Package) finding(rule string, node ast.Node, format string, args ...any) Finding {
	return Finding{
		Rule:  rule,
		Pos:   p.Fset.Position(node.Pos()),
		Scope: p.scopeOf(node.Pos()),
		Msg:   fmt.Sprintf(format, args...),
	}
}

// scopeOf names the top-level declaration containing pos.
func (p *Package) scopeOf(pos token.Pos) string {
	for _, f := range p.Files {
		if pos < f.Pos() || pos > f.End() {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || pos < fd.Pos() || pos > fd.End() {
				continue
			}
			name := fd.Name.Name
			if fd.Recv != nil && len(fd.Recv.List) == 1 {
				if t := receiverTypeName(fd.Recv.List[0].Type); t != "" {
					name = t + "." + name
				}
			}
			return name
		}
	}
	return "-"
}

func receiverTypeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return receiverTypeName(e.X)
	case *ast.Ident:
		return e.Name
	case *ast.IndexExpr: // generic receiver
		return receiverTypeName(e.X)
	case *ast.IndexListExpr:
		return receiverTypeName(e.X)
	}
	return ""
}

// pkgCall reports whether call is pkg.Fn(...) for the package imported in f
// under importPath (or any path with "/"+importPath suffix), returning Fn.
// It refuses identifiers shadowed by local declarations when type
// information resolves them to something other than the package name.
func (p *Package) pkgCall(f *ast.File, call *ast.CallExpr, importPath string) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	names := importLocalNames(f, importPath)
	if !names[id.Name] {
		return "", false
	}
	if obj := p.Info.Uses[id]; obj != nil {
		if _, isPkg := obj.(*types.PkgName); !isPkg {
			return "", false // shadowed by a local binding
		}
	}
	return sel.Sel.Name, true
}

// importLocalNames collects the identifiers f binds to importPath (exact
// match, or a path ending in "/"+importPath so corpus packages can stand in
// for real ones).
func importLocalNames(f *ast.File, importPath string) map[string]bool {
	names := make(map[string]bool, 1)
	for _, imp := range f.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		if path != importPath && !strings.HasSuffix(path, "/"+importPath) {
			continue
		}
		if imp.Name != nil {
			if imp.Name.Name == "_" || imp.Name.Name == "." {
				continue
			}
			names[imp.Name.Name] = true
			continue
		}
		names[path[strings.LastIndex(path, "/")+1:]] = true
	}
	return names
}

// importsAny reports whether any file of p imports one of the given paths.
func (p *Package) importsAny(paths []string) bool {
	for _, f := range p.Files {
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			for _, want := range paths {
				if path == want {
					return true
				}
			}
		}
	}
	return false
}

func hasAnySuffix(s string, suffixes []string) bool {
	for _, suf := range suffixes {
		if s == suf || strings.HasSuffix(s, "/"+suf) || strings.HasSuffix(s, suf) {
			return true
		}
	}
	return false
}
