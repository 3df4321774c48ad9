package lint

import (
	"go/ast"
)

// ban is one row of the banned-call walk: calls of package-level functions
// of one imported package that a rule forbids.
type ban struct {
	rule string
	pkg  string          // import path
	fns  map[string]bool // banned function names; nil bans every one
	// exempt lists package-path suffixes the ban does not apply to.
	exempt []string
	msg    string // finding message; %s is the function name
}

// notimeBan covers the package time functions that read or schedule against
// the machine's real clock. Every one of them smuggles wall time past the
// hwclock/timesource abstraction, which is the only place real time is
// allowed to enter the stack (PAPER §3: replicas must read clocks through
// the synchronized offset, or the group clock is not consistent). The
// time package's types and Duration arithmetic remain free everywhere.
var notimeBan = ban{
	rule: "notime",
	pkg:  "time",
	fns: map[string]bool{
		"Now": true, "Sleep": true, "After": true, "AfterFunc": true, "NewTimer": true,
		"NewTicker": true, "Tick": true, "Since": true, "Until": true,
	},
	exempt: []string{"internal/hwclock", "internal/timesource", "internal/sim", "internal/testutil"},
	msg:    "direct time.%s call outside the clock abstraction; inject a hwclock.Clock/Source (or baseline pure wall-clock measurement in lint.allow)",
}

// atomicmixBan covers the sync/atomic function API (AddUint64, LoadInt64,
// CompareAndSwapPointer, …). A word accessed through those functions can
// also be read or written plainly, a data race the race detector catches
// only when a test hits the interleaving; the lease plane's CAS monotone
// floor (DESIGN §7) is correct only if every access is atomic. The typed
// atomics (atomic.Uint64, atomic.Pointer) cannot be accessed plainly at all,
// so the repo uses only them and mixed access cannot compile.
var atomicmixBan = ban{
	rule: "atomicmix",
	pkg:  "sync/atomic",
	msg:  "sync/atomic function %s; use the typed atomics (atomic.Uint64, atomic.Pointer, …), which cannot be accessed plainly",
}

// checkBanned reports every call p makes to a function b bans.
func checkBanned(p *Package, b ban) []Finding {
	if hasAnySuffix(p.Path, b.exempt) {
		return nil
	}
	var out []Finding
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if fn, ok := p.pkgCall(f, call, b.pkg); ok && (b.fns == nil || b.fns[fn]) {
				out = append(out, p.finding(b.rule, call, b.msg, fn))
			}
			return true
		})
	}
	return out
}
