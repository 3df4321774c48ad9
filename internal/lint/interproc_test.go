package lint

import (
	"bytes"
	"go/token"
	"runtime"
	"strings"
	"testing"
)

// TestSharedGraphSingleBuild asserts the interprocedural substrate is built
// once per Run and shared by allocfree and lockorder — and not built at all
// when neither is enabled. The package load is already shared (one Load per
// ctslint invocation); this pins the same property for the graph, so the two
// new passes cannot double lint wall time.
func TestSharedGraphSingleBuild(t *testing.T) {
	pkgs := loadCorpus(t)

	before := GraphBuilds()
	cfg := DefaultConfig()
	cfg.Rules = map[string]bool{"allocfree": true, "lockorder": true}
	Run(pkgs, cfg)
	if got := GraphBuilds() - before; got != 1 {
		t.Fatalf("GraphBuilds delta = %d running both interprocedural rules, want 1 shared build", got)
	}

	before = GraphBuilds()
	cfg.Rules = map[string]bool{"notime": true, "errdrop": true}
	Run(pkgs, cfg)
	if got := GraphBuilds() - before; got != 0 {
		t.Fatalf("GraphBuilds delta = %d with no interprocedural rule enabled, want 0", got)
	}
}

// TestAllocfreeRequiredRoots covers the contract that pins annotations in
// place: a required root that is missing, or present but unannotated, is
// itself a finding.
func TestAllocfreeRequiredRoots(t *testing.T) {
	pkgs := loadCorpus(t)
	cfg := DefaultConfig()
	cfg.Rules = map[string]bool{"allocfree": true}

	required := func(reqs []RequiredRoot) []Finding {
		c := cfg
		c.AllocfreeRequire = reqs
		var out []Finding
		for _, f := range Run(pkgs, c) {
			if strings.Contains(f.Msg, "required allocfree root") {
				out = append(out, f)
			}
		}
		return out
	}

	if got := required([]RequiredRoot{{PkgSuffix: "corpus/allocfree", Func: "Root"}}); len(got) != 0 {
		t.Fatalf("annotated root reported as missing: %v", got)
	}
	if got := required([]RequiredRoot{{PkgSuffix: "corpus/allocfree", Func: "NotRoot"}}); len(got) != 1 ||
		!strings.Contains(got[0].Msg, "missing its //cts:allocfree annotation") {
		t.Fatalf("unannotated required root: got %v, want one missing-annotation finding", got)
	}
	if got := required([]RequiredRoot{{PkgSuffix: "corpus/allocfree", Func: "Ghost"}}); len(got) != 1 ||
		!strings.Contains(got[0].Msg, "not found") {
		t.Fatalf("absent required root: got %v, want one not-found finding", got)
	}
	if got := required([]RequiredRoot{{PkgSuffix: "corpus/nosuchpkg", Func: "Root"}}); len(got) != 0 {
		t.Fatalf("requirement for a package outside the load should be skipped, got %v", got)
	}

	// The project's own pins: TestRepoClean proves each exists and is
	// annotated; this proves none is dropped from the list.
	pinned := make(map[string]bool)
	for _, r := range DefaultConfig().AllocfreeRequire {
		pinned[r.Func] = true
	}
	want := []string{"Server.serveLoop", "Server.answerDatagram", "TimeService.LeaseRead"}
	if runtime.GOOS == "linux" && (runtime.GOARCH == "amd64" || runtime.GOARCH == "arm64") {
		want = append(want, "Server.serveBatch")
	}
	for _, fn := range want {
		if !pinned[fn] {
			t.Errorf("DefaultConfig().AllocfreeRequire no longer pins %s", fn)
		}
	}
}

// TestJSONSchema pins the -json JSONL schema byte for byte. CI consumes this
// format; changing a field name or ordering is a breaking change and must
// show up here.
func TestJSONSchema(t *testing.T) {
	findings := []Finding{
		{
			Rule:  "allocfree",
			Pos:   token.Position{Filename: "/repo/internal/timeserve/server.go", Line: 7, Column: 3},
			Scope: "Server.serveLoop",
			Msg:   "make allocates on allocfree path (chain: a → b)",
			Chain: []string{"a", "b"},
		},
		{
			Rule:  "notime",
			Pos:   token.Position{Filename: "/repo/x.go", Line: 1, Column: 1},
			Scope: "-",
			Msg:   "time.Now call",
		},
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, findings, "/repo"); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	want := `{"rule":"allocfree","file":"internal/timeserve/server.go","line":7,"col":3,"scope":"Server.serveLoop","msg":"make allocates on allocfree path (chain: a → b)","chain":["a","b"]}
{"rule":"notime","file":"x.go","line":1,"col":1,"scope":"-","msg":"time.Now call"}
`
	if got := buf.String(); got != want {
		t.Fatalf("JSONL output drifted from the pinned schema:\ngot:  %q\nwant: %q", got, want)
	}
}
