package lint

import (
	"runtime"
	"strings"
	"testing"
)

// TestSharedGraphSingleBuild asserts the interprocedural substrate is built
// once per Run and shared by allocfree and lockorder. The package load is
// already shared (one Load per ctslint invocation); this pins the same
// property for the graph, so the two passes cannot double lint wall time.
func TestSharedGraphSingleBuild(t *testing.T) {
	pkgs := loadCorpus(t)

	before := GraphBuilds()
	Run(pkgs, DefaultConfig())
	if got := GraphBuilds() - before; got != 1 {
		t.Fatalf("GraphBuilds delta = %d running both interprocedural rules, want 1 shared build", got)
	}
}

// TestAllocfreeRequiredRoots covers the contract that pins annotations in
// place: a required root that is missing, or present but unannotated, is
// itself a finding.
func TestAllocfreeRequiredRoots(t *testing.T) {
	pkgs := loadCorpus(t)
	required := func(reqs []RequiredRoot) []Finding {
		var out []Finding
		for _, f := range Run(pkgs, Config{AllocfreeRequire: reqs}) {
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
