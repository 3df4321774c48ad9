package lint

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

// want is one `// want: rule substring` expectation from the corpus.
type want struct {
	file string
	line int
	rule string
	sub  string
	used bool
}

// collectWants parses `// want: rule message-substring` comments from every
// corpus file. One comment can expect several findings on its line,
// separated by " ; ".
func collectWants(t *testing.T, pkgs []*Package) []*want {
	t.Helper()
	var wants []*want
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, cm := range cg.List {
					text := strings.TrimSpace(strings.TrimPrefix(cm.Text, "//"))
					if !strings.HasPrefix(text, "want:") {
						continue
					}
					rest := strings.TrimSpace(strings.TrimPrefix(text, "want:"))
					pos := p.Fset.Position(cm.Pos())
					for _, one := range strings.Split(rest, ";") {
						rule, sub, ok := strings.Cut(strings.TrimSpace(one), " ")
						if !ok {
							t.Fatalf("%s: malformed want comment %q (need `want: rule substring`)",
								pos, cm.Text)
						}
						wants = append(wants, &want{
							file: pos.Filename, line: pos.Line,
							rule: rule, sub: strings.TrimSpace(sub),
						})
					}
				}
			}
		}
	}
	return wants
}

func loadCorpus(t *testing.T) []*Package {
	t.Helper()
	pkgs, err := Load("testdata/src", "corpus")
	if err != nil {
		t.Fatalf("Load corpus: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("Load corpus: no packages")
	}
	return pkgs
}

// absRoot resolves a lint root the way Load does, so Baseline.Filter sees
// the same paths findings carry.
func absRoot(t *testing.T, root string) string {
	t.Helper()
	abs, err := filepath.Abs(root)
	if err != nil {
		t.Fatalf("abs %s: %v", root, err)
	}
	return abs
}

// TestGoldenCorpus runs every rule over testdata/src and requires an exact
// match between findings and `// want:` comments, modulo the suppressions in
// testdata/corpus.allow (which must all be used — no stale entries).
func TestGoldenCorpus(t *testing.T) {
	pkgs := loadCorpus(t)
	findings := Run(pkgs, DefaultConfig())

	base, err := LoadBaseline("testdata/corpus.allow")
	if err != nil {
		t.Fatalf("LoadBaseline: %v", err)
	}
	if len(base.Entries) == 0 {
		t.Fatal("corpus.allow parsed to zero entries")
	}
	kept, stale := base.Filter(findings, absRoot(t, "testdata/src"))
	for _, e := range stale {
		t.Errorf("stale corpus.allow entry (matched nothing): %s", e)
	}

	wants := collectWants(t, pkgs)
	if len(wants) == 0 {
		t.Fatal("corpus has no want comments")
	}
	for _, f := range kept {
		matched := false
		for _, w := range wants {
			if w.used || w.file != f.Pos.Filename || w.line != f.Pos.Line {
				continue
			}
			if w.rule != f.Rule || !strings.Contains(f.Msg, w.sub) {
				continue
			}
			w.used = true
			matched = true
			break
		}
		if !matched {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, w := range wants {
		if !w.used {
			t.Errorf("%s:%d: want %s %q, got no matching finding", w.file, w.line, w.rule, w.sub)
		}
	}
}

// TestRepoClean is the self-hosting gate: the repository itself, filtered
// through the reviewed lint.allow, must be free of findings and free of
// stale baseline entries.
func TestRepoClean(t *testing.T) {
	pkgs, err := Load("../..", "cts")
	if err != nil {
		t.Fatalf("Load repo: %v", err)
	}
	findings := Run(pkgs, DefaultConfig())
	base, err := LoadBaseline("../../lint.allow")
	if err != nil {
		t.Fatalf("LoadBaseline: %v", err)
	}
	kept, stale := base.Filter(findings, absRoot(t, "../.."))
	for _, f := range kept {
		t.Errorf("repo finding not fixed or baselined: %s", f)
	}
	for _, e := range stale {
		t.Errorf("stale lint.allow entry (matched nothing): %s", e)
	}
}

func TestParseBaselineErrors(t *testing.T) {
	cases := []struct {
		name, in, wantErr string
	}{
		{"missing justification", "notime foo.go Bar\n", "lacks a `# justification`"},
		{"empty justification", "notime foo.go Bar #   \n", "lacks a `# justification`"},
		{"wrong field count", "notime foo.go # why\n", "got 2 fields"},
		{"short justification", "notime foo.go Bar # why\n", "too short"},
		{"unknown rule", "bogus foo.go Bar # a plausible-length reason\n", `unknown rule "bogus"`},
		{"retired rule", "nolockio foo.go Bar # folded into lockorder\n", `unknown rule "nolockio"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseBaseline(strings.NewReader(tc.in), "test.allow")
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("ParseBaseline(%q) err = %v, want containing %q", tc.in, err, tc.wantErr)
			}
		})
	}

	ok := "# comment\n\nnotime foo.go Bar # real reason\nerrdrop foo.go * # wildcard scope\n"
	b, err := ParseBaseline(strings.NewReader(ok), "test.allow")
	if err != nil {
		t.Fatalf("ParseBaseline(valid) err = %v", err)
	}
	if len(b.Entries) != 2 {
		t.Fatalf("ParseBaseline(valid) entries = %d, want 2", len(b.Entries))
	}
	if b.Entries[0].Reason != "real reason" || b.Entries[1].Scope != "*" {
		t.Fatalf("ParseBaseline(valid) parsed wrong: %+v", b.Entries)
	}
}

func TestBaselineStaleDetection(t *testing.T) {
	in := "notime gone.go Nobody # obsolete entry\n"
	b, err := ParseBaseline(strings.NewReader(in), "test.allow")
	if err != nil {
		t.Fatalf("ParseBaseline: %v", err)
	}
	kept, stale := b.Filter(nil, ".")
	if len(kept) != 0 {
		t.Fatalf("kept = %v, want none", kept)
	}
	if len(stale) != 1 {
		t.Fatalf("stale = %d entries, want 1", len(stale))
	}
	if got := fmt.Sprint(stale[0]); !strings.Contains(got, "gone.go") {
		t.Fatalf("stale entry = %s, want the gone.go entry", got)
	}
}
