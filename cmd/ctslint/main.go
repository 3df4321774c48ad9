// Command ctslint runs the project's determinism and concurrency
// static-analysis suite (internal/lint, rules in DESIGN.md §8) over the
// module tree and fails on any finding not covered by the reviewed
// lint.allow baseline. It is a hard gate in `make check` and ci.sh, between
// vet and build, and always runs every rule.
//
// Usage:
//
//	ctslint [-root dir] [-allow file] [-v]
//
// -v adds per-rule wall time and finding counts.
//
// Exit status: 0 clean, 1 findings or stale baseline entries, 2 usage or
// load errors.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"cts/internal/lint"
)

func main() {
	os.Exit(run())
}

func run() int {
	root := flag.String("root", ".", "module root to analyze")
	allow := flag.String("allow", "", "baseline file (default <root>/lint.allow)")
	verbose := flag.Bool("v", false, "report per-rule timings plus package and suppression counts")
	flag.Parse()

	absRoot, err := filepath.Abs(*root)
	var pkgs []*lint.Package
	if err == nil {
		pkgs, err = lint.Load(absRoot, modulePath(absRoot))
	}
	allowPath := *allow
	if allowPath == "" {
		allowPath = filepath.Join(absRoot, "lint.allow")
	}
	var baseline *lint.Baseline
	if err == nil {
		baseline, err = lint.LoadBaseline(allowPath)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "ctslint: %v\n", err)
		return 2
	}

	findings, stats := lint.RunStats(pkgs, lint.DefaultConfig())
	kept, stale := baseline.Filter(findings, absRoot)

	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	for _, f := range kept {
		rel := f.Pos.Filename
		if r, err := filepath.Rel(absRoot, f.Pos.Filename); err == nil {
			rel = filepath.ToSlash(r)
		}
		fmt.Fprintf(out, "%s:%d:%d: %s: %s [%s]\n", rel, f.Pos.Line, f.Pos.Column, f.Rule, f.Msg, f.Scope)
	}
	for _, e := range stale {
		fmt.Fprintf(out, "%s:%d: stale allow entry matches nothing: %s\n", allowPath, e.Line, e)
	}
	if *verbose {
		for _, s := range stats {
			fmt.Fprintf(out, "ctslint: rule %-10s %8.2fms %d finding(s)\n",
				s.Rule, float64(s.Duration.Microseconds())/1000, s.Findings)
		}
		fmt.Fprintf(out, "ctslint: %d package(s), %d finding(s), %d baselined, %d stale\n",
			len(pkgs), len(findings), len(findings)-len(kept), len(stale))
	}
	if len(kept) > 0 || len(stale) > 0 {
		return 1
	}
	return 0
}

// modulePath reads the module line of <root>/go.mod, defaulting to "main".
func modulePath(root string) string {
	data, _ := os.ReadFile(filepath.Join(root, "go.mod"))
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest)
		}
	}
	return "main"
}
