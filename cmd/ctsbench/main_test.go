package main

import (
	"os"
	"strings"
	"testing"
)

// TestUnknownExperimentListsTable checks that an unknown or empty -exp
// names every table entry, the Figure 6 panel aliases and "all".
func TestUnknownExperimentListsTable(t *testing.T) {
	var want []string
	for _, e := range table(1, false, "") {
		want = append(want, e.name)
	}
	want = append(want, "fig6a", "fig6b", "fig6c", "all")
	for _, exp := range []string{"bogus", ""} {
		err := run(exp, 1, false, "")
		if err == nil {
			t.Fatalf("-exp %q accepted", exp)
		}
		for _, name := range want {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("-exp %q: error %q does not list %s", exp, err, name)
			}
		}
	}
}

// TestOutEmptyWritesNothing runs fig5, which otherwise writes a trace and a
// JSON summary, with -out "" from inside an empty directory.
func TestOutEmptyWritesNothing(t *testing.T) {
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(wd); err != nil {
			t.Error(err)
		}
	}()
	if err := run("fig5", 1, false, ""); err != nil {
		t.Fatal(err)
	}
	if names := dirNames(t, dir); len(names) != 0 {
		t.Fatalf("-out \"\" wrote %v", names)
	}
}

// TestOutDirWritesOwnFile checks that fig5concurrent writes exactly its own
// benchmark file under -out.
func TestOutDirWritesOwnFile(t *testing.T) {
	dir := t.TempDir()
	if err := run("fig5concurrent", 1, false, dir); err != nil {
		t.Fatal(err)
	}
	if names := dirNames(t, dir); len(names) != 1 || names[0] != "BENCH_fig5_concurrent.json" {
		t.Fatalf("-out %s wrote %v, want [BENCH_fig5_concurrent.json]", dir, names)
	}
}

func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}
