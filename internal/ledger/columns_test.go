//go:build ledger

package ledger

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"cts/internal/lint"
)

// columnTimeout bounds one run of one column; running past it counts as a
// failure, since a mutation can hang a test. The slowest column on the
// unmutated module, race, takes under two minutes on 2 vCPUs.
const columnTimeout = 5 * time.Minute

// columns are the checks every row runs through: tier-1 (`go test
// -timeout 4m ./...`, so that a hung test fails with its name printed
// inside columnTimeout instead of being killed silently) and each step of
// ci.sh's own step list, run as `./ci.sh STEP`, so a step added to CI
// becomes a column with no ledger edit. fmt is not a column: TestEditsApply
// keeps every row gofmt-clean.
func columns(t *testing.T) []string {
	t.Helper()
	src, err := os.ReadFile(filepath.Join(root, "ci.sh"))
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?m)^steps="([^"]*)"`).FindSubmatch(src)
	if m == nil {
		t.Fatal("ci.sh has no steps=\"...\" list")
	}
	cols := []string{"tier-1"}
	for _, s := range strings.Fields(string(m[1])) {
		if s != "fmt" {
			cols = append(cols, s)
		}
	}
	return cols
}

// outcome is what one column says about the module copy as it stands.
type outcome int

const (
	pass   outcome = iota
	caught         // a check failed
	moved          // only a pinned.sh output differs from its committed file
)

// copyState restores a module copy between runs: it puts back the committed
// files at the root (the pinned outputs a step regenerates) and deletes any
// file a run created, such as a failing fuzz input under testdata/fuzz.
type copyState struct {
	dir   string
	files map[string]bool
	top   map[string][]byte
}

func snapshot(t *testing.T, dir string) *copyState {
	t.Helper()
	cs := &copyState{dir: dir, files: make(map[string]bool), top: make(map[string][]byte)}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		cs.files[path] = true
		if filepath.Dir(path) == dir {
			data, err := os.ReadFile(path)
			cs.top[path] = data
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

func (cs *copyState) restore(t *testing.T) {
	t.Helper()
	err := filepath.WalkDir(cs.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || cs.files[path] {
			return err
		}
		return os.Remove(path)
	})
	if err != nil {
		t.Fatal(err)
	}
	for path, data := range cs.top {
		if cur, err := os.ReadFile(path); err != nil || string(cur) != string(data) {
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// run executes one column on the copy and restores the copy afterwards.
func (cs *copyState) run(t *testing.T, col string) outcome {
	t.Helper()
	defer cs.restore(t)
	cmd := "./ci.sh " + col
	if col == "tier-1" {
		cmd = "go test -timeout 4m ./..."
	}
	ctx, cancel := context.WithTimeout(context.Background(), columnTimeout)
	defer cancel()
	c := exec.CommandContext(ctx, "sh", "-c", cmd)
	c.Dir = cs.dir
	// Kill the whole process group on timeout: sh's children are go
	// processes that would otherwise outlive it.
	c.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	c.Cancel = func() error { return syscall.Kill(-c.Process.Pid, syscall.SIGKILL) }
	c.WaitDelay = time.Second
	out, err := c.CombinedOutput()
	if err == nil {
		return pass
	}
	t.Logf("%s: %v\n%s", col, err, failures(out))
	if ctx.Err() == nil && strings.Contains(string(out), " moved (committed version") {
		return moved
	}
	return caught
}

// cell runs a column, and reruns it once if it fails: a cell counts only if
// both runs fail. A cell that fails once and then passes is reported as
// flaky and counts as a pass.
func (cs *copyState) cell(t *testing.T, col string) (o outcome, flaky bool) {
	t.Helper()
	if o = cs.run(t, col); o == pass {
		return pass, false
	}
	if o = cs.run(t, col); o == pass {
		return pass, true
	}
	return o, false
}

// TestLedger is the slow half of the mutation ledger, run by `make ledger`
// (build tag ledger). It copies the whole module, runs every column on the
// unmutated copy (a column that fails there is unusable and named in the
// verdict), then applies each row of both tables in turn and prints the
// tables DESIGN.md §5 and §8 carry. Lint rows run on a copy without
// internal/lint's tests and skip the lint step, since those are the rule.
// Outcomes are reported, not enforced: a protocol row no failing check
// catches is an oracle gap, and a lint rule none of whose rows is caught
// by the rule alone is a deletion candidate.
func TestLedger(t *testing.T) {
	cols := columns(t)
	dir := copyModule(t, true)
	cs := snapshot(t, dir)
	usable := make(map[string]bool)
	var unusable []string
	for _, col := range cols {
		usable[col] = cs.run(t, col) == pass
		if !usable[col] {
			unusable = append(unusable, col)
		}
	}
	t.Logf("columns: %s; failing on the unmutated module (unusable): %s", strings.Join(cols, " "), list(unusable))

	t.Run("protocol", func(t *testing.T) {
		var gaps []string
		table := runTable(t, cs, cols, usable, "mechanism", protocolRows, func(r row, caughtBy []string) {
			if len(caughtBy) == 0 {
				gaps = append(gaps, r.name)
			}
		})
		t.Logf("protocol ledger:\n%s\noracle gaps (no failing check catches the row): %s", table, list(gaps))
	})

	t.Run("lint", func(t *testing.T) {
		matches, err := filepath.Glob(filepath.Join(dir, "internal", "lint", "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range matches {
			if err := os.Remove(f); err != nil {
				t.Fatal(err)
			}
		}
		lcs := snapshot(t, dir)
		lusable := make(map[string]bool)
		for col, ok := range usable {
			lusable[col] = ok && col != "lint"
		}
		onlyRule := make(map[string]bool) // rule -> some row is caught by no column
		table := runTable(t, lcs, cols, lusable, "rule", lintRows, func(r row, caughtBy []string) {
			onlyRule[r.mechanism] = onlyRule[r.mechanism] || len(caughtBy) == 0
		})
		var candidates []string
		for _, r := range lint.AllRules {
			if unique, ran := onlyRule[r]; ran && !unique {
				candidates = append(candidates, r)
			}
		}
		t.Logf("lint ledger:\n%s\ndeletion candidates (every row also caught by another step): %s", table, list(candidates))
	})
}

// runTable runs each row of a table through the usable columns and returns
// the table as DESIGN.md carries it: per row, the columns whose check
// failed (caught by) and those where only a pinned output differed (moved).
// verdict sees each row's caught-by list.
func runTable(t *testing.T, cs *copyState, cols []string, usable map[string]bool, head string, rows []row,
	verdict func(r row, caughtBy []string)) string {
	var b strings.Builder
	fmt.Fprintf(&b, "| %s | seeded bug | file | caught by | moved |\n|---|---|---|---|---|\n", head)
	for _, r := range rows {
		if !t.Run(r.name, func(t *testing.T) {
			defer r.apply(t, cs.dir)()
			var caughtBy, movedIn, flaky []string
			for _, col := range cols {
				if !usable[col] {
					continue
				}
				o, f := cs.cell(t, col)
				switch {
				case f:
					flaky = append(flaky, col)
				case o == caught:
					caughtBy = append(caughtBy, col)
				case o == moved:
					movedIn = append(movedIn, col)
				}
			}
			line := fmt.Sprintf("| %s | %s | `%s` | %s | %s |", r.mechanism, r.name, r.file, list(caughtBy), list(movedIn))
			b.WriteString(line + "\n")
			t.Log(line)
			if len(flaky) > 0 {
				t.Logf("%s: failed once, then passed: %s", r.name, list(flaky))
			}
			verdict(r, caughtBy)
		}) {
			t.Fatalf("row %s did not run", r.name)
		}
	}
	return b.String()
}

// list renders column or row names for a table cell.
func list(names []string) string {
	if len(names) == 0 {
		return "·"
	}
	return strings.Join(names, ", ")
}

// failures keeps the lines of out that say what failed, and the last few.
func failures(out []byte) string {
	lines := strings.Split(strings.TrimRight(string(out), "\n"), "\n")
	var keep []string
	for i, l := range lines {
		if i >= len(lines)-5 || strings.Contains(l, "FAIL") || strings.Contains(l, "panic") ||
			strings.Contains(l, "_test.go:") || strings.Contains(l, "moved") || strings.HasPrefix(l, "#") {
			keep = append(keep, l)
		}
	}
	return strings.Join(keep, "\n")
}
