//go:build ledger

package lint

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// ledgerColumns are the CI steps, other than ctslint itself, that the
// mutation ledger reruns on every seeded bug. Each runs from the root of the
// mutated copy; a nonzero exit, or running past the deadline, means the step
// catches the bug. The test columns leave out internal/lint, whose tests
// lint the module (TestRepoClean) or the linter itself.
var ledgerColumns = []struct{ name, cmd string }{
	{"build+vet", "go build ./... && go vet ./..."},
	{"tier-1", "go test $(go list ./... | grep -v /internal/lint$)"},
	{"race", "go test -race $(go list ./... | grep -v /internal/lint$)"},
	{"fig5", "./pinned.sh BENCH_fig5.json go run ./cmd/ctsbench -exp fig5 -out ."},
	{"fig5conc", "./pinned.sh BENCH_fig5_concurrent.json go run ./cmd/ctsbench -exp fig5concurrent -out ."},
	{"campaign", "./pinned.sh BENCH_campaign_smoke.json go run ./cmd/ctscampaign -scenarios churn-storm,slow-clocks -nodes 100 -json BENCH_campaign_smoke.json"},
	{"federation", "./pinned.sh BENCH_federation.json go run ./cmd/ctsbench -exp federation -out ."},
}

// pinnedOutputs are the committed files the pinned columns regenerate; they
// are put back after every row so one row's output cannot leak into the next.
var pinnedOutputs = []string{"BENCH_fig5.json", "BENCH_fig5_concurrent.json", "BENCH_campaign_smoke.json", "BENCH_federation.json"}

const ledgerStepTimeout = 15 * time.Minute

// TestMutationLedgerColumns is the slow half of the mutation ledger, run by
// `make lint-ledger` (build tag ledger): it copies the whole module, checks
// that every column passes on the unmutated copy, then applies each seeded
// bug in turn and records which columns catch it. It prints the table
// DESIGN.md §8 carries; a rule stays justified while at least one of its
// rows is caught by no column.
func TestMutationLedgerColumns(t *testing.T) {
	dir := copyModule(t, true)
	saved := make(map[string][]byte)
	for _, f := range pinnedOutputs {
		data, err := os.ReadFile(filepath.Join(dir, f))
		if err != nil {
			t.Fatal(err)
		}
		saved[f] = data
	}
	run := func(cmd string) bool {
		ctx, cancel := context.WithTimeout(context.Background(), ledgerStepTimeout)
		defer cancel()
		c := exec.CommandContext(ctx, "sh", "-c", cmd)
		c.Dir = dir
		out, err := c.CombinedOutput()
		for f, data := range saved {
			if werr := os.WriteFile(filepath.Join(dir, f), data, 0o644); werr != nil {
				t.Fatal(werr)
			}
		}
		if err != nil {
			t.Logf("%s: %v\n%s", cmd, err, failures(out))
		}
		return err == nil
	}

	for _, col := range ledgerColumns {
		if !run(col.cmd) {
			t.Fatalf("column %s fails on the unmutated module; the ledger needs a green baseline", col.name)
		}
	}

	var b strings.Builder
	b.WriteString("| rule | seeded bug | file |")
	for _, col := range ledgerColumns {
		b.WriteString(" " + col.name + " |")
	}
	b.WriteString(" caught only by the rule |\n|---|---|---|")
	for range ledgerColumns {
		b.WriteString("---|")
	}
	b.WriteString("---|\n")
	unique := make(map[string]bool)
	for _, m := range ledger {
		restore := m.apply(t, dir)
		fmt.Fprintf(&b, "| %s | %s | `%s` |", m.rule, m.name, m.file)
		caught := false
		for _, col := range ledgerColumns {
			mark := "·"
			if !run(col.cmd) {
				mark, caught = "caught", true
			}
			b.WriteString(" " + mark + " |")
		}
		if caught {
			b.WriteString(" no |\n")
		} else {
			b.WriteString(" **yes** |\n")
			unique[m.rule] = true
		}
		restore()
		t.Logf("row %s/%s done", m.rule, m.name)
	}
	t.Logf("mutation ledger:\n%s", b.String())
	for _, r := range AllRules {
		if !unique[r] {
			t.Errorf("rule %s: every seeded bug is also caught by another CI step; the rule does not earn its lines", r)
		}
	}
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
