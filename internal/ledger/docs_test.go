package ledger

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestDesignCitations checks that every `DESIGN §N` or `DESIGN.md §N` cited
// in Go, ci.sh or the Makefile names a `## N.` heading of DESIGN.md.
func TestDesignCitations(t *testing.T) {
	design, err := os.ReadFile(filepath.Join(root, "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	headings := make(map[string]bool)
	for _, m := range regexp.MustCompile(`(?m)^## (\d+)\. `).FindAllSubmatch(design, -1) {
		headings[string(m[1])] = true
	}
	cite := regexp.MustCompile(`DESIGN(?:\.md)? §(\d+)`)
	cited := 0
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") && path != filepath.Join(root, "ci.sh") && path != filepath.Join(root, "Makefile") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range cite.FindAllSubmatch(src, -1) {
			cited++
			if !headings[string(m[1])] {
				t.Errorf("%s cites %s, but DESIGN.md has no \"## %s.\" heading", path, m[0], m[1])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if cited == 0 {
		t.Error("found no DESIGN citations; the scan is broken")
	}
}

// TestDesignLedgerTables checks that DESIGN.md's two ledger tables list
// exactly the rows this package holds, by mechanism, name and file, in
// order, so a row cannot be added or dropped without the doc.
func TestDesignLedgerTables(t *testing.T) {
	design, err := os.ReadFile(filepath.Join(root, "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(design), "\n")
	for _, tb := range []struct {
		head string
		rows []row
	}{{"rule", lintRows}, {"mechanism", protocolRows}} {
		var want, got []string
		for _, r := range tb.rows {
			want = append(want, r.mechanism+" | "+r.name+" | "+r.file)
		}
		header := "| " + tb.head + " | seeded bug | file |"
		start := slices.IndexFunc(lines, func(l string) bool { return strings.HasPrefix(l, header) })
		if start < 0 {
			t.Errorf("DESIGN.md has no table headed %q", header)
			continue
		}
		for _, l := range lines[start+2:] {
			cells := strings.Split(l, "|")
			if !strings.HasPrefix(l, "|") || len(cells) < 4 {
				break
			}
			got = append(got, strings.TrimSpace(cells[1])+" | "+strings.TrimSpace(cells[2])+" | "+
				strings.Trim(strings.TrimSpace(cells[3]), "`"))
		}
		if !slices.Equal(got, want) {
			t.Errorf("DESIGN.md table %q lists\n%s\nbut the ledger holds\n%s",
				header, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}
}
