package testutil

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// FuzzSeed returns the bytes of the seed corpus entry
// testdata/fuzz/<target>/<name>, a "go test fuzz v1" file holding one
// []byte value.
func FuzzSeed(t testing.TB, target, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", target, name))
	if err != nil {
		t.Fatal(err)
	}
	lit, ok := strings.CutPrefix(strings.TrimSpace(string(raw)), "go test fuzz v1\n[]byte(")
	lit, ok2 := strings.CutSuffix(lit, ")")
	b, err := strconv.Unquote(lit)
	if !ok || !ok2 || err != nil {
		t.Fatalf("%s/%s: not a corpus entry of one []byte", target, name)
	}
	return []byte(b)
}
