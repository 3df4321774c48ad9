package campaign

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzParseMatrix feeds the matrix decoder arbitrary bytes. A rejected
// input is fine; an accepted one must expand only into cells the runner
// can deploy (at least two nodes, at most the scenario's cap), and must
// survive a marshal/parse round trip unchanged. The seed corpus in
// testdata/fuzz holds the EXPERIMENTS.md example and TestParseMatrix's
// inputs.
func FuzzParseMatrix(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ParseMatrix(data)
		if err != nil {
			return
		}
		for _, c := range m.Cells() {
			sc, ok := m.ScenarioByName(c.Scenario)
			if !ok {
				t.Fatalf("cell %+v names no scenario of the matrix", c)
			}
			if c.Nodes < 2 || (sc.MaxNodes > 0 && c.Nodes > sc.MaxNodes) {
				t.Fatalf("accepted matrix yields cell %+v (max_nodes %d)", c, sc.MaxNodes)
			}
		}
		enc, err := json.Marshal(m)
		if err != nil {
			t.Fatalf("marshal accepted matrix: %v", err)
		}
		back, err := ParseMatrix(enc)
		if err != nil {
			t.Fatalf("re-parse of %s: %v", enc, err)
		}
		if !reflect.DeepEqual(back, m) {
			t.Fatalf("round trip changed the matrix:\n in: %+v\nout: %+v", m, back)
		}
	})
}
