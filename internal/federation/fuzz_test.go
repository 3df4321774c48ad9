package federation

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

const sampleTopology = `{
  "groups": [
    {"name": "root", "id": 1, "peers": ["1=127.0.0.1:9001", "2=127.0.0.1:9002"], "fed": ["1=127.0.0.1:9101"]},
    {"name": "leaf", "id": 2, "peers": ["3=127.0.0.1:9003"]}
  ],
  "edges": [["root", "leaf"]],
  "key": "k",
  "exchange_every_ns": 50000000,
  "max_step_ns": 500000
}`

// TestParseTopologyStrict: a misspelled key and data after the object are
// rejected, with a message that says why, instead of running on defaults.
func TestParseTopologyStrict(t *testing.T) {
	if _, err := ParseTopology([]byte(sampleTopology)); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ name, doc, want string }{
		{"misspelled key", strings.Replace(sampleTopology, "max_step_ns", "max_stepns", 1), `unknown field "max_stepns"`},
		{"trailing data", sampleTopology + ` {"groups": []}`, "after the topology object"},
	} {
		if _, err := ParseTopology([]byte(tc.doc)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want it to mention %q", tc.name, err, tc.want)
		}
	}
}

// FuzzParseTopology feeds the topology decoder arbitrary bytes. It must not
// panic and must fail only with its own errors, and an accepted topology
// must encode to a document that parses back and encodes the same. The
// seed corpus (testdata/fuzz) holds a full and a minimal topology plus a
// misspelled key and trailing data.
func FuzzParseTopology(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		topo, err := ParseTopology(data)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "federation: ") {
				t.Fatalf("parse %q: foreign error %v", data, err)
			}
			return
		}
		enc, err := json.Marshal(topo)
		if err != nil {
			t.Fatalf("marshal accepted topology: %v", err)
		}
		back, err := ParseTopology(enc)
		if err != nil {
			t.Fatalf("re-parse of %s: %v", enc, err)
		}
		if again, _ := json.Marshal(back); !bytes.Equal(again, enc) {
			t.Fatalf("round trip changed the topology:\n in: %s\nout: %s", enc, again)
		}
	})
}
