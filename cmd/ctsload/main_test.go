package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestRunInProcess drives the whole generator for 300ms against its own
// in-process 3-replica group — fleet start-up through cts.New, closed-loop
// workers, the invariant checker, the result record — and requires a clean
// verdict: run returns nil and the written row reports served queries and
// zero violations.
func TestRunInProcess(t *testing.T) {
	out := filepath.Join(t.TempDir(), "row.json")
	err := run(config{
		inprocess: true, replicas: 3, shards: 1, lease: time.Second,
		mode: "closed", workers: 2, batch: 8, dgrams: 1, serveIO: "auto",
		duration: 300 * time.Millisecond, maxAllocs: -1, jsonOut: out, seed: 1,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var res result
	if err := json.Unmarshal(b, &res); err != nil {
		t.Fatal(err)
	}
	if res.Queries == 0 {
		t.Fatal("no query was served")
	}
	if res.Violations.Staleness != 0 || res.Violations.Regression != 0 {
		t.Fatalf("violations: staleness=%d regression=%d, want 0/0",
			res.Violations.Staleness, res.Violations.Regression)
	}
}
