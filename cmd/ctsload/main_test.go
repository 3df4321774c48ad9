package main

import (
	"testing"
	"time"
)

// TestRunInProcess drives the whole generator for 300ms against its own
// in-process 3-replica group — fleet start-up through cts.New, closed-loop
// workers, the invariant checker — and requires a clean verdict: run
// returns nil and its summary reports served queries and zero violations.
// The seq row is the forced-sequential fallback that CI also gates.
func TestRunInProcess(t *testing.T) {
	for _, c := range []struct {
		name    string
		serveIO string
		dgrams  int
	}{
		{"auto", "auto", 1},
		{"seq", "seq", 4},
	} {
		t.Run(c.name, func(t *testing.T) {
			sum, err := run(config{inprocess: true, dgrams: c.dgrams, serveIO: c.serveIO,
				duration: 300 * time.Millisecond})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if sum.queries == 0 {
				t.Fatal("no query was served")
			}
			if sum.syscallsPerQuery <= 0 {
				t.Fatalf("syscalls/query = %v, want the in-process servers' positive count", sum.syscallsPerQuery)
			}
			if sum.staleness != 0 || sum.regression != 0 {
				t.Fatalf("violations: staleness=%d regression=%d, want 0/0", sum.staleness, sum.regression)
			}
		})
	}
}
