package experiment

import (
	"strings"
	"testing"
	"time"

	"cts/internal/faultinject"
	"cts/internal/replication"
	"cts/internal/transport"
)

// This file exercises the batched-CCS plane on the simulated testbed: many
// concurrent reader threads per replica must coalesce rounds into shared
// batch messages while every replica still decides identical per-thread
// read sequences (the cluster's round oracle checks each value), also
// across a fault-injected replica crash landing while batches are in
// flight.

// TestConcurrentReadersDeterminism runs the concurrent-reader workload on
// the full testbed and checks that every reader finishes with replicas in
// agreement and per-thread sequences monotone (the round oracle), and that
// coalescing engages.
func TestConcurrentReadersDeterminism(t *testing.T) {
	c, err := NewCluster(ClusterConfig{
		Seed:    11,
		Clocks:  testbedClocks(),
		Style:   replication.Active,
		Mode:    ModeCTS,
		Observe: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	run := spawnReaders(c, 4, func(transport.NodeID) int { return 6 })
	if !c.RunUntil(10*time.Second, run.done) {
		t.Fatalf("readers finished %v of 4: %v", run.finished, c.Err())
	}
	var batches uint64
	for _, id := range []transport.NodeID{1, 2, 3} {
		batches += clusterCounter(c, id, "core.batches_sent")
	}
	if batches == 0 {
		t.Fatal("no batch messages were sent")
	}
}

// TestCrashDuringBatchedReads fail-stops a replica through the fault
// injector while the survivors' batched proposals are in flight. Node 1's
// readers finish a short sequence first (so the crash interrupts no local
// thread); the injector then crashes it mid-stream of the others. The
// survivors must complete their full sequences, still coalescing, and the
// round oracle must find every read the crashed replica completed decided
// alike at the survivors (safe delivery: nothing was delivered only to the
// crashed node).
func TestCrashDuringBatchedReads(t *testing.T) {
	c, err := NewCluster(ClusterConfig{
		Seed:    23,
		Clocks:  testbedClocks(),
		Style:   replication.Active,
		Mode:    ModeCTS,
		Observe: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	const readers = 4
	run := spawnReaders(c, readers, func(id transport.NodeID) int {
		if id == 1 {
			return 3
		}
		return 12
	})
	if !c.RunUntil(10*time.Second, func() bool { return run.finished[1] == readers }) {
		t.Fatalf("node 1's readers never finished their short sequences: %v", c.Err())
	}
	// The survivors must still be mid-stream, or the crash interrupts nothing.
	if run.finished[2] == readers && run.finished[3] == readers {
		t.Fatal("survivors already done before the crash point; nothing in flight")
	}
	c.Inject.Apply(faultinject.Event{Kind: faultinject.Crash, At: c.K.Now() + 500*time.Microsecond, Nodes: []transport.NodeID{1}})

	survivors := []transport.NodeID{2, 3}
	if !c.RunUntil(10*time.Second, func() bool {
		return run.finished[2] == readers && run.finished[3] == readers
	}) {
		t.Fatalf("survivors never finished after the crash: %v of %d: %v",
			run.finished, readers, c.Err())
	}

	var coalesced uint64
	for _, id := range survivors {
		coalesced += clusterCounter(c, id, "core.rounds_coalesced")
	}
	if coalesced == 0 {
		t.Fatal("survivors never coalesced rounds")
	}
}

// TestRunFigure5Concurrent sanity-checks the E15 harness: with several
// readers the workload must coalesce rounds, and the amortized per-read
// overhead must be at most half the single-reader overhead.
func TestRunFigure5Concurrent(t *testing.T) {
	res, err := RunFigure5Concurrent(7, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Single.PerReadOverhead() <= 0 {
		t.Fatalf("single-reader run has no measurable overhead: %+v", res.Single)
	}
	if err := res.Gate(); err != nil {
		t.Fatal(err)
	}
}

// TestFigure5ConcurrentGate drives the E15 gate's branches on hand-built
// results: the self-gating CI step only ever sees passing runs.
func TestFigure5ConcurrentGate(t *testing.T) {
	run := func(readers int, coalesced, batches uint64, overhead time.Duration) *ConcurrentRun {
		return &ConcurrentRun{Readers: readers, OpsPerReader: 1, WallWith: overhead,
			RoundsCoalesced: coalesced, BatchesSent: batches}
	}
	single := run(1, 0, 0, 300*time.Microsecond)
	for _, tc := range []struct {
		name  string
		multi *ConcurrentRun
		want  string // substring of the error; empty means pass
	}{
		{"amortized", run(8, 50, 10, 8*40*time.Microsecond), ""},
		{"no coalesced rounds", run(8, 0, 10, 8*40*time.Microsecond), "no round coalescing"},
		{"no batches", run(8, 50, 0, 8*40*time.Microsecond), "no round coalescing"},
		{"copies ordered", &ConcurrentRun{Readers: 8, OpsPerReader: 1, WallWith: 8 * 40 * time.Microsecond,
			RoundsCoalesced: 50, BatchesSent: 30, RedundantBatches: 20}, "not withdrawn as duplicates"},
		{"ratio above half", run(8, 50, 10, 8*200*time.Microsecond), "more than half"},
		{"exactly half", run(8, 50, 10, 8*150*time.Microsecond), ""},
		{"one reader skips the ratio", run(1, 50, 10, 300*time.Microsecond), ""},
	} {
		err := (&Figure5ConcurrentResult{Multi: tc.multi, Single: single}).Gate()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: unexpected gate failure: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: gate error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}
