package experiment

import (
	"strings"
	"testing"
	"time"

	"cts/internal/replication"
	"cts/internal/transport"
)

// This file exercises the batched-CCS plane on the simulated testbed: many
// concurrent reader threads per replica must coalesce rounds into shared
// batch messages while every replica still decides identical per-thread
// read sequences, with and without batching, and across a fault-injected
// replica crash landing while batches are in flight.

// spawnReaders spawns reader threads on every replica of c in identical
// order (so thread identifiers agree across replicas); the thread in slot r
// on node id performs opsFor(id) consecutive reads. It returns the recorded
// per-node, per-slot value sequences and per-node finished counts, both
// mutated from the reader threads and safe to inspect between RunUntil
// steps (strict thread/loop alternation).
func spawnReaders(c *Cluster, ids []transport.NodeID, readers int,
	opsFor func(transport.NodeID) int) (map[transport.NodeID][][]time.Duration, map[transport.NodeID]*int) {
	values := make(map[transport.NodeID][][]time.Duration)
	finished := make(map[transport.NodeID]*int)
	for _, id := range ids {
		node := id
		values[node] = make([][]time.Duration, readers)
		finished[node] = new(int)
		ops := opsFor(node)
		app := c.Apps[node]
		for r := 0; r < readers; r++ {
			slot := r
			c.Mgrs[node].SpawnThread(func(ctx *replication.Ctx) {
				for j := 0; j < ops; j++ {
					values[node][slot] = append(values[node][slot], app.read(ctx))
				}
				*finished[node]++
			})
		}
	}
	return values, finished
}

// assertSamePrefixes checks that two replicas decided identical per-thread
// sequences on the common prefix of every reader slot.
func assertSamePrefixes(t *testing.T, a, b transport.NodeID, va, vb [][]time.Duration) {
	t.Helper()
	for slot := range va {
		sa, sb := va[slot], vb[slot]
		n := len(sa)
		if len(sb) < n {
			n = len(sb)
		}
		for j := 0; j < n; j++ {
			if sa[j] != sb[j] {
				t.Fatalf("reader %d read %d: node %v got %v, node %v got %v",
					slot, j, a, sa[j], b, sb[j])
			}
		}
	}
}

// TestConcurrentReadersDeterminism runs the concurrent-reader workload on
// the full testbed twice — batching on and batching off — and checks that
// in both configurations every replica decides identical per-thread
// sequences, that coalescing engages only when enabled, and that the
// sequences each replica returns are monotone.
func TestConcurrentReadersDeterminism(t *testing.T) {
	for _, disable := range []bool{false, true} {
		c, err := NewCluster(ClusterConfig{
			Seed:            11,
			Topology:        testbedTopology(),
			Style:           replication.Active,
			Mode:            ModeCTS,
			DisableBatching: disable,
			Observe:         true,
		})
		if err != nil {
			t.Fatal(err)
		}
		ids := []transport.NodeID{1, 2, 3}
		const readers, ops = 4, 6
		values, finished := spawnReaders(c, ids, readers,
			func(transport.NodeID) int { return ops })
		if !c.RunUntil(10*time.Second, func() bool {
			for _, id := range ids {
				if *finished[id] != readers {
					return false
				}
			}
			return true
		}) {
			t.Fatalf("disable=%v: readers never finished", disable)
		}
		assertSamePrefixes(t, 1, 2, values[1], values[2])
		assertSamePrefixes(t, 1, 3, values[1], values[3])
		for _, id := range ids {
			for slot, seq := range values[id] {
				if len(seq) != ops {
					t.Fatalf("disable=%v: node %v reader %d completed %d/%d reads",
						disable, id, slot, len(seq), ops)
				}
				for j := 1; j < len(seq); j++ {
					if seq[j] < seq[j-1] {
						t.Fatalf("disable=%v: node %v reader %d regressed %v -> %v",
							disable, id, slot, seq[j-1], seq[j])
					}
				}
			}
		}
		var batches uint64
		for _, id := range ids {
			batches += clusterCounter(c, id, "core.batches_sent")
		}
		if disable && batches != 0 {
			t.Fatalf("batching disabled but %d batch messages were sent", batches)
		}
		if !disable && batches == 0 {
			t.Fatal("batching enabled but no batch messages were sent")
		}
	}
}

// TestCrashDuringBatchedReads fail-stops a replica through the fault
// injector while the survivors' batched proposals are in flight. Node 1's
// readers finish a short sequence first (so the crash interrupts no local
// thread); the injector then crashes it mid-stream of the others. The
// survivors must complete identical full sequences, still coalescing, and
// the crashed replica's completed reads must be a prefix of theirs (safe
// delivery: nothing was delivered only to the crashed node).
func TestCrashDuringBatchedReads(t *testing.T) {
	c, err := NewCluster(ClusterConfig{
		Seed:     23,
		Topology: testbedTopology(),
		Style:    replication.Active,
		Mode:     ModeCTS,
		Observe:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ids := []transport.NodeID{1, 2, 3}
	const readers, shortOps, ops = 4, 3, 12
	values, finished := spawnReaders(c, ids, readers, func(id transport.NodeID) int {
		if id == 1 {
			return shortOps
		}
		return ops
	})
	if !c.RunUntil(10*time.Second, func() bool { return *finished[1] == readers }) {
		t.Fatal("node 1's readers never finished their short sequences")
	}
	// The survivors must still be mid-stream, or the crash interrupts nothing.
	midStream := false
	for _, id := range []transport.NodeID{2, 3} {
		for _, seq := range values[id] {
			if len(seq) < ops {
				midStream = true
			}
		}
	}
	if !midStream {
		t.Fatal("survivors already done before the crash point; nothing in flight")
	}
	c.Inject.CrashAt(c.K.Now()+500*time.Microsecond, 1)

	survivors := []transport.NodeID{2, 3}
	if !c.RunUntil(10*time.Second, func() bool {
		return *finished[2] == readers && *finished[3] == readers
	}) {
		t.Fatalf("survivors never finished after the crash: %d/%d of %d",
			*finished[2], *finished[3], readers)
	}
	for _, id := range survivors {
		for slot, seq := range values[id] {
			if len(seq) != ops {
				t.Fatalf("survivor %v reader %d completed %d/%d reads", id, slot, len(seq), ops)
			}
		}
	}
	assertSamePrefixes(t, 2, 3, values[2], values[3])
	assertSamePrefixes(t, 1, 2, values[1], values[2])

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
