package core

import (
	"sort"
	"testing"
	"time"

	"cts/internal/replication"
	"cts/internal/transport"
)

// concurrentReaders spawns `readers` logical threads on every replica in the
// harness (in identical order, so thread identifiers agree across replicas)
// and has each perform `reads` consecutive Gettimeofday calls after a settle
// sleep. It returns the per-node, per-reader value sequences plus a per-node
// count of finished readers. Aborted nodes' threads stop at the next read.
func concurrentReaders(h *coreHarness, ids []transport.NodeID, readers, reads int,
	aborted map[transport.NodeID]bool) (map[transport.NodeID][][]time.Duration, map[transport.NodeID]*int) {
	values := make(map[transport.NodeID][][]time.Duration)
	finished := make(map[transport.NodeID]*int)
	for _, id := range ids {
		node := id
		values[node] = make([][]time.Duration, readers)
		finished[node] = new(int)
		for r := 0; r < readers; r++ {
			slot := r
			h.mgrs[node].SpawnThread(func(ctx *replication.Ctx) {
				ctx.Sleep(3 * time.Millisecond) // let the ring settle
				for j := 0; j < reads && !aborted[node]; j++ {
					values[node][slot] = append(values[node][slot],
						h.svcs[node].Gettimeofday(ctx))
				}
				*finished[node]++
			})
		}
	}
	return values, finished
}

// allFinished reports whether every node's readers have finished.
func allFinished(finished map[transport.NodeID]*int, readers int) func() bool {
	return func() bool {
		for _, n := range finished {
			if *n != readers {
				return false
			}
		}
		return true
	}
}

// retireReads fails node id's pending reads on the loop, the way a real
// process teardown would discard them, so that its blocked readers (marked
// aborted by the caller) retire and the package leak check sees them exit.
func retireReads(h *coreHarness, id transport.NodeID) {
	h.k.Post(func() {
		svc := h.svcs[id]
		tids := make([]uint64, 0, len(svc.handlers))
		for tid := range svc.handlers {
			tids = append(tids, tid)
		}
		sort.Slice(tids, func(i, j int) bool { return tids[i] < tids[j] })
		for _, tid := range tids {
			hd := svc.handlers[tid]
			if w := hd.waiting; w != nil {
				hd.waiting = nil
				w.complete(nil)
			}
		}
	})
}

// TestConcurrentReadsCoalesce runs many concurrent reader threads per replica
// and checks the tentpole property end to end: rounds coalesce into batch
// messages, and every replica still decides identical per-thread group-clock
// sequences (the §3 first-wins rule survives batching; the harness's round
// oracle checks each value).
func TestConcurrentReadsCoalesce(t *testing.T) {
	h := newCoreHarness(t, 42)
	ring := []transport.NodeID{1, 2, 3}
	for _, id := range ring {
		h.addStack(id, ring, true)
	}
	offsets := []time.Duration{0, 5 * time.Second, 15 * time.Second}
	for i, id := range ring {
		h.addReplica(id, replication.Active, false, h.simClock(offsets[i], 0))
	}
	const readers, reads = 6, 5
	values, finished := concurrentReaders(h, ring, readers, reads, nil)
	h.start()
	if !h.runUntil(10*time.Second, allFinished(finished, readers)) {
		t.Fatalf("readers never finished: %d/%d/%d of %d",
			*finished[1], *finished[2], *finished[3], readers)
	}

	for _, id := range ring {
		for slot, seq := range values[id] {
			if len(seq) != reads {
				t.Fatalf("node %v reader %d completed %d/%d reads", id, slot, len(seq), reads)
			}
		}
	}

	var coalesced, batches, entries uint64
	for _, id := range ring {
		coalesced += h.counter(id, "core.rounds_coalesced")
		batches += h.counter(id, "core.batches_sent")
		entries += h.counter(id, "core.batch_entries")
	}
	if coalesced == 0 || batches == 0 {
		t.Fatalf("no coalescing under %d concurrent readers: coalesced=%d batches=%d",
			readers, coalesced, batches)
	}
	if entries < 2*batches {
		t.Fatalf("batches carried too few entries: %d entries in %d batches", entries, batches)
	}
}

// TestConcurrentReadsDisableBatching is the A/B half of the determinism
// claim: with batching off, the same concurrent workload still yields
// identical per-thread sequences and sends no batch messages at all.
func TestConcurrentReadsDisableBatching(t *testing.T) {
	h := newCoreHarness(t, 42)
	ring := []transport.NodeID{1, 2, 3}
	for _, id := range ring {
		h.addStack(id, ring, true)
	}
	offsets := []time.Duration{0, 5 * time.Second, 15 * time.Second}
	for i, id := range ring {
		h.addReplica(id, replication.Active, false, h.simClock(offsets[i], 0),
			func(c *Config) { c.DisableBatching = true })
	}
	const readers, reads = 6, 5
	_, finished := concurrentReaders(h, ring, readers, reads, nil)
	h.start()
	if !h.runUntil(10*time.Second, allFinished(finished, readers)) {
		t.Fatal("readers never finished with batching disabled")
	}
	for _, id := range ring {
		if b := h.counter(id, "core.batches_sent"); b != 0 {
			t.Fatalf("node %v sent %d batches with batching disabled", id, b)
		}
		if c := h.counter(id, "core.rounds_coalesced"); c != 0 {
			t.Fatalf("node %v coalesced %d rounds with batching disabled", id, c)
		}
	}
}

// TestSequentialReadsBypassBatching checks the uncontended fast path: strictly
// sequential client-driven reads must ride plain CCS messages (whose identical
// headers feed the substrate's duplicate suppression) and never form batches.
func TestSequentialReadsBypassBatching(t *testing.T) {
	h, client := standardSetup(t, 7, replication.Active)
	driveReads(t, h, client, 8)
	for _, id := range []transport.NodeID{1, 2, 3} {
		if b := h.counter(id, "core.batches_sent"); b != 0 {
			t.Fatalf("node %v sent %d batches for sequential reads", id, b)
		}
		if c := h.counter(id, "core.rounds_coalesced"); c != 0 {
			t.Fatalf("node %v coalesced %d rounds for sequential reads", id, c)
		}
	}
}

// TestCrashMidBatchKeepsSurvivorsConsistent fail-stops one replica while its
// own batched proposals are still in flight and other replicas' readers are
// mid-stream. Safe delivery guarantees the survivors decided every read the
// crashed replica completed, alike (the round oracle), and the survivors must
// finish while still coalescing rounds.
func TestCrashMidBatchKeepsSurvivorsConsistent(t *testing.T) {
	h := newCoreHarness(t, 99)
	ring := []transport.NodeID{1, 2, 3}
	for _, id := range ring {
		h.addStack(id, ring, true)
	}
	offsets := []time.Duration{0, 5 * time.Second, 15 * time.Second}
	for i, id := range ring {
		h.addReplica(id, replication.Active, false, h.simClock(offsets[i], 0))
	}
	const readers, reads = 4, 10
	aborted := make(map[transport.NodeID]bool)
	values, finished := concurrentReaders(h, ring, readers, reads, aborted)
	h.start()

	// Let every replica complete a few coalesced generations, then fail-stop
	// node 1 mid-stream: its threads are blocked on rounds whose proposals
	// ride an in-flight batch.
	if !h.runUntil(10*time.Second, func() bool {
		for _, id := range ring {
			for _, seq := range values[id] {
				if len(seq) < 3 {
					return false
				}
			}
		}
		return true
	}) {
		t.Fatal("cluster never reached the crash point")
	}
	h.stacks[1].Stop()
	h.net.Endpoint(1).SetDown(true)

	survivors := []transport.NodeID{2, 3}
	if !h.runUntil(10*time.Second, func() bool {
		return *finished[2] == readers && *finished[3] == readers
	}) {
		t.Fatalf("survivors never finished after the crash: %d/%d of %d",
			*finished[2], *finished[3], readers)
	}
	for _, id := range survivors {
		for slot, seq := range values[id] {
			if len(seq) != reads {
				t.Fatalf("survivor %v reader %d completed %d/%d reads", id, slot, len(seq), reads)
			}
		}
	}

	var coalesced uint64
	for _, id := range survivors {
		coalesced += h.counter(id, "core.rounds_coalesced")
	}
	if coalesced == 0 {
		t.Fatal("survivors never coalesced rounds")
	}

	// Retire the crashed replica's blocked readers for the leak check.
	aborted[1] = true
	retireReads(h, 1)
	if !h.runUntil(time.Second, func() bool { return *finished[1] == readers }) {
		t.Fatalf("crashed replica's readers never retired: %d/%d", *finished[1], readers)
	}
}
