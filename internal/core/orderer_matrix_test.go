package core

import (
	"fmt"
	"testing"
	"time"

	"cts/internal/gcs"
	"cts/internal/order"
	"cts/internal/replication"
	"cts/internal/transport"
)

// This file runs the CCS determinism properties against every real orderer.
// The core depends only on the order.Orderer contract, so the first-wins
// rule, batching, and crash recovery must behave identically (up to the
// decided values, which may differ per protocol) whether Totem or the
// leader-sequencer carries the total order.

var matrixKinds = []order.Kind{order.KindTotem, order.KindSeq}

// addStackOrder is addStack with an explicit orderer selection.
func (h *coreHarness) addStackOrder(id transport.NodeID, ring []transport.NodeID,
	bootstrap bool, kind order.Kind) {
	h.t.Helper()
	s, err := gcs.New(gcs.Config{
		Runtime:   h.k,
		Transport: h.net.Endpoint(id),
		Members:   ring,
		Bootstrap: bootstrap,
		Order:     order.Options{Kind: kind},
	})
	if err != nil {
		h.t.Fatal(err)
	}
	h.stacks[id] = s
}

// runReaderWorkload builds a three-replica cluster on the given orderer,
// runs the concurrent-reader workload to completion, and returns the
// per-node, per-reader group-clock sequences.
func runReaderWorkload(t *testing.T, kind order.Kind, seed int64,
	readers, reads int) map[transport.NodeID][][]time.Duration {
	t.Helper()
	h := newCoreHarness(t, seed)
	ring := []transport.NodeID{1, 2, 3}
	for _, id := range ring {
		h.addStackOrder(id, ring, true, kind)
	}
	offsets := []time.Duration{0, 5 * time.Second, 15 * time.Second}
	for i, id := range ring {
		h.addReplica(id, replication.Active, false, h.simClock(offsets[i], 0))
	}
	values, finished := concurrentReaders(h, ring, readers, reads, nil)
	for _, id := range ring {
		h.stacks[id].Start()
	}
	if !h.runUntil(10*time.Second, allFinished(finished, readers)) {
		t.Fatalf("%s: readers never finished: %d/%d/%d of %d",
			kind, *finished[1], *finished[2], *finished[3], readers)
	}
	return values
}

// TestOrdererMatrixDeterministicSequences runs the concurrent-reader
// workload twice per orderer with the same seed: replicas must agree with
// each other within a run (the harness's round oracle), and the decided
// sequences must be bit-identical
// across runs (no hidden nondeterminism in either protocol or in the core's
// batching above it).
func TestOrdererMatrixDeterministicSequences(t *testing.T) {
	const readers, reads = 5, 6
	for _, kind := range matrixKinds {
		t.Run(string(kind), func(t *testing.T) {
			a := runReaderWorkload(t, kind, 424, readers, reads)
			b := runReaderWorkload(t, kind, 424, readers, reads)
			for _, id := range []transport.NodeID{1, 2, 3} {
				for slot := range a[id] {
					if fmt.Sprint(a[id][slot]) != fmt.Sprint(b[id][slot]) {
						t.Fatalf("%s: node %v reader %d differs across identical runs:\n%v\n%v",
							kind, id, slot, a[id][slot], b[id][slot])
					}
				}
			}
		})
	}
}

// TestOrdererMatrixCrashMidBatch fail-stops replica 1 (under the
// leader-sequencer, the leader itself) while batched proposals are in
// flight. Survivors must finish every read, and the round oracle must find
// every read any replica completed decided alike (safe delivery).
func TestOrdererMatrixCrashMidBatch(t *testing.T) {
	for _, kind := range matrixKinds {
		t.Run(string(kind), func(t *testing.T) {
			h := newCoreHarness(t, 991)
			ring := []transport.NodeID{1, 2, 3}
			for _, id := range ring {
				h.addStackOrder(id, ring, true, kind)
			}
			offsets := []time.Duration{0, 5 * time.Second, 15 * time.Second}
			for i, id := range ring {
				h.addReplica(id, replication.Active, false, h.simClock(offsets[i], 0))
			}
			const readers, reads = 4, 10
			aborted := make(map[transport.NodeID]bool)
			values, finished := concurrentReaders(h, ring, readers, reads, aborted)
			for _, id := range ring {
				h.stacks[id].Start()
			}
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
				t.Fatalf("%s: cluster never reached the crash point", kind)
			}
			h.stacks[1].Stop()
			h.net.Endpoint(1).SetDown(true)

			if !h.runUntil(10*time.Second, func() bool {
				return *finished[2] == readers && *finished[3] == readers
			}) {
				t.Fatalf("%s: survivors never finished after the crash: %d/%d of %d",
					kind, *finished[2], *finished[3], readers)
			}
			for _, id := range []transport.NodeID{2, 3} {
				for slot, seq := range values[id] {
					if len(seq) != reads {
						t.Fatalf("%s: survivor %v reader %d completed %d/%d reads",
							kind, id, slot, len(seq), reads)
					}
				}
			}

			// Retire the crashed replica's blocked readers for the leak check.
			aborted[1] = true
			retireReads(h, 1)
			if !h.runUntil(time.Second, func() bool { return *finished[1] == readers }) {
				t.Fatalf("%s: crashed replica's readers never retired: %d/%d",
					kind, *finished[1], readers)
			}
		})
	}
}
