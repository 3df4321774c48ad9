package core

import (
	"fmt"
	"testing"
	"time"

	"cts/internal/gcs"
	"cts/internal/order"
	"cts/internal/replication"
	"cts/internal/transport"
	"cts/internal/wire"
)

// This file runs the CCS determinism properties against every real orderer.
// The core depends only on the order.Orderer contract, so the first-wins
// rule, batching, and crash recovery must behave identically (up to the
// decided values, which may differ per protocol) whether Totem or the
// leader-sequencer carries the total order.

var matrixKinds = []order.Kind{order.KindTotem, order.KindSeq}

// addStackOrder is addStack with an explicit orderer selection. Instant
// stacks share one hub per harness.
func (h *coreHarness) addStackOrder(id transport.NodeID, ring []transport.NodeID,
	bootstrap bool, kind order.Kind) {
	h.t.Helper()
	opts := order.Options{Kind: kind}
	if kind == order.KindInstant {
		if h.hub == nil {
			h.hub = order.NewInstantHub()
		}
		opts.Instant = order.InstantTuning{Hub: h.hub}
	}
	s, err := gcs.New(gcs.Config{
		Runtime:   h.k,
		Transport: h.net.Endpoint(id),
		Members:   ring,
		Bootstrap: bootstrap,
		Order:     opts,
		Obs:       h.rec.ForNode(uint32(id)),
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

// orderedBatches watches node id's total order and counts the CCS-batch
// messages ordered: decisive ones list at least one round no earlier CCS or
// CCS-batch message decided, redundant ones only rounds already decided.
type orderedBatches struct {
	decided             map[threadRound]bool
	decisive, redundant uint64
}

func watchBatches(h *coreHarness, id transport.NodeID) *orderedBatches {
	ob := &orderedBatches{decided: make(map[threadRound]bool)}
	h.stacks[id].WatchMessages(func(msg wire.Message, _ gcs.Meta) {
		switch msg.Type {
		case wire.TypeCCS:
			if p, err := wire.UnmarshalCCS(msg.Payload); err == nil {
				ob.decided[threadRound{p.ThreadID, msg.Seq}] = true
			}
		case wire.TypeCCSBatch:
			entries, err := wire.UnmarshalCCSBatch(msg.Payload)
			if err != nil {
				return
			}
			fresh := false
			for _, e := range entries {
				k := threadRound{e.ThreadID, e.Round}
				fresh = fresh || !ob.decided[k]
				ob.decided[k] = true
			}
			if fresh {
				ob.decisive++
			} else {
				ob.redundant++
			}
		}
	})
	return ob
}

// TestOrdererMatrixOneBatchPerRound runs E15's shape (3 replicas, 8
// concurrent readers each) on every orderer. Replicas that batch the same
// rounds name their batches alike, so the substrate withdraws the copies
// and about one batch per decided batch round is ordered. Totem and the
// instant hub withdraw a copy before it is sent (core.ccs_suppressed), and
// core.batches_sent, which counts only batches that reached the wire, sums
// over the replicas to the batches ordered. Under seq a copy can reach the
// leader first, which drops it instead.
func TestOrdererMatrixOneBatchPerRound(t *testing.T) {
	const readers, reads = 8, 25
	for _, kind := range []order.Kind{order.KindTotem, order.KindSeq, order.KindInstant} {
		t.Run(string(kind), func(t *testing.T) {
			h := newCoreHarness(t, 2003)
			ring := []transport.NodeID{1, 2, 3}
			for _, id := range ring {
				h.addStackOrder(id, ring, true, kind)
			}
			offsets := []time.Duration{0, 5 * time.Second, 15 * time.Second}
			for i, id := range ring {
				h.addReplica(id, replication.Active, false, h.simClock(offsets[i], 0))
			}
			ob := watchBatches(h, 1)
			_, finished := concurrentReaders(h, ring, readers, reads, nil)
			h.start()
			if !h.runUntil(10*time.Second, allFinished(finished, readers)) {
				t.Fatalf("readers never finished: %d/%d/%d of %d",
					*finished[1], *finished[2], *finished[3], readers)
			}
			h.k.RunFor(5 * time.Millisecond) // order what is still on the wire

			var sent, withdrawn uint64
			for _, id := range ring {
				sent += h.counter(id, "core.batches_sent")
				withdrawn += h.counter(id, "core.ccs_suppressed")
			}
			ordered := ob.decisive + ob.redundant
			t.Logf("batches ordered %d (decisive %d), sent %d; ccs_suppressed %d",
				ordered, ob.decisive, sent, withdrawn)
			if ob.decisive == 0 {
				t.Fatal("no batch decided a round")
			}
			if 4*ob.redundant > ob.decisive {
				t.Errorf("%d redundant batches ordered for %d decisive ones, want about one batch per round",
					ob.redundant, ob.decisive)
			}
			if kind == order.KindSeq {
				if sent < ordered {
					t.Errorf("core.batches_sent sums to %d, below the %d CCS-batch messages ordered", sent, ordered)
				}
				return
			}
			if withdrawn == 0 {
				t.Error("no CCS message was withdrawn as a duplicate")
			}
			if sent != ordered {
				t.Errorf("core.batches_sent sums to %d, but %d CCS-batch messages were ordered", sent, ordered)
			}
		})
	}
}
