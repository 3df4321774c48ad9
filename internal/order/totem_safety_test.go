package order

import (
	"fmt"
	"testing"
	"time"

	"cts/internal/transport"
)

// Tests for per-message safe delivery, logical-identity duplicate
// suppression, and message salvage across aborted recoveries.

func TestPerMessageSafeDeliveryPreservesTotalOrder(t *testing.T) {
	h := newHarness(t, 21, nil)
	ids := nodeIDs(3)
	for _, id := range ids {
		h.addNode(id, ids, true)
	}
	h.startAll()
	h.k.RunFor(2 * time.Millisecond)

	// Interleave safe and agreed messages from one sender; delivery must be
	// in send order at every node (a held safe message blocks later ones).
	n := h.nodes[0]
	h.k.Post(func() {
		for i := 0; i < 12; i++ {
			payload := []byte(fmt.Sprintf("m%02d", i))
			// Queue through the same (loop-direct) path so the send order
			// matches the loop iteration order; every third message is safe.
			n.BroadcastCancelable(payload, i%3 == 0, 0)
		}
	})
	ok := h.runUntil(2*time.Second, func() bool {
		for _, id := range ids {
			if len(h.deliveries[id]) < 12 {
				return false
			}
		}
		return true
	})
	if !ok {
		for _, id := range ids {
			t.Logf("%v delivered %d", id, len(h.deliveries[id]))
		}
		t.Fatal("not all messages delivered")
	}
	for _, id := range ids {
		for i := 0; i < 12; i++ {
			if want := fmt.Sprintf("m%02d", i); h.deliveries[id][i] != want {
				t.Fatalf("%v delivery %d = %q, want %q (order broken by safe gating)",
					id, i, h.deliveries[id][i], want)
			}
		}
	}
}

func TestSafeDeliveryWaitsForAllReceived(t *testing.T) {
	h := newHarness(t, 22, nil)
	ids := nodeIDs(3)
	// Stamp each delivery at the sender when it happens, not when the
	// polling loop next looks.
	var deliveredAt time.Duration
	stamp := func(e *Env, _ *TotemTuning) {
		inner := e.Deliver
		e.Deliver = func(d Delivery) {
			inner(d)
			deliveredAt = h.k.Now()
		}
	}
	h.addNode(ids[0], ids, true, stamp)
	for _, id := range ids[1:] {
		h.addNode(id, ids, true)
	}
	h.startAll()
	h.k.RunFor(2 * time.Millisecond)

	// A safe message takes strictly longer to deliver at the sender than an
	// agreed one: the aru must cover it first.
	send := func(safe bool) time.Duration {
		start := h.k.Now()
		h.k.Post(func() { h.nodes[0].BroadcastCancelable([]byte("x"), safe, 0) })
		before := len(h.deliveries[0])
		if !h.runUntil(time.Second, func() bool { return len(h.deliveries[0]) > before }) {
			t.Fatalf("message (safe=%v) never delivered", safe)
		}
		return deliveredAt - start
	}
	agreed := send(false)
	safe := send(true)
	t.Logf("delivered at the sender after %v (agreed), %v (safe)", agreed, safe)
	if safe <= agreed {
		t.Fatalf("safe delivery (%v) not slower than agreed (%v)", safe, agreed)
	}
	// One hop ≈ 50µs; safe needs about a full extra circulation.
	if safe-agreed < 100*time.Microsecond {
		t.Fatalf("safe delivery only %v slower than agreed; expected ≈ a circulation", safe-agreed)
	}
}

func TestDupKeySuppressionAtTokenVisit(t *testing.T) {
	h := newHarness(t, 23, nil)
	ids := nodeIDs(3)
	for _, id := range ids {
		h.addNode(id, ids, true)
	}
	h.startAll()
	h.k.RunFor(2 * time.Millisecond)

	// All three nodes queue a message with the same logical identity;
	// exactly one copy is delivered.
	const key = 0xFEED
	for _, id := range ids {
		n := h.nodes[id]
		h.k.Post(func() { n.BroadcastCancelable([]byte("same"), false, key) })
	}
	h.k.RunFor(20 * time.Millisecond)
	for _, id := range ids {
		count := 0
		for _, p := range h.deliveries[id] {
			if p == "same" {
				count++
			}
		}
		if count != 1 {
			t.Fatalf("%v delivered %d copies of the keyed message, want 1", id, count)
		}
	}
}

func TestCancelReportsUnsentGuarantee(t *testing.T) {
	h := newHarness(t, 24, nil)
	n := h.addNode(0, nodeIDs(1), true)
	h.startAll()
	h.k.RunFor(time.Millisecond)

	var cancel func() bool
	h.k.Post(func() { cancel = n.BroadcastCancelable([]byte("y"), false, 0) })
	h.k.RunFor(time.Microsecond) // queue it, before any token visit sends it
	var first, second bool
	h.k.Post(func() { first = cancel(); second = cancel() })
	h.k.RunFor(time.Millisecond)
	if !first || !second {
		t.Fatalf("cancel should be idempotently true before send: %v %v", first, second)
	}
	// After a send, cancel reports false.
	var sent func() bool
	h.k.Post(func() { sent = n.BroadcastCancelable([]byte("z"), false, 0) })
	h.k.RunFor(5 * time.Millisecond) // token visits pass; message sent
	var late bool
	h.k.Post(func() { late = sent() })
	h.k.RunFor(time.Millisecond)
	if late {
		t.Fatal("cancel after the send should report false")
	}
}

// TestAbortedRecoverySalvagesMessages crashes a member exactly while a
// membership change is being recovered, forcing a second membership round,
// and verifies that messages broadcast around the disruption still reach all
// survivors exactly once.
func TestAbortedRecoverySalvagesMessages(t *testing.T) {
	h := newHarness(t, 25, nil)
	ids := nodeIDs(4)
	for _, id := range ids {
		h.addNode(id, ids, true)
	}
	h.startAll()
	h.k.RunFor(2 * time.Millisecond)

	// Continuous traffic from node 0.
	sent := 0
	n0 := h.nodes[0]
	var pump func()
	pump = func() {
		if sent >= 60 {
			return
		}
		n0.Broadcast([]byte(fmt.Sprintf("p%03d", sent)))
		sent++
		h.k.After(150*time.Microsecond, pump)
	}
	h.k.Post(pump)

	// First disruption: crash node 3; second disruption arrives while the
	// survivors are likely still in the membership change: crash node 2.
	h.k.At(h.k.Now()+2*time.Millisecond, func() {
		h.nodes[3].Stop()
		h.net.Endpoint(3).SetDown(true)
	})
	h.k.At(h.k.Now()+13*time.Millisecond, func() { // ≈ token-loss + gather window
		h.nodes[2].Stop()
		h.net.Endpoint(2).SetDown(true)
	})

	ok := h.runUntil(5*time.Second, func() bool {
		return sent >= 60 && len(h.deliveries[0]) >= 60 && len(h.deliveries[1]) >= 60
	})
	if !ok {
		t.Fatalf("sent=%d delivered0=%d delivered1=%d",
			sent, len(h.deliveries[0]), len(h.deliveries[1]))
	}
	// Survivors delivered every message exactly once, in identical order.
	for _, id := range ids[:2] {
		seen := make(map[string]int)
		for _, p := range h.deliveries[id] {
			seen[p]++
		}
		for i := 0; i < 60; i++ {
			key := fmt.Sprintf("p%03d", i)
			if seen[key] != 1 {
				t.Fatalf("%v saw %q %d times", id, key, seen[key])
			}
		}
	}
	h.checkPrefixConsistency(0, 1)
}

// TestTotalOrderUnderLossManySeeds is the multi-seed property check: for
// every seed, lossy delivery still yields gapless identical sequences.
func TestTotalOrderUnderLossManySeeds(t *testing.T) {
	for seed := int64(100); seed < 110; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			h := newHarness(t, seed, nil)
			ids := nodeIDs(3)
			for _, id := range ids {
				h.addNode(id, ids, true)
			}
			h.net.SetLoss(0.08)
			h.startAll()
			for i, id := range ids {
				node := h.nodes[id]
				for m := 0; m < 15; m++ {
					msg := fmt.Sprintf("n%d-m%d", i, m)
					h.k.At(time.Duration(m*300+i*41)*time.Microsecond,
						func() { node.Broadcast([]byte(msg)) })
				}
			}
			ok := h.runUntil(5*time.Second, func() bool {
				for _, id := range ids {
					if len(h.deliveries[id]) < 45 {
						return false
					}
				}
				return true
			})
			if !ok {
				t.Fatalf("deliveries: %d/%d/%d of 45",
					len(h.deliveries[0]), len(h.deliveries[1]), len(h.deliveries[2]))
			}
			h.checkPrefixConsistency(ids...)
			seen := make(map[string]bool)
			for _, p := range h.deliveries[0] {
				if seen[p] {
					t.Fatalf("duplicate delivery %q", p)
				}
				seen[p] = true
			}
		})
	}
}

// TestSafeModeNodeWideSurvivesCrash sends every message with safe delivery
// and crashes a member while they are in flight.
func TestSafeModeNodeWideSurvivesCrash(t *testing.T) {
	h := newHarness(t, 26, nil)
	ids := nodeIDs(3)
	for _, id := range ids {
		h.addNode(id, ids, true)
	}
	h.startAll()
	h.k.RunFor(2 * time.Millisecond)
	node := h.nodes[0]
	for i := 0; i < 10; i++ {
		msg := fmt.Sprintf("s%d", i)
		h.k.At(h.k.Now()+time.Duration(i*200)*time.Microsecond,
			func() { node.BroadcastCancelable([]byte(msg), true, 0) })
	}
	h.k.RunFor(2 * time.Millisecond)
	h.nodes[2].Stop()
	h.net.Endpoint(2).SetDown(true)
	ok := h.runUntil(3*time.Second, func() bool {
		return len(h.deliveries[0]) >= 10 && len(h.deliveries[1]) >= 10
	})
	if !ok {
		t.Fatalf("safe-mode deliveries after crash: %d/%d",
			len(h.deliveries[0]), len(h.deliveries[1]))
	}
	h.checkPrefixConsistency(0, 1)
}

var _ = transport.NodeID(0)
