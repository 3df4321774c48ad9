package order

import (
	"fmt"
	"testing"
	"time"

	"cts/internal/obs"
	"cts/internal/transport"
)

// Tests for bounded retention: what a node keeps of the ring's messages, when
// it lets go, and that recovery never counts on a message that was let go.

// gauge reads one of the node's obs samples. Loop-only, like ObsSamples: call
// it from kernel callbacks or between kernel steps.
func gauge(t *testing.T, n obs.Source, name string) uint64 {
	t.Helper()
	for _, s := range n.ObsSamples() {
		if s.Name == name {
			return s.Value
		}
	}
	t.Fatalf("no sample %q", name)
	return 0
}

// TestRetentionBoundedUnderLoss pushes 50k broadcasts through a lossy 3-node
// ring and samples totem.retained_msgs at every token visit: it must stay
// under a constant that does not depend on the run length, while lost
// messages are still retransmitted and the total order stays gap-free. The
// first sample over the bound fails the test: a ring that stops recovering
// losses would otherwise pile up messages until the run slows to a crawl.
func TestRetentionBoundedUnderLoss(t *testing.T) {
	const (
		perNode = 16667 // ×3 ≈ 50k
		// Two rotations of evidence at 3×16 broadcasts per rotation, plus
		// what piles up while a lost message or token is being recovered.
		maxRetained = 512
	)
	h := newHarness(t, 31, nil)
	ids := nodeIDs(3)
	peak := make(map[transport.NodeID]uint64)
	for _, id := range ids {
		n := h.addNode(id, ids, true)
		n.tokenHook = func(ringToken) {
			v := gauge(t, n, "totem.retained_msgs")
			if v > maxRetained {
				t.Fatalf("%v: totem.retained_msgs = %d at %v, bound is %d", id, v, h.k.Now(), maxRetained)
			}
			peak[id] = max(peak[id], v)
		}
	}
	h.net.SetLoss(0.02)
	h.startAll()

	// Each node keeps its send queue topped up, so the ring runs at its flow
	// control limit for the whole test.
	for i, id := range ids {
		i, n, sent := i, h.nodes[id], 0
		var pump func()
		pump = func() {
			for len(n.out.q) < 2*maxMessagesPerToken && sent < perNode {
				n.BroadcastCancelable([]byte(fmt.Sprintf("n%d-m%d", i, sent)), false, 0)
				sent++
			}
			if sent < perNode {
				h.k.After(50*time.Microsecond, pump)
			}
		}
		h.k.Post(pump)
	}

	const want = perNode * 3
	if !h.runUntil(60*time.Second, func() bool {
		for _, id := range ids {
			if len(h.deliveries[id]) < want {
				return false
			}
		}
		return true
	}) {
		t.Fatalf("delivered %d/%d/%d of %d", len(h.deliveries[0]), len(h.deliveries[1]),
			len(h.deliveries[2]), want)
	}
	h.k.RunFor(5 * time.Millisecond) // idle rotations: the tail is let go too

	var retrans uint64
	for _, id := range ids {
		n := h.nodes[id]
		if peak[id] == 0 {
			t.Errorf("%v: totem.retained_msgs never above 0; the test exercises nothing", id)
		}
		if v := gauge(t, n, "totem.retained_msgs"); v != 0 {
			t.Errorf("%v: idle ring still retains %d messages", id, v)
		}
		if v := gauge(t, n, "totem.discard_point"); v < want {
			t.Errorf("%v: totem.discard_point = %d after %d deliveries", id, v, want)
		}
		retrans += n.stats.Retransmissions
		if len(h.deliveries[id]) != want {
			t.Errorf("%v delivered %d, want exactly %d", id, len(h.deliveries[id]), want)
		}
	}
	if retrans == 0 {
		t.Error("2% loss and no retransmission served; the test exercises nothing")
	}
	h.checkPrefixConsistency(ids...)
	// Gap-freedom: every sender's messages arrive in send order, none missing.
	next := make([]int, len(ids))
	for _, p := range h.deliveries[0] {
		var ni, mi int
		if _, err := fmt.Sscanf(p, "n%d-m%d", &ni, &mi); err != nil {
			t.Fatalf("unexpected payload %q", p)
		}
		if mi != next[ni] {
			t.Fatalf("sender %d: got m%d, want m%d", ni, mi, next[ni])
		}
		next[ni]++
	}
}

// TestLateDuplicateOfDiscardedNotRestored: a retransmission that arrives
// after its sequence was let go must not be stored again (it would never be
// discarded a second time), and the message's logical identity outlives it.
func TestLateDuplicateOfDiscardedNotRestored(t *testing.T) {
	h := newHarness(t, 32, nil)
	ids := nodeIDs(3)
	for _, id := range ids {
		h.addNode(id, ids, true)
	}
	h.startAll()

	const key = 0xABC
	h.k.Post(func() {
		h.nodes[0].BroadcastCancelable([]byte("keyed"), false, key)
		for i := 0; i < 9; i++ {
			h.nodes[0].BroadcastCancelable([]byte(fmt.Sprintf("m%d", i)), false, 0)
		}
	})
	if !h.runUntil(time.Second, func() bool {
		for _, id := range ids {
			if h.nodes[id].gcPoint < 10 {
				return false
			}
		}
		return true
	}) {
		t.Fatalf("discard points %d/%d/%d never reached 10",
			h.nodes[0].gcPoint, h.nodes[1].gcPoint, h.nodes[2].gcPoint)
	}

	ring := h.nodes[0].ring
	for s := uint64(1); s <= 10; s++ {
		late := &dataMsg{Ring: ring, Seq: s, Sender: 0, Kind: msgRegular, Payload: []byte("late")}
		if err := h.net.Endpoint(0).Broadcast(encodeData(late)); err != nil {
			t.Fatal(err)
		}
	}
	// The same logical identity, queued after its message was discarded.
	h.k.Post(func() { h.nodes[2].BroadcastCancelable([]byte("again"), false, key) })
	h.k.RunFor(5 * time.Millisecond)

	for _, id := range ids {
		if v := gauge(t, h.nodes[id], "totem.retained_msgs"); v != 0 {
			t.Errorf("%v re-stored %d discarded message(s)", id, v)
		}
		if len(h.deliveries[id]) != 10 {
			t.Errorf("%v delivered %d messages, want 10: %v", id, len(h.deliveries[id]), h.deliveries[id])
		}
	}
}

// TestKeyWindowKeepsRecentKeys: the duplicate-suppression window every
// orderer shares is bounded without ever forgetting a recent identity — the
// old tables dropped every key at once, including one learned a moment
// before. A ring sizes its window from the membership: four rotations at the
// full per-visit budget, floored for small rings.
func TestKeyWindowKeepsRecentKeys(t *testing.T) {
	for _, tc := range []struct {
		members int
		gen     int
	}{
		{members: 4, gen: 4096},
		{members: 1000, gen: 64000},
	} {
		t.Run(fmt.Sprintf("members=%d", tc.members), func(t *testing.T) {
			gen := keyGeneration(tc.members)
			if gen != tc.gen {
				t.Fatalf("%d-member ring: generation %d, want %d", tc.members, gen, tc.gen)
			}
			var w keyWindow
			g := uint64(gen)
			total := 3*g + 17
			for k := uint64(1); k <= total; k++ {
				w.Note(k, gen)
				if !w.Seen(k) {
					t.Fatalf("key %d forgotten as soon as it was learned", k)
				}
				if k > g && !w.Seen(k-g+1) {
					t.Fatalf("after key %d, key %d (within the last %d) is forgotten", k, k-g+1, g)
				}
				if got := w.Len(); got > 2*gen {
					t.Fatalf("window holds %d keys, bound is %d", got, 2*gen)
				}
			}
			if w.Seen(1) {
				t.Fatal("oldest key never forgotten; the window is not bounded")
			}
			// Re-learning a known key must not retire a generation.
			before := w.Len()
			w.Note(total, gen)
			if w.Len() != before {
				t.Fatalf("re-noting a known key changed the window: %d → %d", before, w.Len())
			}
			w.Note(0, gen)
			if w.Seen(0) || w.Len() != before {
				t.Fatal("key 0 (no identity) was noted")
			}
		})
	}
}

// TestRecoveryAfterDiscard: the survivors of a crash disagree about how far
// they delivered, and the ones further ahead have already let go of messages
// the one behind still needs. Recovery must assign each such message to a
// member that still holds it.
//
// Node 3 is held back on safe messages: its delivered and safe point are
// rolled back below the others' discard point. With today's safe point (one
// incoming aru) the protocol cannot reach that state by itself — a member's
// safe point passes s before any other member's second visit with aru ≥ s —
// so the test forces it; a stricter safe point (DESIGN.md §6, "What each
// layer retains") would reach it naturally. The roll-back happens in the
// instant node 3 forwards the token to node 0, and node 0 — the lowest id,
// whose range claim used to win every assignment — crashes in the same
// instant, so nobody sees a token again before the membership change.
func TestRecoveryAfterDiscard(t *testing.T) {
	const (
		total    = 40
		heldBack = 6 // node 3 has not delivered the last 6
	)
	h := newHarness(t, 33, nil)
	ids := nodeIDs(4)
	armed := false
	for _, id := range ids {
		h.addNode(id, ids, true)
	}
	h.nodes[3].tokenHook = func(ringToken) {
		if !armed {
			return
		}
		armed = false
		h.k.Post(func() { // after this visit has forwarded the token
			h.nodes[0].Stop()
			h.net.Endpoint(0).SetDown(true)
			holdBack(t, h, 3, heldBack)
		})
	}
	h.startAll()

	h.k.Post(func() {
		for i := 0; i < total; i++ {
			h.nodes[1].BroadcastCancelable([]byte(fmt.Sprintf("m%02d", i)), true, 0)
		}
	})
	if !h.runUntil(time.Second, func() bool {
		for _, id := range ids {
			if h.nodes[id].gcPoint < total {
				return false
			}
		}
		return true
	}) {
		t.Fatal("ring never discarded the whole burst")
	}
	armed = true

	survivors := ids[1:]
	if !h.runUntil(2*time.Second, func() bool {
		for _, id := range survivors {
			vs := h.views[id]
			if len(vs) == 0 || len(vs[len(vs)-1].Members) != 3 || len(h.deliveries[id]) < total {
				return false
			}
		}
		return true
	}) {
		for _, id := range survivors {
			t.Logf("%v: %d deliveries, %d views", id, len(h.deliveries[id]), len(h.views[id]))
		}
		t.Fatal("survivors did not recover every message")
	}
	h.k.RunFor(5 * time.Millisecond)
	for _, id := range survivors {
		if len(h.deliveries[id]) != total {
			t.Fatalf("%v delivered %d, want exactly %d", id, len(h.deliveries[id]), total)
		}
		for i, p := range h.deliveries[id] {
			if want := fmt.Sprintf("m%02d", i); p != want {
				t.Fatalf("%v delivery %d = %q, want %q", id, i, p, want)
			}
		}
	}
}

// holdBack rewrites node id's state to what it would be had its last k
// deliveries still been waiting for the safe point: the messages are back in
// received, and delivered, the discard point and the safe point sit below
// them. The harness forgets the k deliveries with it.
func holdBack(t *testing.T, h *harness, id transport.NodeID, k int) {
	t.Helper()
	n := h.nodes[id]
	got := h.deliveries[id]
	if n.state != stateOperational || len(got) < k || n.delivered < uint64(k) {
		t.Fatalf("cannot hold %v back by %d: state %v, %d deliveries", id, k, n.state, len(got))
	}
	for i := 0; i < k; i++ {
		s := n.delivered - uint64(i)
		n.received[s] = &dataMsg{Ring: n.ring, Seq: s, Sender: h.senders[id][len(got)-1-i],
			Kind: msgRegular, Safe: true, Payload: []byte(got[len(got)-1-i])}
	}
	n.delivered -= uint64(k)
	n.totalOrder -= uint64(k)
	n.gcPoint = n.delivered
	n.safePoint = n.delivered
	h.deliveries[id] = got[:len(got)-k]
	h.senders[id] = h.senders[id][:len(got)-k]
}
